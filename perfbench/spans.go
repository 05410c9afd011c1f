package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpeg2par/internal/obs"
)

// span is one benchmark-side timing of a call into a layer.
type span struct {
	name       string
	start, end int64 // ns since the recorder started
	parent     int   // index of the enclosing span, -1 for a root
	stream     int
}

// spanRec records spans in memory on one goroutine; they are written
// out once, when the traced run ends.
type spanRec struct {
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

func (r *spanRec) begin(name string, parent, stream int) int {
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.t0)), end: -1, parent: parent, stream: stream})
	return len(r.spans) - 1
}

func (r *spanRec) end(i int) { r.spans[i].end = int64(time.Since(r.t0)) }

// selfTimes returns each span name's total self time (its duration less
// the time its child spans cover) and the summed root durations. Spans
// of one recorder are nested and never overlap their siblings, so a
// child's whole duration is covered time of its parent.
func (r *spanRec) selfTimes() (self map[string]time.Duration, roots time.Duration) {
	self = map[string]time.Duration{}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		self[s.name] += time.Duration(s.end - s.start - child[i])
		if s.parent < 0 {
			roots += time.Duration(s.end - s.start)
		}
	}
	return self, roots
}

// chromeSpan is one trace-event record of the export.
type chromeSpan struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the spans as Chrome trace-event JSON, one thread
// row per stream, in the document shape obs.ValidateChromeTrace checks.
func (r *spanRec) chromeTrace() ([]byte, error) {
	var ev []chromeSpan
	named := map[int]bool{}
	for _, s := range r.spans {
		if !named[s.stream] {
			named[s.stream] = true
			ev = append(ev, chromeSpan{Name: "thread_name", Ph: "M", TID: s.stream,
				Args: map[string]any{"name": fmt.Sprintf("walk stream %d", s.stream)}})
		}
	}
	for i, s := range r.spans {
		d := float64(s.end-s.start) / 1e3
		ev = append(ev, chromeSpan{Name: s.name, Ph: "X", TID: s.stream, TS: float64(s.start) / 1e3, Dur: &d,
			Args: map[string]any{"id": i, "parent": s.parent, "stream": s.stream}})
	}
	ev = append(ev, chromeSpan{Name: "mpeg2par_counts", Ph: "M",
		Args: map[string]any{"spans": len(r.spans), "dropped": 0}})
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(map[string]any{"traceEvents": ev, "displayTimeUnit": "ms"}); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// export validates the span export and writes it to dir/name.
func (r *spanRec) export(dir, name string) (string, error) {
	data, err := r.chromeTrace()
	if err != nil {
		return "", err
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		return "", fmt.Errorf("span export: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
