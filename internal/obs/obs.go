// Package obs is the decoder's structured event tracer: the
// observability layer that makes the paper's evaluation — where time
// goes, per processor, across scheduling modes — measurable from a live
// run instead of the deterministic simulator.
//
// Every process of a decode (workers, scan, display) records completed
// events into its own fixed-capacity ring buffer: task begin/end spans,
// queue waits, barrier waits, scan spans, feed (backpressure) spans, and
// display deliveries, each stamped with worker id and GOP/picture/slice
// coordinates. Recording is lock-per-lane and allocation-free in the
// steady state; a nil *Tracer disables every hook, so the decode hot
// paths pay only a pointer test when observability is off.
//
// A Snapshot merges the lanes into a Timeline, which exports to the
// Chrome trace-event JSON format (viewable in Perfetto or
// chrome://tracing) and derives the paper's Figures 5–7 style reports:
// per-worker utilization, barrier-wait histograms, load-imbalance
// factor, and the synchronization-overhead fraction.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Kind classifies one recorded event.
type Kind uint8

// The event vocabulary. Task/Wait/Barrier events live on worker lanes;
// Scan and Feed on the scan lane; Display on the display lane.
const (
	// KindTask is one completed decode task: a GOP, a picture, or a
	// slice/row-group, depending on the scheduling mode.
	KindTask Kind = iota
	// KindWait is time a worker spent blocked on an empty task queue
	// (starvation: nothing was ready to decode).
	KindWait
	// KindBarrier is time a worker spent blocked on a picture or
	// reference barrier (a task existed but its dependencies were not
	// complete) — the synchronization cost the paper's improved slice
	// variant exists to reduce.
	KindBarrier
	// KindFeed is the scan process blocking to hand a unit to the
	// worker pool: the streaming pipeline's backpressure span.
	KindFeed
	// KindScan is a span of the scan process indexing stream bytes.
	KindScan
	// KindDisplay is the display process delivering one frame, in
	// display order, to the sink.
	KindDisplay

	// Multi-stream service events (internal/server). They live on
	// per-stream lanes (StreamLane) so the timeline shows every stream's
	// admission, shedding, and degradation history alongside the shared
	// worker pool's task lanes.

	// KindAdmit is a stream's admission: the span covers the time it
	// waited in the admission queue (zero for an immediate admit). GOP
	// carries the stream's priority class.
	KindAdmit
	// KindReject is an admission rejection (queue full, capacity
	// exceeded, or the degradation ladder's final rung).
	KindReject
	// KindShed is one picture sacrificed by the degradation ladder:
	// substituted instead of decoded. Pic is the display index; Slice
	// carries the shed level that claimed it (ShedLevel).
	KindShed
	// KindDegrade is a change of a stream's degradation rung; Slice
	// carries the new rung.
	KindDegrade
	// KindPause is a span a stream spent paused by the overload ladder
	// (lowest-priority streams park under bounded backoff).
	KindPause
	// KindResume is a paused stream re-admitted to scheduling.
	KindResume

	// Intra-slice split-decode events (internal/core split path). They
	// live on worker lanes like KindTask.

	// KindSegment is one completed row-segment task of a split slice —
	// the intra-slice parallel grain. Pic is the display index; Slice is
	// the task index within the picture.
	KindSegment
	// KindVerify is a split slice's join verdict: Slice carries 1 for a
	// verify hit (parallel result adopted) and 0 for a miss (sequential
	// fallback).
	KindVerify

	// KindSlack is a deadline-aware scheduling decision at feed time,
	// on the stream's lane. Pic carries the predicted slack in
	// microseconds (signed — durations clamp negatives, coordinates
	// don't); Slice carries the action taken: 0 none, 1 shed B, 2 shed
	// refs, 3 split-assist candidate. GOP is the unit's group index.
	KindSlack
)

func (k Kind) String() string {
	switch k {
	case KindTask:
		return "task"
	case KindWait:
		return "queue-wait"
	case KindBarrier:
		return "barrier-wait"
	case KindFeed:
		return "feed"
	case KindScan:
		return "scan"
	case KindDisplay:
		return "display"
	case KindAdmit:
		return "admit"
	case KindReject:
		return "reject"
	case KindShed:
		return "shed"
	case KindDegrade:
		return "degrade"
	case KindPause:
		return "pause"
	case KindResume:
		return "resume"
	case KindSegment:
		return "segment"
	case KindVerify:
		return "verify"
	case KindSlack:
		return "slack"
	}
	return "unknown"
}

// Lane ids of the non-worker processes. Worker lanes are the worker
// ids themselves (>= 0); per-stream service lanes occupy the ids below
// LaneDisplay (see StreamLane).
const (
	LaneScan    = -1
	LaneDisplay = -2

	// laneStreamBase is the first per-stream lane; stream id n maps to
	// laneStreamBase - n.
	laneStreamBase = -3
)

// StreamLane returns the lane id of service stream id (>= 0): each
// stream of a multi-stream decode service records its admission, shed,
// degradation, pause, and display events on its own lane.
func StreamLane(id int) int { return laneStreamBase - id }

// StreamOf reports whether lane is a per-stream service lane, and which
// stream it belongs to.
func StreamOf(lane int) (int, bool) {
	if lane <= laneStreamBase {
		return laneStreamBase - lane, true
	}
	return 0, false
}

// Event is one completed, timestamped span of decoder activity.
// Coordinates that do not apply to the event carry -1 (a queue wait,
// for example, has no GOP, picture or slice coordinate).
type Event struct {
	Kind Kind `json:"kind"`
	// Lane is the worker id, or LaneScan / LaneDisplay.
	Lane int `json:"lane"`
	// Start is nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	// Dur is the span length in nanoseconds (0 for instants).
	Dur int64 `json:"dur_ns"`
	// GOP, Pic, Slice locate the work: group index, picture display
	// index, and slice row / task-group index; -1 where not applicable.
	GOP   int `json:"gop"`
	Pic   int `json:"pic"`
	Slice int `json:"slice"`
}

// End returns the span's end, nanoseconds since the tracer was created.
func (e Event) End() int64 { return e.Start + e.Dur }

// DefaultLaneCap is the per-lane ring capacity when New is given zero.
const DefaultLaneCap = 1 << 13

// ring is one lane's fixed-capacity event log. The oldest events are
// overwritten once the lane wraps; dropped counts them.
type ring struct {
	mu      sync.Mutex
	ev      []Event
	next    int
	full    bool
	dropped int64
}

func (r *ring) add(e Event, sink func(Event)) {
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.ev[r.next] = e
	r.next++
	if r.next == len(r.ev) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// events returns the lane's events oldest-first, plus the drop count.
func (r *ring) events() ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.ev[:r.next]...), r.dropped
	}
	out := make([]Event, 0, len(r.ev))
	out = append(out, r.ev[r.next:]...)
	out = append(out, r.ev[:r.next]...)
	return out, r.dropped
}

// Tracer collects events from a decode. One tracer observes one decode
// at a time (its meta records the mode and worker count of the last
// decode it was attached to); Snapshot may be called after the decode
// returns, or concurrently for a live partial view.
//
// All methods are safe on a nil receiver and discard — the decode paths
// call them unconditionally, and a nil tracer is the disabled state.
type Tracer struct {
	start   time.Time
	laneCap int

	mu      sync.RWMutex
	lanes   map[int]*ring
	sink    func(Event)
	mode    string
	workers int
}

// New returns a tracer whose per-lane rings hold laneCap events each
// (0 selects DefaultLaneCap). The tracer's clock starts now: event
// timestamps are nanoseconds since this call.
func New(laneCap int) *Tracer {
	if laneCap <= 0 {
		laneCap = DefaultLaneCap
	}
	return &Tracer{start: time.Now(), laneCap: laneCap, lanes: make(map[int]*ring)}
}

// SetSink forwards every subsequently recorded event to fn, in addition
// to the ring buffers. fn is called from the recording goroutine and
// must be safe for concurrent use; keep it fast — it runs inside the
// decode's scheduling paths.
func (t *Tracer) SetSink(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// SetMeta stamps the decode's mode and worker count (the decode paths
// call it; the values surface in Snapshot and the exports).
func (t *Tracer) SetMeta(mode string, workers int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mode = mode
	t.workers = workers
	t.mu.Unlock()
}

func (t *Tracer) lane(id int) (*ring, func(Event)) {
	t.mu.RLock()
	r, ok := t.lanes[id]
	sink := t.sink
	t.mu.RUnlock()
	if ok {
		return r, sink
	}
	t.mu.Lock()
	if r, ok = t.lanes[id]; !ok {
		r = &ring{ev: make([]Event, t.laneCap)}
		t.lanes[id] = r
	}
	sink = t.sink
	t.mu.Unlock()
	return r, sink
}

// Record logs one completed span: it started at start (wall clock),
// ran for dur, on the given lane. Negative durations are clamped to
// zero (a coarse monotonic clock can report them). Nil tracers discard.
func (t *Tracer) Record(kind Kind, lane int, start time.Time, dur time.Duration, gop, pic, slice int) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	r, sink := t.lane(lane)
	r.add(Event{
		Kind:  kind,
		Lane:  lane,
		Start: start.Sub(t.start).Nanoseconds(),
		Dur:   dur.Nanoseconds(),
		GOP:   gop,
		Pic:   pic,
		Slice: slice,
	}, sink)
}

// Snapshot merges every lane into a Timeline sorted by start time.
func (t *Tracer) Snapshot() *Timeline {
	if t == nil {
		return &Timeline{}
	}
	t.mu.RLock()
	tl := &Timeline{Mode: t.mode, Workers: t.workers, Start: t.start}
	lanes := make([]*ring, 0, len(t.lanes))
	for _, r := range t.lanes {
		lanes = append(lanes, r)
	}
	t.mu.RUnlock()
	for _, r := range lanes {
		ev, dropped := r.events()
		tl.Events = append(tl.Events, ev...)
		tl.Dropped += dropped
	}
	sort.Slice(tl.Events, func(i, j int) bool {
		a, b := tl.Events[i], tl.Events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Lane < b.Lane
	})
	return tl
}

// Timeline is a merged, start-ordered view of a tracer's events.
type Timeline struct {
	Mode    string    `json:"mode"`
	Workers int       `json:"workers"`
	Start   time.Time `json:"start"`
	// Dropped counts events lost to ring wraparound (0 on any run that
	// fits the lane capacity).
	Dropped int64   `json:"dropped"`
	Events  []Event `json:"events"`
}

// Span returns the wall span covered by the events: first start to last
// end.
func (tl *Timeline) Span() time.Duration {
	if len(tl.Events) == 0 {
		return 0
	}
	lo := tl.Events[0].Start
	hi := lo
	for _, e := range tl.Events {
		if e.Start < lo {
			lo = e.Start
		}
		if end := e.End(); end > hi {
			hi = end
		}
	}
	return time.Duration(hi - lo)
}
