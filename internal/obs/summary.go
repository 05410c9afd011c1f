package obs

import (
	"fmt"
	"io"
	"time"
)

// Derived reports: the paper's load-balance and synchronization-overhead
// figures (Figures 5–7) computed from a live run's event stream instead
// of the deterministic simulator.

// WorkerLoad is one worker's time breakdown derived from its events.
type WorkerLoad struct {
	Worker      int           `json:"worker"`
	Busy        time.Duration `json:"busy_ns"`
	QueueWait   time.Duration `json:"queue_wait_ns"`
	BarrierWait time.Duration `json:"barrier_wait_ns"`
	Tasks       int           `json:"tasks"`
	// Utilization is busy over the worker's accounted time
	// (busy + queue wait + barrier wait); 0 when nothing was recorded.
	Utilization float64 `json:"utilization"`
}

// HistBucket is one decade bucket of the barrier-wait histogram.
type HistBucket struct {
	// Lo is the bucket's inclusive lower bound; the last bucket is
	// unbounded above.
	Lo    time.Duration `json:"lo_ns"`
	Count int           `json:"count"`
}

// Histogram is a decade histogram of wait durations (1µs, 10µs, …, 1s).
type Histogram struct {
	Buckets []HistBucket  `json:"buckets"`
	Count   int           `json:"count"`
	Total   time.Duration `json:"total_ns"`
	Max     time.Duration `json:"max_ns"`
}

func newHistogram() Histogram {
	bounds := []time.Duration{0, time.Microsecond, 10 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
		100 * time.Millisecond, time.Second}
	h := Histogram{Buckets: make([]HistBucket, len(bounds))}
	for i, b := range bounds {
		h.Buckets[i] = HistBucket{Lo: b}
	}
	return h
}

func (h *Histogram) add(d time.Duration) {
	h.Count++
	h.Total += d
	if d > h.Max {
		h.Max = d
	}
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if d >= h.Buckets[i].Lo {
			h.Buckets[i].Count++
			return
		}
	}
}

// Summary is the derived load-balance and synchronization report of one
// traced decode.
type Summary struct {
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// Span is first event start to last event end across all lanes.
	Span      time.Duration `json:"span_ns"`
	PerWorker []WorkerLoad  `json:"per_worker"`

	// ImbalanceFactor is max worker busy time over mean worker busy
	// time: 1.0 is a perfectly balanced load (the paper's Figure 6
	// quantity). 0 when no worker recorded busy time.
	ImbalanceFactor float64 `json:"imbalance_factor"`
	// SyncOverhead is the fraction of accounted worker time spent
	// blocked (queue + barrier waits) — the paper's Figure 7 quantity.
	SyncOverhead float64 `json:"sync_overhead"`

	// BarrierHist buckets individual barrier-wait spans; QueueHist the
	// task-queue starvation spans.
	BarrierHist Histogram `json:"barrier_hist"`
	QueueHist   Histogram `json:"queue_hist"`

	// Intra-slice split decode (zero unless a split source was
	// configured and tall slices were fanned out as row-segments).
	Segments     int `json:"segments"`
	VerifyHits   int `json:"verify_hits"`
	VerifyMisses int `json:"verify_misses"`

	// Pipeline lanes (zero when a batch decode produced the trace).
	ScanSpans   int           `json:"scan_spans"`
	ScanTime    time.Duration `json:"scan_ns"`
	Feeds       int           `json:"feeds"`
	FeedBlocked time.Duration `json:"feed_blocked_ns"`
	Displayed   int           `json:"displayed"`

	// Dropped mirrors the timeline's ring-wraparound loss; a non-zero
	// value means the report undercounts.
	Dropped int64 `json:"dropped"`
}

// Summary derives the report from the timeline's events.
func (tl *Timeline) Summary() *Summary {
	s := &Summary{
		Mode:        tl.Mode,
		Workers:     tl.Workers,
		Span:        tl.Span(),
		BarrierHist: newHistogram(),
		QueueHist:   newHistogram(),
		Dropped:     tl.Dropped,
	}
	loads := map[int]*WorkerLoad{}
	workerLoad := func(id int) *WorkerLoad {
		l, ok := loads[id]
		if !ok {
			l = &WorkerLoad{Worker: id}
			loads[id] = l
		}
		return l
	}
	for _, e := range tl.Events {
		d := time.Duration(e.Dur)
		switch e.Kind {
		case KindTask:
			l := workerLoad(e.Lane)
			l.Busy += d
			l.Tasks++
		case KindSegment:
			l := workerLoad(e.Lane)
			l.Busy += d
			l.Tasks++
			s.Segments++
		case KindVerify:
			if e.Slice == 1 {
				s.VerifyHits++
			} else {
				s.VerifyMisses++
			}
		case KindWait:
			workerLoad(e.Lane).QueueWait += d
			s.QueueHist.add(d)
		case KindBarrier:
			workerLoad(e.Lane).BarrierWait += d
			s.BarrierHist.add(d)
		case KindScan:
			s.ScanSpans++
			s.ScanTime += d
		case KindFeed:
			s.Feeds++
			s.FeedBlocked += d
		case KindDisplay:
			s.Displayed++
		}
	}
	maxID := -1
	for id := range loads {
		if id > maxID {
			maxID = id
		}
	}
	if n := tl.Workers; n > maxID+1 {
		maxID = n - 1 // workers that never recorded still get a row
	}
	var busySum, accountedSum, maxBusy time.Duration
	for id := 0; id <= maxID; id++ {
		l := workerLoad(id)
		accounted := l.Busy + l.QueueWait + l.BarrierWait
		if accounted > 0 {
			l.Utilization = l.Busy.Seconds() / accounted.Seconds()
		}
		busySum += l.Busy
		accountedSum += accounted
		if l.Busy > maxBusy {
			maxBusy = l.Busy
		}
		s.PerWorker = append(s.PerWorker, *l)
	}
	if busySum > 0 && len(s.PerWorker) > 0 {
		mean := busySum.Seconds() / float64(len(s.PerWorker))
		s.ImbalanceFactor = maxBusy.Seconds() / mean
	}
	if accountedSum > 0 {
		s.SyncOverhead = (accountedSum - busySum).Seconds() / accountedSum.Seconds()
	}
	return s
}

// WriteText renders the report as the human-readable table mpeg2dec and
// mpeg2bench print.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "timeline: mode %s, %d workers, span %v (%d events dropped)\n",
		s.Mode, s.Workers, s.Span.Round(time.Microsecond), s.Dropped)
	fmt.Fprintf(w, "  %-8s %-12s %-12s %-12s %6s  %s\n",
		"worker", "busy", "queue-wait", "barrier", "tasks", "util")
	for _, l := range s.PerWorker {
		fmt.Fprintf(w, "  %-8d %-12v %-12v %-12v %6d  %4.1f%%\n",
			l.Worker, l.Busy.Round(time.Microsecond), l.QueueWait.Round(time.Microsecond),
			l.BarrierWait.Round(time.Microsecond), l.Tasks, 100*l.Utilization)
	}
	fmt.Fprintf(w, "  load imbalance factor: %.3f (max busy / mean busy)\n", s.ImbalanceFactor)
	fmt.Fprintf(w, "  sync overhead: %.1f%% of accounted worker time\n", 100*s.SyncOverhead)
	writeHist(w, "barrier waits", s.BarrierHist)
	writeHist(w, "queue waits", s.QueueHist)
	if s.Segments > 0 || s.VerifyHits+s.VerifyMisses > 0 {
		fmt.Fprintf(w, "  split decode: %d segments, %d verify hits, %d misses\n",
			s.Segments, s.VerifyHits, s.VerifyMisses)
	}
	if s.Feeds > 0 || s.ScanSpans > 0 {
		fmt.Fprintf(w, "  pipeline: %d scan spans (%v), %d feeds (blocked %v), %d displayed\n",
			s.ScanSpans, s.ScanTime.Round(time.Microsecond),
			s.Feeds, s.FeedBlocked.Round(time.Microsecond), s.Displayed)
	}
}

func writeHist(w io.Writer, name string, h Histogram) {
	if h.Count == 0 {
		fmt.Fprintf(w, "  %s: none\n", name)
		return
	}
	fmt.Fprintf(w, "  %s: %d spans, total %v, max %v\n", name, h.Count,
		h.Total.Round(time.Microsecond), h.Max.Round(time.Microsecond))
	for i, b := range h.Buckets {
		if b.Count == 0 {
			continue
		}
		hi := "+"
		if i+1 < len(h.Buckets) {
			hi = fmt.Sprintf("-%v", h.Buckets[i+1].Lo)
		}
		fmt.Fprintf(w, "    %10s%-8s %d\n", fmt.Sprintf("%v", b.Lo), hi, b.Count)
	}
}
