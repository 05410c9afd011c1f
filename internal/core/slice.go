package core

import (
	"fmt"
	"sync"
	"time"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/memtrace"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
)

// picState is one picture in the 2-D task queue (first level: pictures in
// decode order; second level: that picture's slices).
type picState struct {
	rng *PictureRange
	idx int // plan index (decode order)
	// data holds the bytes rng's offsets index into: the whole stream on
	// a batch decode, the picture's own GOP buffer on the streaming path.
	data       []byte
	hdr        mpeg2.PictureHeader
	params     mpeg2.PictureParams
	displayIdx int

	fwd, bwd int // decode-order indices of reference pictures, -1 if none
	lastRef  int // most recent reference picture before this one, -1
	isRef    bool
	deps     int32 // number of later pictures that reference this one

	frame     *frame.Frame
	nextSlice int // next task to hand out
	// order, when non-nil, maps handout position to task index — the
	// scheduler's packing of this picture's tasks (LPT by default). Nil
	// means stream order. Tasks of one picture touch disjoint pixels
	// (distinct macroblock rows, or row groups), so any order is safe.
	order     []int
	nTasks    int // tasks this picture issues (slices, row groups, or one substitute)
	remaining int // tasks not yet completed
	// tasks, when non-nil, is the expanded task table of a picture with
	// at least one split slice: queue indices resolve through it to an
	// underlying slice/group or to one segment of a split slice.
	tasks []segTask
	// bounds holds the per-slice inclusive macroblock address bound
	// (sliceSpanBounds): the span a slice may legally cover before the
	// next slice's first row, which keeps concurrent slices disjoint.
	bounds   []int
	covered  []bool // macroblocks actually reconstructed
	nCovered int
	complete bool

	// Plan fields (see plan.go).
	gop       int     // index into StreamMap.GOPs
	typeKnown bool    // the coding type survived the scan
	headerOK  bool    // the full picture header parsed
	fate      picFate // decode from the bitstream or substitute
	subFrom   int     // substitution source (plan index), -1 for grey
	// shedBy, when non-zero, records that this picture's substitution
	// was load shedding (deliberate degradation), not damage.
	shedBy  ShedLevel
	holds   []int   // plan indices of frames read by this picture (released on completion)
	groups  [][]int // slice indices per macroblock-row task group
	damaged int     // slices whose parse/reconstruction failed
	resyncs int     // damaged slices recovered by a later startcode

	// unit, on the streaming path, is the in-flight GOP buffer this
	// picture decodes from; retired when its last picture completes.
	// Nil on a batch decode.
	unit *unitState
}

// sliceQueue is the shared 2-D task queue plus the synchronization the
// two slice variants differ in. A batch decode appends the full plan at
// once; the streaming path appends pictures as the scan discovers them.
// Either way the queue closes at end of stream.
type sliceQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pics     []*picState
	pool     *frame.Pool
	issueIdx int // first picture whose slices are not fully handed out
	improved bool
	// depth bounds how far the pipeline may run ahead of the oldest
	// incomplete picture. Without it a single straggling slice lets the
	// improved variant buffer an unbounded number of decoded pictures —
	// flow control the paper's fixed-speed processors never needed.
	depth  int
	failed bool
	closed bool // no more pictures will be appended

	// workers and affinity configure row→worker task steering (see
	// Affinity). With affinity on, take prefers handing worker wi a task
	// whose row ≡ wi (mod workers), falling back to the head task so no
	// worker ever idles while work exists.
	workers  int
	affinity Affinity

	// obs, when non-nil, receives a queue-wait or barrier-wait event for
	// every blocked take (classified by what the worker was blocked on).
	obs *obs.Tracer
}

// append adds pictures to the tail of the queue (streaming path: the
// scan process feeding tasks as it discovers them).
func (q *sliceQueue) append(ps []*picState) {
	q.mu.Lock()
	q.pics = append(q.pics, ps...)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// snapshot returns the current picture list. Streaming workers resolve
// absolute reference indices through it: elements below len(pics) are
// fully initialized before append publishes them, and a reallocated
// backing array never invalidates a previously returned snapshot.
func (q *sliceQueue) snapshot() []*picState {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pics
}

// close marks the queue complete: workers drain what remains and exit.
func (q *sliceQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// open reports whether the picture at issueIdx may start issuing slices.
func (q *sliceQueue) open(i int) bool {
	p := q.pics[i]
	if q.depth > 0 && i >= q.depth && !q.pics[i-q.depth].complete {
		return false // pipeline-depth flow control
	}
	if q.improved {
		// Improved version: wait only for the last reference picture.
		return p.lastRef < 0 || q.pics[p.lastRef].complete
	}
	// Simple version: barrier after every picture.
	return i == 0 || q.pics[i-1].complete
}

// take blocks until a slice task is available (returning picture and
// slice index) or the queue is exhausted/failed (ok=false). The caller
// receives the time spent waiting; wi identifies the taking worker for
// the wait events take records (a block on a not-yet-open picture is a
// barrier wait, a block on an empty queue is starvation).
func (q *sliceQueue) take(wi int) (p *picState, slice int, wait time.Duration, ok bool) {
	t0 := time.Now()
	barrier := false
	record := func(w time.Duration) {
		if q.obs != nil {
			kind := obs.KindWait
			if barrier {
				kind = obs.KindBarrier
			}
			q.obs.Record(kind, wi, t0, w, -1, -1, -1)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.failed {
			wait = time.Since(t0)
			record(wait)
			return nil, 0, wait, false
		}
		// Skip over fully-issued pictures.
		for q.issueIdx < len(q.pics) && q.pics[q.issueIdx].nextSlice >= q.pics[q.issueIdx].nTasks {
			q.issueIdx++
		}
		if q.issueIdx >= len(q.pics) {
			if q.closed {
				wait = time.Since(t0)
				record(wait)
				return nil, 0, wait, false
			}
			q.cond.Wait() // more pictures may still be appended
			continue
		}
		if q.open(q.issueIdx) {
			p = q.pics[q.issueIdx]
			if p.frame == nil {
				// Lazy allocation keeps live frames to the in-flight
				// pictures plus references — the memory property the
				// slice approach exists for. Retains: 1 for display plus
				// one per picture that will reference this one.
				newPlanFrame(q.pool, p)
			}
			slice = q.pickTask(p, wi)
			p.nextSlice++
			wait = time.Since(t0)
			record(wait)
			return p, slice, wait, true
		}
		// A task exists but its picture is gated on the barrier
		// discipline (or pipeline depth): synchronization, not starvation.
		barrier = true
		q.cond.Wait()
	}
}

// pickTask chooses which of p's unissued tasks worker wi receives (the
// caller holds q.mu and advances p.nextSlice). Without affinity this is
// the packed head task. With row affinity the remaining tasks are
// scanned for one whose row ≡ wi (mod workers); a match is swapped to
// the head position so every task is still handed out exactly once, and
// a miss degrades to the head task (work conservation). The scan is
// O(tasks-per-picture) per take — a few dozen rows — and runs only on
// multi-worker affinity queues.
func (q *sliceQueue) pickTask(p *picState, wi int) int {
	head := p.nextSlice
	taskAt := func(pos int) int {
		if p.order != nil {
			return p.order[pos]
		}
		return pos
	}
	if q.affinity == AffinityRow && q.workers > 1 {
		for pos := head; pos < p.nTasks; pos++ {
			r := taskRow(p, taskAt(pos))
			if r >= 0 && r%q.workers == wi {
				if pos != head {
					if p.order == nil {
						// Materialize the identity order so positions
						// can swap.
						p.order = make([]int, p.nTasks)
						for i := range p.order {
							p.order[i] = i
						}
					}
					p.order[head], p.order[pos] = p.order[pos], p.order[head]
				}
				break
			}
		}
	}
	return taskAt(head)
}

func (q *sliceQueue) fail() {
	q.mu.Lock()
	q.failed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// finish records one completed task of p (and which macroblocks it
// reconstructed) and reports whether it was the picture's last. The
// picture is NOT yet marked complete: the finishing worker still owns the
// frame for completion work (concealing missing macroblocks) and must
// call completePic afterwards — publishing completeness first would let
// dependent pictures read the frame while concealment writes it.
func (q *sliceQueue) finish(p *picState, addrs []int) bool {
	q.mu.Lock()
	if p.covered == nil {
		p.covered = make([]bool, p.params.MBWidth*p.params.MBHeight)
	}
	for _, a := range addrs {
		if a >= 0 && a < len(p.covered) && !p.covered[a] {
			p.covered[a] = true
			p.nCovered++
		}
	}
	p.remaining--
	done := p.remaining == 0
	q.mu.Unlock()
	return done
}

// completePic publishes p as complete, waking pictures that wait on it.
// Call only after finish returned true and all completion-time writes to
// the frame are done.
func (q *sliceQueue) completePic(p *picState) {
	q.mu.Lock()
	p.complete = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// missing returns the addresses of macroblocks never reconstructed (call
// only after the picture completed).
func (q *sliceQueue) missing(p *picState) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	total := p.params.MBWidth * p.params.MBHeight
	if p.nCovered == total {
		return nil
	}
	var out []int
	for a := 0; a < total; a++ {
		if p.covered == nil || !p.covered[a] {
			out = append(out, a)
		}
	}
	return out
}

// concealMBs fills the listed macroblock addresses of p's frame by
// temporal concealment.
func concealMBs(pics []*picState, p *picState, addrs []int) {
	var ref *frame.Frame
	if p.fwd >= 0 {
		ref = pics[p.fwd].frame
	} else if p.bwd >= 0 {
		ref = pics[p.bwd].frame
	}
	mbw := p.params.MBWidth
	for _, a := range addrs {
		decoder.ConcealMB(p.frame, ref, a%mbw, a/mbw)
	}
}

// Scratch is one worker's reusable decode state: a bit reader, a
// macroblock buffer and a coverage address list, recycled across every
// slice the worker decodes so the steady-state loop is allocation-free.
// Each pool worker owns one and passes it to every Session.Run call.
type Scratch struct {
	r     bits.Reader
	mbs   []mpeg2.MB
	addrs []int
}

// picRefs resolves a picture's prediction reference frames.
func picRefs(pics []*picState, p *picState) decoder.Refs {
	refs := decoder.Refs{}
	if p.fwd >= 0 {
		refs.Fwd = pics[p.fwd].frame
	}
	if p.bwd >= 0 {
		refs.Bwd = pics[p.bwd].frame
	}
	return refs
}

// decodeSliceRange parses and reconstructs the slice at sr into dst,
// reading only the bytes the scan attributed to it — a corrupted slice
// can therefore never run past its startcode-delimited range, which is
// what makes mid-slice resync deterministic. maxAddr is the inclusive
// macroblock address bound of the slice's span (sliceSpanBounds), so a
// corrupted slice can also never write pixels another concurrently
// decoding slice owns. The returned addresses alias scr.addrs and are
// valid until the next call with the same scr.
func decodeSliceRange(data []byte, seq *mpeg2.SequenceHeader, hdr *mpeg2.PictureHeader, params *mpeg2.PictureParams, sr SliceRange, maxAddr int, refs decoder.Refs, dst *frame.Frame, wi int, tr memtrace.Tracer, scr *Scratch) (decoder.WorkStats, []int, error) {
	scr.r.Reset(data[:sr.End])
	scr.r.SeekBit(int64(sr.Offset) * 8)
	code, err := scr.r.ReadStartCode()
	if err != nil {
		return decoder.WorkStats{}, nil, err
	}
	ds, err := mpeg2.DecodeSliceBounded(&scr.r, params, int(code)-1, maxAddr, scr.mbs)
	scr.mbs = ds.MBs // keep the grown buffer for the next slice
	if err != nil {
		return decoder.WorkStats{}, nil, fmt.Errorf("core: slice row %d: %w", int(code)-1, err)
	}
	work, err := decoder.ReconSlice(seq, hdr, refs, dst, &ds, wi, tr)
	if err != nil {
		return work, nil, err
	}
	scr.addrs = scr.addrs[:0]
	for i := range ds.MBs {
		scr.addrs = append(scr.addrs, ds.MBs[i].Addr)
	}
	return work, scr.addrs, nil
}
