package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rtrace "runtime/trace"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
	"mpeg2par/internal/sched"
	"mpeg2par/internal/vlc"
)

// Unit is one group of pictures handed from the streaming scanner to the
// executor: an owned copy of the group's bytes (so the scan window can
// slide on) with the scanned range rebased to that copy.
type Unit struct {
	G    int    // group index, in stream order
	Base int    // absolute stream offset of Data[0]
	Data []byte // the group's bytes, owned by the unit
	// Range is the group's scanned structure with every offset rebased
	// into Data (Range.Offset is 0 when the group starts the buffer).
	Range GOPRange
	// Seq is the sequence header in force when the group closed. The
	// scan rejects (strict) or ignores (lenient) mid-stream geometry
	// changes, so every unit of a stream carries the same header.
	Seq mpeg2.SequenceHeader
}

// ShedSavings returns the compressed bytes a shed level would avoid
// decoding from this unit: the B pictures' bytes for ShedB, B plus P
// bytes for ShedRef (substitution itself costs ~nothing). The service's
// slack predictor converts it through the cost model into the time a
// per-frame shed would buy back for an already-doomed unit.
func (u *Unit) ShedSavings(l ShedLevel) int64 {
	if l == ShedNone {
		return 0
	}
	var b int64
	for i := range u.Range.Pictures {
		p := &u.Range.Pictures[i]
		if p.Type == vlc.CodingB || (l >= ShedRef && p.Type == vlc.CodingP) {
			b += int64(p.End - p.Offset)
		}
	}
	return b
}

// unitState tracks one in-flight unit: its buffered bytes stay charged
// against the pipeline gauge, and its window slot stays occupied,
// until the last picture decoded from it completes.
type unitState struct {
	exec      *StreamExecutor
	bytes     int64
	remaining int32 // pictures (or whole-group tasks) not yet completed
}

// retire records one completed picture; the last one releases the
// unit's bytes and its window slot, unblocking the scan process. A nil
// unit (a batch decode has none) retires nothing.
func (u *unitState) retire() {
	if u == nil || atomic.AddInt32(&u.remaining, -1) != 0 {
		return
	}
	e := u.exec
	e.mu.Lock()
	e.unitBytes -= u.bytes
	e.mu.Unlock()
	e.s.Release()
}

// StreamExecutor is a Session plus a private worker pool: GOP-grain
// workers calling the same Session.Run the service's shared pool calls,
// or slice-grain workers over the plan's 2-D picture/slice queue. On the
// streaming path the scanner Feeds it groups of pictures as they are
// discovered, long before the stream has been fully read; a batch
// decode (DecodeScanned) plans the whole stream through the session and
// hands the plan over at once. Beyond the session it holds only what a
// private pool needs: the ModeAuto tuner and gate, the in-flight byte
// gauges, and Profile.
//
// Feed and Finish must be called from a single goroutine (the scan
// process); the workers it starts are internal. A streaming decode is
// bit-identical to a batch decode in every mode and policy because both
// execute plans grown by the same planBuilder over the same scan.
type StreamExecutor struct {
	ctx context.Context
	s   *Session

	gopTasks chan *SessionTask // ModeGOP / ModeSequential intake
	q        *sliceQueue       // slice-mode intake

	// Online auto-tuning (ModeAuto only). The tuner collects busy/wait
	// from the workers; Feed re-evaluates it at every GOP boundary and
	// the gate parks workers above the resulting limit.
	tuner *sched.Tuner
	gate  *workerGate

	mu        sync.Mutex
	winBytes  int64 // scanner window bytes (AdjustBuffered)
	unitBytes int64 // live unit bytes
	peakBytes int64
	leadPeak  int

	wg sync.WaitGroup
}

// NewStreamExecutor prepares a streaming executor. Workers start lazily
// at the first Feed (the frame geometry arrives with the first unit).
// ModeSequential runs on one worker regardless of Options.Workers,
// preserving the batch sequential baseline's decode order.
func NewStreamExecutor(ctx context.Context, opt Options) (*StreamExecutor, error) {
	e, err := newExecutor(ctx, opt)
	if err == nil && opt.Profile {
		return nil, badOption("Profile requires the batch decoder")
	}
	return e, err
}

// newExecutor validates opt and prepares an executor for either intake.
// Its session scrubs recycled frames iff the policy is not FailFast:
// only concealment and substitution ship pixels no slice wrote.
func newExecutor(ctx context.Context, opt Options) (*StreamExecutor, error) {
	s, err := newSession(opt, opt.Resilience != FailFast)
	if err != nil {
		return nil, err
	}
	switch opt.Mode {
	case ModeGOP, ModeSliceSimple, ModeSliceImproved, ModeSequential:
	case ModeAuto:
		// Resolved at the first Feed, when the first group's geometry is
		// known; Options.Workers is the ceiling the policy chooses under.
	default:
		return nil, badOption("Mode=%d (unknown mode)", int(opt.Mode))
	}
	return &StreamExecutor{ctx: ctx, s: s}, nil
}

// start spins up the private pool over the session's plan. gopCap sizes
// the GOP-task queue: the in-flight window on the streaming path (each
// queued task holds a window slot, so a send never blocks), the planned
// group count on a batch decode. The run's wall clock starts here, so a
// batch decode's up-front planning is excluded, like its scan.
func (e *StreamExecutor) start(gopCap int) {
	s := e.s
	s.wallStart = time.Now()
	workers := s.opt.EffectiveWorkers()
	s.st.WorkerStats = make([]WorkerStats, workers)
	s.opt.Obs.SetMeta(s.opt.Mode.String(), workers)
	if s.opt.Mode.sliceGrain() {
		e.q = &sliceQueue{
			improved: s.opt.Mode == ModeSliceImproved,
			pool:     s.pool,
			depth:    s.opt.Workers + 4,
			obs:      s.opt.Obs,
			workers:  s.opt.Workers,
			affinity: s.opt.Affinity,
		}
		e.q.cond = sync.NewCond(&e.q.mu)
		for wi := 0; wi < workers; wi++ {
			e.wg.Add(1)
			go e.sliceWorker(wi)
		}
		return
	}
	e.gopTasks = make(chan *SessionTask, gopCap)
	for wi := 0; wi < workers; wi++ {
		e.wg.Add(1)
		go e.gopWorker(wi)
	}
}

// runBatch executes a whole scanned stream: every scanned group is
// planned through the session up front, and the plan reaches the same
// workers, display process and teardown as the streaming intake in one
// call — GOP tasks queued in packed order (stream order for the
// sequential baseline), or every picture appended to the slice queue,
// which Finish then closes. A batch decode holds no window slots, so
// the window and unit gauges stay zero.
func (e *StreamExecutor) runBatch(data []byte, m *StreamMap) (*Stats, error) {
	s := e.s
	s.start(&m.Seq)
	var tasks []*SessionTask
	for g := range m.GOPs {
		t, err := s.Feed(Unit{G: g, Data: data, Range: m.GOPs[g]})
		if err != nil {
			return nil, err
		}
		if t != nil {
			tasks = append(tasks, t)
		}
	}
	pics := s.pb.pl.pics
	if s.opt.Profile && s.opt.Mode.sliceGrain() {
		s.st.SliceProf = make([]PicProfile, len(pics))
		for i, p := range pics {
			s.st.SliceProf[i] = PicProfile{
				Ref:        p.isRef,
				Type:       "?IPB"[int(p.hdr.Type)],
				SliceCosts: make([]time.Duration, p.nTasks),
				DisplayIdx: p.displayIdx,
			}
		}
	} else if s.opt.Profile {
		s.st.GOPCosts = make([]TaskCost, len(m.GOPs))
	}
	e.start(len(tasks))
	if e.q != nil {
		e.q.append(pics)
		return e.Finish(nil)
	}
	costs := make([]int64, len(tasks))
	for i, t := range tasks {
		costs[i] = t.bytes
	}
	var order []int
	if s.opt.Mode != ModeSequential {
		order = packOrder(costs, s.opt.Packing, s.opt.PackSeed)
	}
	for i := range tasks {
		if order != nil {
			i = order[i]
		}
		e.gopTasks <- tasks[i]
	}
	return e.Finish(nil)
}

// resolveAuto picks the mode and worker count for an auto-tuned
// pipeline from the first group's geometry, projected across the
// in-flight window (a single group in isolation would always look
// like a slice-grain workload). The chosen worker count becomes the
// online tuner's ceiling; the gate parks workers it tunes away. The
// mode is fixed for the rest of the stream (only the worker limit
// adapts online).
func (e *StreamExecutor) resolveAuto(u *Unit) {
	s := e.s
	g := projectGeometry(autoGeometry([]GOPRange{u.Range}), cap(s.window))
	c := sched.Choose(g, s.opt.Workers, s.opt.Cost)
	s.opt.Mode = modeOfHint(c.Mode)
	s.opt.Workers = c.Workers
	workers := s.opt.EffectiveWorkers()
	s.st.Mode = s.opt.Mode
	s.st.Workers = workers
	s.st.Auto = &AutoDecision{
		Mode:             s.opt.Mode,
		Workers:          workers,
		Reason:           c.Reason + " (projected from first group)",
		FinalWorkerLimit: workers,
	}
	if workers > 1 {
		e.tuner = sched.NewTuner(workers, workers)
		e.gate = newWorkerGate(workers)
	}
}

// Feed hands one scanned group of pictures to the workers. It blocks
// while the in-flight window is full (backpressure against the scan
// process) and returns early with the context's error on cancellation,
// or with the first worker error once one is latched.
func (e *StreamExecutor) Feed(u Unit) error {
	s := e.s
	feedStart := time.Now()
	if err := s.Acquire(e.ctx); err != nil {
		return err
	}
	s.opt.Obs.Record(obs.KindFeed, obs.LaneScan, feedStart, time.Since(feedStart), u.G, -1, -1)
	if !s.started {
		// The first group's geometry resolves ModeAuto before the
		// session arms its plan builder for the chosen grain.
		if s.opt.Mode == ModeAuto {
			e.resolveAuto(&u)
		}
		s.start(&u.Seq)
		e.start(cap(s.window))
	}
	us := &unitState{exec: e, bytes: int64(len(u.Data))}
	e.mu.Lock()
	e.unitBytes += us.bytes
	if t := e.unitBytes + e.winBytes; t > e.peakBytes {
		e.peakBytes = t
	}
	e.mu.Unlock()

	t, err := s.Feed(u)
	if err != nil {
		return err
	}
	if e.tuner != nil {
		// GOP boundary: close the utilization window and move the
		// active-worker limit at most one step. Feed is the single scan
		// goroutine, as Reevaluate requires.
		if lim, changed := e.tuner.Reevaluate(); changed {
			e.gate.setLimit(lim)
			s.st.Auto.FinalWorkerLimit = lim
		}
		s.st.Auto.Reevals++
	}
	switch {
	case t == nil:
		// Empty or policy-dropped group: nothing will decode from the
		// unit, release it immediately.
		us.remaining = 1
		us.retire()
	case e.q != nil:
		ps := t.pics[t.first:]
		us.remaining = int32(len(ps))
		for _, p := range ps {
			p.unit = us
		}
		e.q.append(ps)
	default:
		us.remaining = 1
		t.unit = us
		e.gopTasks <- t
	}
	return nil
}

// AdjustBuffered charges (or releases) scanner window bytes against the
// pipeline's in-flight gauge.
func (e *StreamExecutor) AdjustBuffered(delta int64) {
	e.mu.Lock()
	e.winBytes += delta
	if t := e.unitBytes + e.winBytes; t > e.peakBytes {
		e.peakBytes = t
	}
	e.mu.Unlock()
}

// NoteScanned samples the scan-lead gauge: how far the scan process has
// run ahead of the display process, in pictures.
func (e *StreamExecutor) NoteScanned(pictures int) {
	lead := pictures - e.s.Displayed()
	e.mu.Lock()
	if lead > e.leadPeak {
		e.leadPeak = lead
	}
	e.mu.Unlock()
}

// Finish closes the intake, joins the workers, and completes the run
// through Session.Finish. scanErr is the scan side's verdict (nil on a
// clean end of stream, the context's error on cancellation); any error
// — from either side — switches Finish into teardown, reclaiming every
// planned frame. Stats are returned in both cases.
func (e *StreamExecutor) Finish(scanErr error) (*Stats, error) {
	// Latch the scan side's verdict so workers drain queued tasks
	// instead of decoding them after a cancellation.
	e.s.Abort(scanErr)
	if e.q != nil {
		if scanErr != nil {
			e.q.fail()
		}
		e.q.close()
	} else if e.gopTasks != nil {
		close(e.gopTasks)
	}
	e.gate.close() // wake parked workers so they can drain and exit
	e.wg.Wait()
	if e.tuner != nil {
		e.s.st.Auto.FinalWorkerLimit = e.tuner.Limit()
	}
	st, err := e.s.Finish(scanErr)
	e.mu.Lock()
	st.PeakInFlightBytes = e.peakBytes
	st.ScanLeadPeak = e.leadPeak
	e.mu.Unlock()
	return st, err
}

// gopWorker is the coarse-grained worker: one task decodes a whole
// group of pictures through Session.Run (with one worker, in the
// sequential baseline's order).
func (e *StreamExecutor) gopWorker(wi int) {
	defer e.wg.Done()
	s := e.s
	obs.Do(s.opt.Mode.String(), wi, func() {
		ws := &s.st.WorkerStats[wi]
		var scr Scratch
		for {
			e.gate.enter(wi)
			t0 := time.Now()
			t, ok := <-e.gopTasks
			wait := time.Since(t0)
			ws.Wait += wait
			e.tuner.NoteWait(wait)
			s.opt.Obs.Record(obs.KindWait, wi, t0, wait, -1, -1, -1)
			if !ok {
				return
			}
			if s.Err() == nil {
				t1 := time.Now()
				err := s.Run(t, wi, &scr)
				cost := time.Since(t1)
				ws.Busy += cost
				ws.Tasks++
				if err == nil {
					e.tuner.NoteTask(cost)
				}
			}
			t.unit.retire()
		}
	})
}

// sliceWorker is the fine-grained worker over the 2-D task queue. On
// the streaming path the queue grows while the scan runs, and each
// completed picture retires its share of the unit that carried its
// bytes.
func (e *StreamExecutor) sliceWorker(wi int) {
	defer e.wg.Done()
	s := e.s
	obs.Do(s.opt.Mode.String(), wi, func() {
		ws := &s.st.WorkerStats[wi]
		var scr Scratch
		var taskAddrs []int
		for {
			e.gate.enter(wi)
			p, ti, wait, ok := e.q.take(wi)
			ws.Wait += wait
			e.tuner.NoteWait(wait)
			if !ok {
				return
			}
			pics := e.q.snapshot()
			t0 := time.Now()
			reg := rtrace.StartRegion(context.Background(), "mpeg2par.sliceTask")
			var work decoder.WorkStats
			var es ErrorStats
			var sst SplitStats
			taskAddrs = taskAddrs[:0]
			err := runPlanSliceTask(&s.seq, pics, p, ti, wi, s.opt, &scr, &work, &es, &sst, &taskAddrs)
			reg.End()
			cost := time.Since(t0)
			ws.Busy += cost
			ws.Tasks++
			e.tuner.NoteTask(cost)
			kind := obs.KindTask
			if _, j, _ := p.taskAt(ti); j != nil {
				kind = obs.KindSegment
			}
			s.opt.Obs.Record(kind, wi, t0, cost, p.gop, p.displayIdx, ti)
			if p.fate == fateDecode {
				s.opt.Cost.Observe(taskBytes(p, ti), cost)
			}
			if err != nil { // only possible under FailFast
				s.Abort(err)
				e.q.fail()
				return
			}
			if e.q.finish(p, taskAddrs) {
				if p.fate == fateDecode {
					if miss := e.q.missing(p); len(miss) > 0 {
						if s.opt.Resilience == FailFast {
							total := p.params.MBWidth * p.params.MBHeight
							s.Abort(fmt.Errorf("core: picture at display %d covered %d of %d macroblocks",
								p.displayIdx, total-len(miss), total))
							e.q.fail()
							return
						}
						concealMBs(pics, p, miss)
						es.ConcealedMBs += len(miss)
					}
				}
				e.q.completePic(p)
				for _, ri := range p.holds {
					if pics[ri].frame.Release() {
						s.pool.Put(pics[ri].frame)
					}
				}
				s.disp.push(p.frame, p.displayIdx)
				p.unit.retire()
			}
			s.workMu.Lock()
			s.st.Work.Add(work)
			s.st.Errors.Add(es)
			s.st.Split.Add(sst)
			if s.opt.Profile {
				s.st.SliceProf[p.idx].SliceCosts[ti] = cost
			}
			s.workMu.Unlock()
		}
	})
}
