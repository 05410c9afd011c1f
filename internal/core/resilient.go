package core

import (
	"fmt"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
)

// newPlanFrame allocates and tags the output frame of one planned
// picture, storing it in the picState. Retains: 1 for the display
// process plus one per holder (pictures that predict from, or substitute
// from, this frame).
func newPlanFrame(pool *frame.Pool, p *picState) {
	f := pool.Get()
	f.Retain(1 + p.deps)
	f.PictureType = "?IPB"[int(p.hdr.Type)]
	f.TemporalRef = p.hdr.TemporalReference
	p.frame = f
}

// substitutePic fills a substituted picture's frame with a copy of its
// substitution source, mid-grey when it has none.
func substitutePic(pics []*picState, p *picState) {
	var src *frame.Frame
	if p.subFrom >= 0 {
		src = pics[p.subFrom].frame
	}
	if !p.frame.CopyPixelsFrom(src) {
		p.frame.Fill(128)
	}
}

// decodePlanPic decodes or substitutes one planned picture into its
// frame on a single worker (the GOP-grain and sequential executors).
// pics is the planned picture list — for streaming callers, a snapshot
// long enough to cover this picture's references, whose frames (and the
// substitution source's) must be complete. With assist > 1, every slice
// the split source (index or speculation) can cut into row segments is
// decoded by up to assist goroutines through the verify-or-fallback
// chain; coverage, damage accounting and concealment are identical
// either way, so output never depends on assist.
func decodePlanPic(seq *mpeg2.SequenceHeader, pics []*picState, idx, wi int, opt Options, scr *Scratch, assist int, sst *SplitStats) (decoder.WorkStats, ErrorStats, error) {
	p := pics[idx]
	f := p.frame
	var work decoder.WorkStats
	var es ErrorStats
	if p.fate == fateSubstitute {
		substitutePic(pics, p)
		return work, es, nil
	}
	refs := picRefs(pics, p)
	total := p.params.MBWidth * p.params.MBHeight
	covered := make([]bool, total)
	nCovered := 0
	last := len(p.rng.Slices) - 1
	optSplit := opt
	optSplit.SplitParts = assist
	for _, group := range p.groups {
		for _, si := range group {
			sr := p.rng.Slices[si]
			bound := p.sliceBound(si)
			var w decoder.WorkStats
			var addrs []int
			var err error
			var j *splitJoin
			if assist > 1 {
				j = newSplitJoin(p.data, &p.params, si, sr, bound, optSplit, &scr.mbs)
			}
			if j != nil {
				w, addrs, err = runSegmentsAssist(seq, p, j, refs, f, wi, opt, scr, sst, assist)
			} else {
				w, addrs, err = decodeSliceRange(p.data, seq, &p.hdr, &p.params, sr, bound, refs, f, wi, opt.Tracer, scr)
			}
			work.Add(w)
			if err != nil {
				if opt.Resilience == FailFast {
					return work, es, err
				}
				es.DamagedSlices++
				if si != last {
					es.Resyncs++
				}
				continue
			}
			for _, a := range addrs {
				if a >= 0 && a < total && !covered[a] {
					covered[a] = true
					nCovered++
				}
			}
		}
	}
	if nCovered != total {
		if opt.Resilience == FailFast {
			return work, es, fmt.Errorf("core: picture at display %d covered %d of %d macroblocks", p.displayIdx, nCovered, total)
		}
		var miss []int
		for a := 0; a < total; a++ {
			if !covered[a] {
				miss = append(miss, a)
			}
		}
		concealMBs(pics, p, miss)
		es.ConcealedMBs += len(miss)
	}
	return work, es, nil
}

// runPlanSliceTask executes task ti of planned picture p: the single
// substitution step of a dropped picture, one macroblock-row group of
// slices, or one segment of a split slice. Damage is tallied into es and
// split activity into sst; reconstructed macroblock addresses are
// appended to taskAddrs. A non-nil error is only possible under
// FailFast.
func runPlanSliceTask(seq *mpeg2.SequenceHeader, pics []*picState, p *picState, ti, wi int, opt Options, scr *Scratch, work *decoder.WorkStats, es *ErrorStats, sst *SplitStats, taskAddrs *[]int) error {
	if p.fate == fateSubstitute {
		substitutePic(pics, p)
		return nil
	}
	refs := picRefs(pics, p)
	last := len(p.rng.Slices) - 1
	gi, j, seg := p.taskAt(ti)
	if j != nil {
		// A segment of a split slice. Only the join's (fallback) error is
		// authoritative — a failed segment alone proves nothing about the
		// slice, so per-segment errors stay inside the join state.
		w, addrs, err := runSegment(seq, &p.hdr, &p.params, p.data, refs, p.frame, j, seg, wi, opt, opt.Tracer, scr, sst)
		work.Add(w)
		if err != nil {
			if opt.Resilience == FailFast {
				return err
			}
			es.DamagedSlices++
			if j.si != last {
				es.Resyncs++
			}
			return nil
		}
		*taskAddrs = append(*taskAddrs, addrs...)
		return nil
	}
	for _, si := range p.groups[gi] {
		w, addrs, err := decodeSliceRange(p.data, seq, &p.hdr, &p.params, p.rng.Slices[si], p.sliceBound(si), refs, p.frame, wi, opt.Tracer, scr)
		work.Add(w)
		if err != nil {
			if opt.Resilience == FailFast {
				return err
			}
			es.DamagedSlices++
			if si != last {
				es.Resyncs++
			}
			continue
		}
		*taskAddrs = append(*taskAddrs, addrs...)
	}
	return nil
}
