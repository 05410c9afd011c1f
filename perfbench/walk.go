package main

import (
	"bytes"
	"fmt"
	"time"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/dct"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/motion"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/quant"
	"mpeg2par/internal/stream"
	"mpeg2par/internal/vlc"
)

// walkPasses is how many times the traced layer walk decodes the
// workload's distinct GOPs; fixed, so its work counts repeat exactly.
const walkPasses = 4

// Layer span names of the walk.
const (
	spanWalk   = "walk"
	spanScan   = "stream.scan"
	spanHeader = "mpeg2.header"
	spanVLD    = "mpeg2.vld"
	spanRecon  = "decoder.recon"
	spanIQ     = "quant.iq"
	spanIDCT   = "dct.idct"
	spanMC     = "motion.mc"
)

// walkResult is the layer walk's output: the work the decoder reported,
// the replayed kernels' operation counts, and the bytes scanned.
type walkResult struct {
	work      decoder.WorkStats
	scanBytes int
	iqBlocks  int // blocks dequantized and inverse-transformed by the replay
	mcMBs     int // macroblocks predicted by the replay
	pictures  int
}

// replayBlock is one coded block the replay dequantizes and transforms.
type replayBlock struct {
	blk     [64]int32
	rowMask uint8
	dcOnly  bool
}

// walkSink keeps the replayed kernels' outputs observable.
var walkSink uint32

// walk decodes the stream of set's GOPs in order on the calling
// goroutine, one public layer call at a time, timing each call as a
// span: stream.ScanReader, then per picture mpeg2.ParsePictureHeader,
// and per slice mpeg2.DecodeSliceInto and decoder.ReconSlice, followed
// by a replay of the slice's inverse quantisation, IDCT and motion
// compensation through quant.InverseSparse, dct.InverseSparse and
// motion.PredictMB/AverageMB. Every reconstructed picture must match
// the oracle.
func walk(rec *spanRec, set *gopSet, order []int, streamID int, res *walkResult) error {
	data := set.stream(order)
	root := rec.begin(spanWalk, -1, streamID)
	defer rec.end(root)

	sp := rec.begin(spanScan, root, streamID)
	m, err := stream.ScanReader(bytes.NewReader(data), 0, false)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("walk scan: %w", err)
	}
	res.scanBytes += len(data)
	if len(m.GOPs) != len(order) {
		return fmt.Errorf("walk scan: %d GOPs, want %d", len(m.GOPs), len(order))
	}
	seq := m.Seq
	r := bits.NewReader(data)
	var mbs []mpeg2.MB
	var blocks []replayBlock
	var pred, pred2 motion.MBPred
	for gi, g := range m.GOPs {
		var refOld, refNew *frame.Frame // closed GOP: no references across
		for _, p := range g.Pictures {
			r.SeekBit(int64(p.Offset+4) * 8)
			sp := rec.begin(spanHeader, root, streamID)
			ph, err := mpeg2.ParsePictureHeader(r)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("walk picture header: %w", err)
			}
			params := decoder.PictureParams(&seq, &ph)
			dst := frame.New(seq.Width, seq.Height)
			refs := decoder.Refs{}
			switch ph.Type {
			case vlc.CodingP:
				refs.Fwd = refNew
			case vlc.CodingB:
				refs.Fwd, refs.Bwd = refOld, refNew
			}
			for _, s := range p.Slices {
				r.SeekBit(int64(s.Offset+4) * 8)
				sp := rec.begin(spanVLD, root, streamID)
				ds, err := mpeg2.DecodeSliceInto(r, &params, s.Row, mbs)
				rec.end(sp)
				mbs = ds.MBs
				if err != nil {
					return fmt.Errorf("walk slice %d: %w", s.Row, err)
				}
				sp = rec.begin(spanRecon, root, streamID)
				w, err := decoder.ReconSlice(&seq, &ph, refs, dst, &ds, 0, nil)
				rec.end(sp)
				if err != nil {
					return fmt.Errorf("walk recon %d: %w", s.Row, err)
				}
				res.work.Add(w)
				blocks = replayIQ(rec, root, streamID, &seq, &ph, ds.MBs, blocks[:0], res)
				replayIDCT(rec, root, streamID, blocks)
				replayMC(rec, root, streamID, &ph, refs, seq.MBWidth(), ds.MBs, &pred, &pred2, res)
			}
			res.pictures++
			if got, want := frameCRC(dst), set.gops[order[gi]].crc[ph.TemporalReference]; got != want {
				return fmt.Errorf("walk GOP %d picture %d differs from the oracle", gi, ph.TemporalReference)
			}
			if ph.Type != vlc.CodingB {
				refOld, refNew = refNew, dst
			}
		}
	}
	return nil
}

// replayIQ dequantizes every coded block of the slice, as ReconSlice
// does, into blocks for the IDCT replay.
func replayIQ(rec *spanRec, root, streamID int, seq *mpeg2.SequenceHeader, ph *mpeg2.PictureHeader, mbs []mpeg2.MB, blocks []replayBlock, res *walkResult) []replayBlock {
	sp := rec.begin(spanIQ, root, streamID)
	for i := range mbs {
		mb := &mbs[i]
		scale := quant.Scale(mb.QScaleCode, ph.QScaleType)
		p := quant.Params{Matrix: &seq.NonIntraMatrix, Scale: scale}
		if mb.Type.Intra {
			p = quant.Params{Matrix: &seq.IntraMatrix, Scale: scale, Intra: true, DCPrecision: ph.IntraDCPrecision}
		}
		for b := 0; b < 6; b++ {
			if !mb.Type.Intra && mb.CBP&(1<<uint(5-b)) == 0 {
				continue
			}
			nz := 64
			if mb.SparseValid {
				nz = int(mb.NNZ[b])
			}
			blocks = append(blocks, replayBlock{blk: mb.Blocks[b]})
			rb := &blocks[len(blocks)-1]
			rb.rowMask, rb.dcOnly = quant.InverseSparse(&rb.blk, p, nz)
		}
	}
	rec.end(sp)
	res.iqBlocks += len(blocks)
	return blocks
}

// replayIDCT inverse-transforms the dequantized blocks in place.
func replayIDCT(rec *spanRec, root, streamID int, blocks []replayBlock) {
	sp := rec.begin(spanIDCT, root, streamID)
	for i := range blocks {
		dct.InverseSparse(&blocks[i].blk, blocks[i].rowMask, blocks[i].dcOnly)
	}
	rec.end(sp)
	var x uint32
	for i := range blocks {
		x ^= uint32(blocks[i].blk[i&63])
	}
	walkSink ^= x
}

// replayMC forms every predicted macroblock's prediction, as ReconSlice
// does, from the picture's references.
func replayMC(rec *spanRec, root, streamID int, ph *mpeg2.PictureHeader, refs decoder.Refs, mbw int, mbs []mpeg2.MB, pred, pred2 *motion.MBPred, res *walkResult) {
	if ph.Type == vlc.CodingI {
		return
	}
	predict := func(dst *motion.MBPred, ref *frame.Frame, mb *mpeg2.MB, mv, mv2 motion.MV, sel [2]bool) {
		if mb.FieldMotion {
			motion.PredictMBField(dst, ref, mb.Addr%mbw, mb.Addr/mbw, sel, mv, mv2)
			return
		}
		motion.PredictMB(dst, ref, mb.Addr%mbw, mb.Addr/mbw, mv)
	}
	sp := rec.begin(spanMC, root, streamID)
	n := 0
	for i := range mbs {
		mb := &mbs[i]
		if mb.Type.Intra {
			continue
		}
		fwd := ph.Type == vlc.CodingP || mb.Type.MotionForward
		bwd := ph.Type == vlc.CodingB && mb.Type.MotionBackward
		switch {
		case fwd && bwd:
			predict(pred, refs.Fwd, mb, mb.MVFwd, mb.MVFwd2, mb.FieldSelFwd)
			predict(pred2, refs.Bwd, mb, mb.MVBwd, mb.MVBwd2, mb.FieldSelBwd)
			motion.AverageMB(pred, pred, pred2)
		case bwd:
			predict(pred, refs.Bwd, mb, mb.MVBwd, mb.MVBwd2, mb.FieldSelBwd)
		default:
			predict(pred, refs.Fwd, mb, mb.MVFwd, mb.MVFwd2, mb.FieldSelFwd)
		}
		n++
	}
	rec.end(sp)
	res.mcMBs += n
	walkSink ^= uint32(pred.Y[0]) ^ uint32(pred.Cb[7])
}

// walkMetrics runs the walk walkPasses times over the distinct GOPs and
// sets the walk's per-layer metrics on res. It returns the span
// recorder for export.
func walkMetrics(set *gopSet, res *result) (*spanRec, error) {
	order := make([]int, len(set.gops))
	for i := range order {
		order[i] = i
	}
	rec := newSpanRec()
	var wr walkResult
	for pass := 0; pass < walkPasses; pass++ {
		if err := walk(rec, set, order, pass, &wr); err != nil {
			return nil, err
		}
	}
	if wr.iqBlocks != wr.work.IntraBlocks+wr.work.CodedBlocks || wr.mcMBs != wr.work.PredMBs {
		return nil, fmt.Errorf("walk replay covered %d blocks and %d predictions, decoder reported %d and %d",
			wr.iqBlocks, wr.mcMBs, wr.work.IntraBlocks+wr.work.CodedBlocks, wr.work.PredMBs)
	}
	// The walk's own self time is the part of its wall time no layer
	// span covers.
	self, wall := rec.selfTimes()
	for _, name := range []string{spanScan, spanHeader, spanVLD, spanRecon, spanIQ, spanIDCT, spanMC, spanWalk} {
		note("walk self time %-14s %.4fs (%4.1f%%)", name, self[name].Seconds(), 100*float64(self[name])/float64(wall))
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	kernels := self[spanIQ] + self[spanIDCT] + self[spanMC]
	w := wr.work
	res.set("stream.scan_ns_per_byte", per(self[spanScan], wr.scanBytes), "ns")
	res.set("mpeg2.vld_ns_per_mb", per(self[spanVLD], w.MBs), "ns")
	res.set("mpeg2.vld_s", self[spanVLD].Seconds(), "s")
	res.set("quant.iq_ns_per_block", per(self[spanIQ], wr.iqBlocks), "ns")
	res.set("dct.idct_ns_per_block", per(self[spanIDCT], wr.iqBlocks), "ns")
	res.set("motion.mc_ns_per_mb", per(self[spanMC], wr.mcMBs), "ns")
	res.set("decoder.recon_ns_per_mb", per(self[spanRecon], w.MBs), "ns")
	res.set("decoder.recon_other_s", (self[spanRecon] - kernels).Seconds(), "s")
	res.set("decoder.mbs", float64(w.MBs), "count")
	res.set("decoder.intra_blocks", float64(w.IntraBlocks), "count")
	res.set("decoder.coded_blocks", float64(w.CodedBlocks), "count")
	res.set("decoder.coefs", float64(w.Coefs), "count")
	res.set("decoder.pred_mbs", float64(w.PredMBs), "count")
	res.set("decoder.bidir_mbs", float64(w.BidirMBs), "count")
	res.set("walk.uncovered_ratio", float64(self[spanWalk])/float64(wall), "ratio")
	note("walk: %d passes, %d pictures, %d spans, %.3fs", walkPasses, wr.pictures, len(rec.spans), wall.Seconds())
	return rec, nil
}
