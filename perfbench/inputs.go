package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"time"

	"mpeg2par/internal/decoder"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
)

// Stream geometry shared by every workload: D1 4:2:0 at 25 pictures per
// second, closed GOPs of 12 with M=3, one slice per macroblock row.
const (
	width   = 720
	height  = 576
	picRate = 25.0
	gopSize = 12
	ipDist  = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// gop is one closed group of pictures: its coded bytes (GOP header and
// pictures, no sequence header, no end code) and the oracle hash of each
// of its frames by display position within the group.
type gop struct {
	data []byte
	// picEnd[i] is the byte offset in data just past the i-th coded
	// picture (stream order); picDisp[i] is that picture's display
	// position within the group.
	picEnd  []int
	picDisp []int
	crc     [gopSize]uint32
}

// gopSet is a seeded set of distinct closed GOPs sharing one sequence
// header; any sequence of its GOPs, framed by the header and one
// sequence_end_code, is a valid stream.
type gopSet struct {
	seqHdr []byte
	gops   []gop
}

// frameCRC hashes the visible planes of f (CRC-32C, rows in order, luma
// then Cb then Cr), ignoring coded-size padding and stride slack.
func frameCRC(f *frame.Frame) uint32 {
	var c uint32
	cw, ch := (f.Width+1)/2, (f.Height+1)/2
	for y := 0; y < f.Height; y++ {
		c = crc32.Update(c, castagnoli, f.Y[y*f.YStride:y*f.YStride+f.Width])
	}
	for y := 0; y < ch; y++ {
		c = crc32.Update(c, castagnoli, f.Cb[y*f.CStride:y*f.CStride+cw])
	}
	for y := 0; y < ch; y++ {
		c = crc32.Update(c, castagnoli, f.Cr[y*f.CStride:y*f.CStride+cw])
	}
	return c
}

// synthSource renders the synthetic pan starting at picture base.
type synthSource struct {
	s    *frame.Synth
	base int
}

func (s synthSource) Frame(n int) *frame.Frame { return s.s.Frame(s.base + n) }

// makeGOPs encodes n distinct closed GOPs, each starting at a seeded
// position of the synthetic pan, with the given base quantisers (0
// keeps the encoder's defaults). The GOPs are encoded in parallel, one
// per worker, then decoded by the sequential decoder for the oracle.
func makeGOPs(seed int64, n, q, workers int) (*gopSet, error) {
	rng := rand.New(rand.NewSource(seed))
	bases := make([]int, n)
	for i := range bases {
		// Distinct windows of the pan: spacing by more than a GOP keeps
		// every group's content different.
		bases[i] = (rng.Intn(40) + 40*i) * gopSize
	}
	type enc struct {
		res *encoder.Result
		err error
	}
	out := make([]enc, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range bases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := encoder.Config{
				Width: width, Height: height, Pictures: gopSize,
				GOPSize: gopSize, IPDistance: ipDist, FrameRate: picRate,
				QScaleI: q, QScaleP: q, QScaleB: q,
			}
			res, err := encoder.EncodeSequence(cfg, synthSource{frame.NewSynth(width, height), bases[i]})
			out[i] = enc{res, err}
		}(i)
	}
	wg.Wait()
	set := &gopSet{}
	for i, e := range out {
		if e.err != nil {
			return nil, fmt.Errorf("encode GOP %d: %w", i, e.err)
		}
		res := e.res
		if len(res.GOPs) != 1 || len(res.Pictures) != gopSize {
			return nil, fmt.Errorf("encode GOP %d: %d groups, %d pictures", i, len(res.GOPs), len(res.Pictures))
		}
		hdr := res.Data[:res.GOPs[0].Offset]
		if set.seqHdr == nil {
			set.seqHdr = hdr
		} else if !bytes.Equal(set.seqHdr, hdr) {
			return nil, fmt.Errorf("encode GOP %d: sequence header differs", i)
		}
		end := len(res.Data) - 4 // drop the sequence_end_code
		g := gop{data: res.Data[res.GOPs[0].Offset:end]}
		for k, p := range res.Pictures {
			next := end
			if k+1 < len(res.Pictures) {
				next = res.Pictures[k+1].Offset
			}
			g.picEnd = append(g.picEnd, next-res.GOPs[0].Offset)
			g.picDisp = append(g.picDisp, p.TemporalRef)
		}
		set.gops = append(set.gops, g)
	}
	if err := set.oracle(workers); err != nil {
		return nil, err
	}
	return set, nil
}

// meanPicBytes is the coded size of an average picture of the set.
func (set *gopSet) meanPicBytes() float64 {
	n := 0
	for _, g := range set.gops {
		n += len(g.data)
	}
	return float64(n) / float64(len(set.gops)*gopSize)
}

// oracle fills every GOP's frame hashes from the sequential decoder.
func (set *gopSet) oracle(workers int) error {
	errs := make([]error, len(set.gops))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range set.gops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			g := &set.gops[i]
			d, err := decoder.New(set.stream([]int{i}))
			if err != nil {
				errs[i] = err
				return
			}
			fs, err := d.All()
			if err != nil {
				errs[i] = err
				return
			}
			if len(fs) != gopSize {
				errs[i] = fmt.Errorf("oracle GOP %d: %d frames", i, len(fs))
				return
			}
			for k, f := range fs {
				g.crc[k] = frameCRC(f)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stream assembles a complete elementary stream from the given GOPs.
func (set *gopSet) stream(order []int) []byte {
	var b bytes.Buffer
	b.Write(set.seqHdr)
	for _, i := range order {
		b.Write(set.gops[i].data)
	}
	b.Write(seqEnd)
	return b.Bytes()
}

var seqEnd = []byte{0, 0, 1, byte(mpeg2.SequenceEndCode)}

// wantCRC returns the oracle hash of display index d of a stream built
// from order.
func (set *gopSet) wantCRC(order []int, d int) (uint32, bool) {
	g := d / gopSize
	if d < 0 || g >= len(order) {
		return 0, false
	}
	return set.gops[order[g]].crc[d%gopSize], true
}

// loopReader serves the stream header, order's GOPs, then one
// sequence_end_code, without materializing the (long, repetitive)
// stream. There is no inner sequence_end_code: the sequential decoder
// stops at the first one (see NOTES.md). onPicture, when set, is called
// with the stream-wide display index of every picture whose last byte a
// Read has just handed out.
type loopReader struct {
	set       *gopSet
	order     []int
	onPicture func(disp int)

	part  int // 0 header, 1..len(order) GOPs, then the end code
	off   int
	nextP int // next picture (stream order) within the current GOP
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		var cur []byte
		var g *gop
		switch {
		case r.part == 0:
			cur = r.set.seqHdr
		case r.part <= len(r.order):
			g = &r.set.gops[r.order[r.part-1]]
			cur = g.data
		case r.part == len(r.order)+1:
			cur = seqEnd
		default:
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		c := copy(p[n:], cur[r.off:])
		n += c
		r.off += c
		if g != nil && r.onPicture != nil {
			base := (r.part - 1) * gopSize
			for r.nextP < len(g.picEnd) && g.picEnd[r.nextP] <= r.off {
				r.onPicture(base + g.picDisp[r.nextP])
				r.nextP++
			}
		}
		if r.off == len(cur) {
			r.part++
			r.off, r.nextP = 0, 0
		}
	}
	return n, nil
}

// pacedReader releases a stream's bytes picture by picture at capture
// time: coded picture k becomes readable once the latest display
// position among pictures 0..k has been captured (start + (d+1)/25 s),
// which is when a live encoder could have emitted it. The header and
// GOP header bytes travel with the first picture; the end code with the
// last. lag receives how late the source woke for each release it
// waited on.
type pacedReader struct {
	data    []byte
	ends    []int       // cumulative end offset of each release
	release []time.Time // when each release becomes readable
	lag     func(time.Duration)

	off  int
	next int // next release not yet readable
	ctx  context.Context
}

func newPacedReader(ctx context.Context, set *gopSet, order []int, start time.Time, lag func(time.Duration)) *pacedReader {
	r := &pacedReader{data: set.stream(order), lag: lag, ctx: ctx}
	off := len(set.seqHdr)
	maxDisp := -1
	for gi, i := range order {
		g := &set.gops[i]
		for k, e := range g.picEnd {
			if d := gi*gopSize + g.picDisp[k]; d > maxDisp {
				maxDisp = d
			}
			r.ends = append(r.ends, off+e)
			r.release = append(r.release, start.Add(dueOffset(maxDisp)))
		}
		off += len(g.data)
	}
	r.ends[len(r.ends)-1] = len(r.data)
	return r
}

// budget is the viewer's playout budget: a frame delivered more than
// this long after its due time is late.
const budget = 600 * time.Millisecond

// dueOffset is when display index d is due relative to its stream's
// arrival: the end of its capture period.
func dueOffset(d int) time.Duration {
	return time.Duration(float64(d+1) * float64(time.Second) / picRate)
}

func (r *pacedReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	if r.next == 0 || r.off == r.ends[r.next-1] {
		at := r.release[r.next]
		if d := time.Until(at); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-r.ctx.Done():
				t.Stop()
				return 0, r.ctx.Err()
			}
			// The generator's own lateness: how far past the release
			// time the paced source woke. A consumer that reads late
			// (backpressure, admission wait) is not generator lag.
			if r.lag != nil {
				r.lag(time.Since(at))
			}
		}
		// Hand out every release that is due by now.
		now := time.Now()
		for r.next < len(r.ends) && !r.release[r.next].After(now) {
			r.next++
		}
	}
	n := copy(p, r.data[r.off:r.ends[r.next-1]])
	r.off += n
	return n, nil
}
