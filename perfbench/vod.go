package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mpeg2par"
)

// The vod workload: one heavy D1 stream decoded as fast as it goes.
const (
	vodGOPs     = 4   // distinct closed GOPs the seed selects
	vodQuant    = 2   // quantiser scale for I, P and B pictures
	vodCallGOPs = 100 // GOPs per Decode call (1200 pictures)
)

// vodInput is the vod set-up product: the GOPs and the seeded order one
// Decode call plays them in.
type vodInput struct {
	set   *gopSet
	order []int
}

func makeVODInput(seed int64, workers int) (*vodInput, error) {
	set, err := makeGOPs(seed, vodGOPs, vodQuant, workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x766f64))
	var order []int
	for len(order) < vodCallGOPs {
		order = append(order, rng.Perm(vodGOPs)...)
	}
	return &vodInput{set, order[:vodCallGOPs]}, nil
}

func sameGOPs(a, b *gopSet) bool {
	if len(a.gops) != len(b.gops) || string(a.seqHdr) != string(b.seqHdr) {
		return false
	}
	for i := range a.gops {
		if string(a.gops[i].data) != string(b.gops[i].data) || a.gops[i].crc != b.gops[i].crc {
			return false
		}
	}
	return true
}

// vodCall is the outcome of one Decode call.
type vodCall struct {
	wall    time.Duration
	frames  int
	bad     int       // frames that failed the oracle or arrived twice
	gaps    []float64 // ms between successive deliveries
	lats    []float64 // ms from a picture's last byte read to its delivery
	ontime  int
	stats   *mpeg2par.Stats
	missing int // pictures never delivered
}

// decodeVOD runs one closed-loop Decode call over in's order.
func decodeVOD(ctx context.Context, in *vodInput, workers int, extra ...mpeg2par.Option) (*vodCall, error) {
	n := len(in.order) * gopSize
	readAt := make([]atomic.Int64, n)
	seen := make([]bool, n)
	c := &vodCall{gaps: make([]float64, 0, n), lats: make([]float64, 0, n)}
	var last time.Time
	sink := func(f *mpeg2par.Frame) {
		now := time.Now()
		d := f.DisplayIndex
		want, ok := in.set.wantCRC(in.order, d)
		if !ok || seen[d] || frameCRC(f) != want {
			c.bad++
			return
		}
		seen[d] = true
		c.frames++
		if !last.IsZero() {
			c.gaps = append(c.gaps, ms(now.Sub(last)))
		}
		last = now
		lat := now.Sub(time.Unix(0, readAt[d].Load()))
		c.lats = append(c.lats, ms(lat))
		if lat <= budget {
			c.ontime++
		}
	}
	r := &loopReader{set: in.set, order: in.order, onPicture: func(d int) {
		readAt[d].Store(time.Now().UnixNano())
	}}
	opts := append([]mpeg2par.Option{mpeg2par.WithWorkers(workers), mpeg2par.WithFrameSink(sink)}, extra...)
	t0 := time.Now()
	st, err := mpeg2par.Decode(ctx, mpeg2par.FromReader(r), opts...)
	c.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("vod decode: %w", err)
	}
	if st.LeakedFrameBytes != 0 {
		return nil, fmt.Errorf("vod decode leaked %d frame bytes", st.LeakedFrameBytes)
	}
	c.stats = st
	c.missing = n - c.frames - c.bad
	return c, nil
}

func runVOD(cfg runConfig) (*result, error) {
	in, setupS, err := timedSetup(func() (*vodInput, error) { return makeVODInput(cfg.seed, cfg.workers) },
		func(a, b *vodInput) bool { return sameGOPs(a.set, b.set) }, nil)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceVOD(cfg, in)
	}
	note("vod: %d GOPs, %.0f bytes per picture", len(in.set.gops), in.set.meanPicBytes())
	// Each Decode call is one sample of every timing; the run reports
	// the median call, so a burst of machine noise in one call does not
	// move the run's figures.
	res := &result{}
	var wall time.Duration
	var frames, due, bad, ontime int
	var rates, gapP99s, latP50s, latP99s []float64
	ctx := context.Background()
	for wall.Seconds() < cfg.seconds {
		c, err := decodeVOD(ctx, in, cfg.workers)
		if err != nil {
			return nil, err
		}
		wall += c.wall
		frames += c.frames
		due += len(in.order) * gopSize
		bad += c.bad + c.missing
		ontime += c.ontime
		gapP99, gq, gn := tail(c.gaps, 0.99)
		latP99, lq, ln := tail(c.lats, 0.99)
		if len(rates) == 0 {
			note("vod: per call, gap p%.2f of %d and latency p%.2f of %d samples", 100*gq, gn, 100*lq, ln)
		}
		rates = append(rates, float64(c.frames)/c.wall.Seconds())
		gapP99s = append(gapP99s, gapP99)
		latP50s = append(latP50s, median(c.lats))
		latP99s = append(latP99s, latP99)
	}
	res.Attempted, res.Failed, res.Correct = due, bad, bad == 0
	note("vod: %d frames in %.3fs over %d calls", frames, wall.Seconds(), len(rates))
	res.set("setup_s", setupS, "s")
	res.set("pics_per_s", median(rates), "1/s")
	res.set("frame_gap_p99_ms", median(gapP99s), "ms")
	res.set("latency_p50_ms", median(latP50s), "ms")
	res.set("latency_p99_ms", median(latP99s), "ms")
	res.set("ontime_ratio", ratio(ontime, due), "ratio")
	res.set("delivered_ratio", ratio(frames, due), "ratio")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}
