package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mpeg2par"
)

// The live and overload workloads: paced D1 streams at the encoder's
// default quantisers arriving open loop at a Server.
const (
	liveStreams     = 32 // mean concurrent streams of live
	overloadStreams = 40 // of overload: 1.25× live (see NOTES.md)
	liveGOPs        = 4  // distinct closed GOPs the seed selects
	streamGOPs      = 5  // GOPs per stream: 60 pictures, 2.4 s at 25 fps
	streamPics      = streamGOPs * gopSize
	// giveUp is how long after a stream's last frame fell due plus the
	// playout budget the viewer stays: later frames can only be misses,
	// so the stream is cancelled and whatever it has not delivered counts
	// as undelivered.
	giveUp = 500 * time.Millisecond
)

// streamLife is how long one stream plays.
var streamLife = dueOffset(streamPics - 1)

// arrival is one scheduled stream.
type arrival struct {
	at    time.Duration // since the open loop started
	order []int         // the stream's GOPs
}

// schedule draws the seeded open-loop arrivals: a Poisson process of
// rate concurrency/streamLife over [0, window), conditioned on its
// expected count so every seed offers the same load (given the count,
// Poisson arrival times are independent uniforms). Each stream plays
// streamGOPs GOPs drawn from nGOPs.
func schedule(seed int64, concurrency int, window time.Duration, nGOPs int) []arrival {
	rng := rand.New(rand.NewSource(seed ^ 0x6c697665))
	rate := float64(concurrency) / streamLife.Seconds()
	n := int(math.Round(rate * window.Seconds()))
	out := make([]arrival, n)
	for i := range out {
		out[i].at = time.Duration(rng.Float64() * float64(window))
		out[i].order = make([]int, streamGOPs)
		for g := range out[i].order {
			out[i].order[g] = rng.Intn(nGOPs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// streamRun is what the generator observed of one stream.
type streamRun struct {
	arrival
	measured  bool // arrived after the warm-up window
	frames    []outcome
	gaps      []float64
	delivered []time.Time // delivery time by display index (zero: none)
	stats     *mpeg2par.StreamStats
	rejected  bool   // turned away at admission
	cancelled bool   // the viewer gave up before the stream ended
	violation string // why the stream failed the correctness gate
}

// liveServer builds the server every open-loop run uses: admission is
// left to the cost model (stream cap and queue far above the load).
func liveServer(workers int, tr *mpeg2par.TraceRecorder) *mpeg2par.Server {
	return mpeg2par.NewServer(mpeg2par.ServerConfig{
		Workers:    workers,
		MaxStreams: 4096,
		QueueDepth: 4096,
		Trace:      tr,
	})
}

// warmServer runs one unpaced, untimed stream so the cost model is
// calibrated before the first timed arrival (see NOTES.md, cold start).
func warmServer(srv *mpeg2par.Server, set *gopSet) error {
	order := make([]int, streamGOPs)
	for i := range order {
		order[i] = i % len(set.gops)
	}
	ss, err := srv.Decode(context.Background(), mpeg2par.FromBytes(set.stream(order)))
	if err != nil {
		return fmt.Errorf("warm-up stream: %w", err)
	}
	if ss.Stats == nil || ss.Stats.Displayed != streamPics {
		return fmt.Errorf("warm-up stream delivered %v", ss.Stats)
	}
	return nil
}

// openLoop plays sched against srv starting now and returns every
// stream's record plus the generator's lag samples (ms).
func openLoop(srv *mpeg2par.Server, set *gopSet, sched []arrival, warm time.Duration) ([]*streamRun, []float64, time.Time) {
	start := time.Now()
	runs := make([]*streamRun, len(sched))
	var lagMu sync.Mutex
	lags := make([]float64, 0, len(sched)*(streamPics+1))
	noteLag := func(d time.Duration) {
		lagMu.Lock()
		lags = append(lags, ms(d))
		lagMu.Unlock()
	}
	var wg sync.WaitGroup
	for i, a := range sched {
		run := &streamRun{arrival: a, measured: a.at >= warm}
		runs[i] = run
		at := start.Add(a.at)
		time.Sleep(time.Until(at))
		noteLag(time.Since(at))
		wg.Add(1)
		go func() {
			defer wg.Done()
			playStream(srv, set, run, at, noteLag)
		}()
	}
	wg.Wait()
	return runs, lags, start
}

// playStream is one viewer: a paced source feeding Server.Decode and a
// sink checking every frame against the oracle.
func playStream(srv *mpeg2par.Server, set *gopSet, run *streamRun, at time.Time, lag func(time.Duration)) {
	ctx, cancel := context.WithDeadline(context.Background(), at.Add(streamLife+budget+giveUp))
	defer cancel()
	run.delivered = make([]time.Time, streamPics)
	exact := make([]bool, streamPics)
	var last time.Time
	delivered, mismatched := 0, 0
	sink := func(f *mpeg2par.Frame) {
		now := time.Now()
		d := f.DisplayIndex
		want, ok := set.wantCRC(run.order, d)
		if !ok || !run.delivered[d].IsZero() {
			run.violation = fmt.Sprintf("frame %d out of range or delivered twice", d)
			return
		}
		run.delivered[d] = now
		delivered++
		exact[d] = frameCRC(f) == want
		if !exact[d] {
			mismatched++
		}
		if !last.IsZero() {
			run.gaps = append(run.gaps, ms(now.Sub(last)))
		}
		last = now
	}
	src := newPacedReader(ctx, set, run.order, at, lag)
	ss, err := srv.Decode(ctx, mpeg2par.FromReader(src),
		mpeg2par.WithPicRate(picRate),
		mpeg2par.WithFrameDeadline(budget),
		mpeg2par.WithStreamSink(sink))
	run.stats = ss
	switch {
	case errors.Is(err, mpeg2par.ErrRejected):
		run.rejected = true
	case errors.Is(err, context.DeadlineExceeded):
		run.cancelled = true
	case err != nil && run.violation == "":
		run.violation = "decode error: " + err.Error()
	}
	run.frames = make([]outcome, streamPics)
	for d := range run.frames {
		if t := run.delivered[d]; !t.IsZero() {
			run.frames[d] = outcome{delivered: true, exact: exact[d], late: t.Sub(at.Add(dueOffset(d)))}
		}
	}
	if run.violation == "" {
		run.violation = checkStream(ss, err, delivered, mismatched)
	}
}

// checkStream is the per-stream correctness gate: pooled frames all
// returned, fed = delivered + dropped with delivered counted at the
// sink, a clean stream delivers every picture and reports so, and
// frames that differ from the oracle are covered by the stream's own
// shed and degraded counts. Stats.Displayed is compared only on clean
// streams: a torn-down stream reports 0 however many frames reached
// its sink (see NOTES.md, findings).
func checkStream(ss *mpeg2par.StreamStats, err error, delivered, mismatched int) string {
	st := ss.Stats
	if st == nil {
		if delivered != 0 {
			return fmt.Sprintf("%d frames delivered without a session", delivered)
		}
		return ""
	}
	switch {
	case st.LeakedFrameBytes != 0:
		return fmt.Sprintf("leaked %d frame bytes", st.LeakedFrameBytes)
	case delivered > st.Pictures:
		return fmt.Sprintf("fed %d pictures but the sink saw %d", st.Pictures, delivered)
	case err == nil && (st.Pictures != streamPics || st.Displayed != streamPics || delivered != streamPics):
		return fmt.Sprintf("clean stream fed %d, displayed %d and delivered %d of %d pictures",
			st.Pictures, st.Displayed, delivered, streamPics)
	case mismatched > st.Shed.Total()+st.Shed.DegradedPictures:
		return fmt.Sprintf("%d frames differ from the oracle but only %d were shed or degraded",
			mismatched, st.Shed.Total()+st.Shed.DegradedPictures)
	}
	return ""
}

// liveInput is the open-loop set-up product: the GOPs, the schedule,
// and a warmed server.
type liveInput struct {
	set   *gopSet
	sched []arrival
	srv   *mpeg2par.Server
}

func makeLiveInput(cfg runConfig, concurrency int) (*liveInput, error) {
	set, err := makeGOPs(cfg.seed, liveGOPs, 0, cfg.workers)
	if err != nil {
		return nil, err
	}
	srv := liveServer(cfg.workers, nil)
	if err := warmServer(srv, set); err != nil {
		srv.Close()
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	return &liveInput{set, schedule(cfg.seed, concurrency, window, liveGOPs), srv}, nil
}

// liveSummary is one open-loop run reduced to its metrics.
type liveSummary struct {
	tally
	streams, measured   int
	rejected, cancelled int
	gaps                []float64
	lags                []float64
	violations          []string
	picsPerS            float64
	runs                []*streamRun
}

func summarize(runs []*streamRun, lags []float64, start time.Time, warm, window time.Duration) *liveSummary {
	s := &liveSummary{streams: len(runs), lags: lags, runs: runs}
	inWindow := 0
	for _, r := range runs {
		if r.violation != "" {
			s.violations = append(s.violations, fmt.Sprintf("stream at %v: %s", r.at, r.violation))
		}
		for d, t := range r.delivered {
			if !t.IsZero() && r.frames[d].exact {
				if off := t.Sub(start); off >= warm && off < window {
					inWindow++
				}
			}
		}
		if !r.measured {
			continue
		}
		s.measured++
		if r.rejected {
			s.rejected++
		}
		if r.cancelled {
			s.cancelled++
		}
		s.add(streamPics, r.frames, budget)
		s.gaps = append(s.gaps, r.gaps...)
	}
	s.picsPerS = float64(inWindow) / (window - warm).Seconds()
	return s
}

func runLive(cfg runConfig, concurrency int) (*result, error) {
	in, setupS, err := timedSetup(func() (*liveInput, error) { return makeLiveInput(cfg, concurrency) },
		func(a, b *liveInput) bool { return sameGOPs(a.set, b.set) },
		func(a *liveInput) { a.srv.Close() })
	if err != nil {
		if in != nil {
			in.srv.Close()
		}
		return nil, err
	}
	defer in.srv.Close()
	if cfg.trace {
		return traceLive(cfg, in, concurrency)
	}
	note("%s: %d GOPs, %.0f bytes per picture", cfg.workload, len(in.set.gops), in.set.meanPicBytes())
	window := time.Duration(cfg.seconds * float64(time.Second))
	cpu0 := cpuSeconds()
	runs, lags, start := openLoop(in.srv, in.set, in.sched, streamLife)
	note("%s: the process used %.2f of %d CPUs over the open loop", cfg.workload,
		(cpuSeconds()-cpu0)/time.Since(start).Seconds(), cfg.workers)
	s := summarize(runs, lags, start, streamLife, window)
	res := &result{Attempted: s.due, Failed: len(s.violations), Correct: len(s.violations) == 0}
	for _, v := range s.violations {
		note("violation: %s", v)
	}
	latP99, lq, ln := tail(s.lateness, 0.99)
	gapP99, gq, gn := tail(s.gaps, 0.99)
	note("%s: %d streams (%d measured, mean concurrency %d; %d measured rejected, %d cancelled), %d frames due: %d on time, %d late, %d substituted, %d undelivered; latency p%.2f of %d, gap p%.2f of %d samples",
		cfg.workload, s.streams, s.measured, concurrency, s.rejected, s.cancelled, s.due, s.ontime, s.late, s.substituted, s.undelivered, 100*lq, ln, 100*gq, gn)
	res.set("setup_s", setupS, "s")
	res.set("pics_per_s", s.picsPerS, "1/s")
	res.set("frame_gap_p99_ms", gapP99, "ms")
	res.set("latency_p50_ms", median(s.lateness), "ms")
	res.set("latency_p99_ms", latP99, "ms")
	res.set("ontime_ratio", ratio(s.ontime, s.due), "ratio")
	res.set("delivered_ratio", ratio(s.due-s.undelivered, s.due), "ratio")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}
