package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mpeg2par"
	"mpeg2par/internal/obs"
)

// Traced runs: the layer walk over the workload's GOPs, then the public
// path run twice at equal length — untraced, then traced through
// WithTrace or ServerConfig.Trace — so the trace's cost shows as
// trace.overhead_ratio (CPU seconds per delivered frame, traced over
// untraced).

// exportWalk writes the walk's spans into the build directory and
// notes where.
func exportWalk(cfg runConfig, rec *spanRec) error {
	path, err := rec.export(".bench_build", "walk-"+cfg.workload+".json")
	if err != nil {
		return err
	}
	note("walk spans: %s (validated)", path)
	return nil
}

// zeroServer sets the service metrics a single-stream run leaves idle.
func zeroServer(res *result) {
	for _, n := range []string{"server.admit_wait_p99_ms", "server.dispatch_wait_p99_ms", "server.busy_ratio", "server.late_work_ratio", "gen.lag_p99_ms"} {
		unit := "ms"
		if n == "server.busy_ratio" || n == "server.late_work_ratio" {
			unit = "ratio"
		}
		res.set(n, 0, unit)
	}
	for _, n := range []string{"server.shed_pictures", "server.slack_sheds", "server.pauses", "server.rejected", "server.max_rung", "server.assists"} {
		res.set(n, 0, "count")
	}
}

func traceVOD(cfg runConfig, in *vodInput) (*result, error) {
	res := &result{}
	rec, err := walkMetrics(in.set, res)
	if err != nil {
		return nil, err
	}
	if err := exportWalk(cfg, rec); err != nil {
		return nil, err
	}
	budgetS := cfg.seconds / 2
	ctx := context.Background()
	measure := func(traced bool) (cpuPerFrame float64, calls []*vodCall, tls []*obs.Timeline, err error) {
		var wall time.Duration
		frames := 0
		cpu0 := cpuSeconds()
		for wall.Seconds() < budgetS {
			var opts []mpeg2par.Option
			var tr *mpeg2par.TraceRecorder
			if traced {
				tr = mpeg2par.NewTraceRecorder(1 << 16)
				opts = append(opts, mpeg2par.WithTrace(tr))
			}
			c, err := decodeVOD(ctx, in, cfg.workers, opts...)
			if err != nil {
				return 0, nil, nil, err
			}
			res.Attempted += len(in.order) * gopSize
			res.Failed += c.bad + c.missing
			wall += c.wall
			frames += c.frames
			calls = append(calls, c)
			if traced {
				tls = append(tls, tr.Snapshot())
			}
		}
		return (cpuSeconds() - cpu0) / float64(frames), calls, tls, nil
	}
	plain, _, _, err := measure(false)
	if err != nil {
		return nil, err
	}
	traced, calls, tls, err := measure(true)
	if err != nil {
		return nil, err
	}
	var busy, queue, barrier, wall time.Duration
	var tasks, lead int
	var peakFrame, peakInflight int64
	var dropped int64
	frames := 0
	for i, c := range calls {
		sum := tls[i].Summary()
		dropped += sum.Dropped
		for _, w := range sum.PerWorker {
			busy += w.Busy
			queue += w.QueueWait
			barrier += w.BarrierWait
		}
		for _, w := range c.stats.WorkerStats {
			tasks += w.Tasks
		}
		wall += c.wall
		frames += c.frames
		lead = max(lead, c.stats.ScanLeadPeak)
		peakFrame = max(peakFrame, c.stats.PeakFrameBytes)
		peakInflight = max(peakInflight, c.stats.PeakInFlightBytes)
	}
	if dropped != 0 {
		return nil, fmt.Errorf("traced vod: the trace dropped %d events", dropped)
	}
	note("vod traced: %d frames over %d calls, %.3fs", frames, len(calls), wall.Seconds())
	res.Correct = res.Failed == 0
	res.set("core.worker_busy_ratio", busy.Seconds()/(float64(cfg.workers)*wall.Seconds()), "ratio")
	res.set("core.queue_wait_s", queue.Seconds(), "s")
	res.set("core.barrier_wait_s", barrier.Seconds(), "s")
	res.set("core.tasks", float64(tasks), "count")
	res.set("core.scan_lead_peak", float64(lead), "count")
	res.set("frame.peak_frame_bytes", float64(peakFrame), "bytes")
	res.set("stream.peak_inflight_bytes", float64(peakInflight), "bytes")
	zeroServer(res)
	res.set("trace.overhead_ratio", traced/plain, "ratio")
	return res, nil
}

func traceLive(cfg runConfig, in *liveInput, concurrency int) (*result, error) {
	res := &result{}
	rec, err := walkMetrics(in.set, res)
	if err != nil {
		return nil, err
	}
	if err := exportWalk(cfg, rec); err != nil {
		return nil, err
	}
	// Two open loops of half the run each, on the same seeded schedule
	// shape: untraced on the set-up server, traced on a fresh warmed one.
	window := time.Duration(cfg.seconds / 2 * float64(time.Second))
	sched := schedule(cfg.seed, concurrency, window, liveGOPs)
	warm := min(streamLife, window/2)
	// loop plays the schedule on srv and also returns the CPU seconds
	// per delivered frame.
	loop := func(srv *mpeg2par.Server) (*liveSummary, float64) {
		cpu0 := cpuSeconds()
		runs, lags, start := openLoop(srv, in.set, sched, warm)
		s := summarize(runs, lags, start, warm, window)
		for _, v := range s.violations {
			note("violation: %s", v)
		}
		res.Attempted += s.due
		res.Failed += len(s.violations)
		return s, (cpuSeconds() - cpu0) / float64(s.ontime+s.late+s.substituted)
	}
	_, plainCPU := loop(in.srv)
	tr := mpeg2par.NewTraceRecorder(1 << 12)
	srv := liveServer(cfg.workers, tr)
	defer srv.Close()
	if err := warmServer(srv, in.set); err != nil {
		return nil, err
	}
	m0 := srv.Metrics()
	t0 := time.Now()
	s, tracedCPU := loop(srv)
	span := time.Since(t0)
	m1 := srv.Metrics()
	tl := tr.Snapshot()
	if tl.Dropped != 0 {
		return nil, fmt.Errorf("traced %s: the trace dropped %d events", cfg.workload, tl.Dropped)
	}
	res.Correct = res.Failed == 0

	// Pool and per-stream gauges.
	var busy, queue, barrier time.Duration
	tasks, maxRung := 0, 0
	startNS := t0.Sub(tl.Start).Nanoseconds()
	for _, e := range tl.Events {
		if e.Start < startNS {
			continue // the warm-up stream
		}
		switch e.Kind {
		case obs.KindTask:
			busy += time.Duration(e.Dur)
			tasks++
		case obs.KindWait:
			queue += time.Duration(e.Dur)
		case obs.KindBarrier:
			barrier += time.Duration(e.Dur)
		case obs.KindDegrade:
			maxRung = max(maxRung, e.Slice)
		}
	}
	var admit []float64
	var shed, lead int
	var peakFrame, peakInflight int64
	for _, r := range s.runs {
		admit = append(admit, ms(r.stats.QueueWait))
		if st := r.stats.Stats; st != nil {
			shed += st.Shed.Total()
			lead = max(lead, st.ScanLeadPeak)
			peakFrame = max(peakFrame, st.PeakFrameBytes)
			peakInflight = max(peakInflight, st.PeakInFlightBytes)
		}
	}
	busyRatio := busy.Seconds() / (float64(cfg.workers) * span.Seconds())
	admitP99, aq, an := tail(admit, 0.99)
	disp := dispatchWaits(tl, startNS)
	dispP99, dq, dn := tail(disp, 0.99)
	lagP99, lq, ln := tail(s.lags, 0.99)
	note("%s traced: %d streams; admit wait p%.2f of %d, dispatch wait p%.2f of %d, generator lag p%.2f of %d samples",
		cfg.workload, s.streams, 100*aq, an, 100*dq, dn, 100*lq, ln)
	res.set("core.worker_busy_ratio", busyRatio, "ratio")
	res.set("core.queue_wait_s", queue.Seconds(), "s")
	res.set("core.barrier_wait_s", barrier.Seconds(), "s")
	res.set("core.tasks", float64(tasks), "count")
	res.set("core.scan_lead_peak", float64(lead), "count")
	res.set("frame.peak_frame_bytes", float64(peakFrame), "bytes")
	res.set("stream.peak_inflight_bytes", float64(peakInflight), "bytes")
	res.set("server.admit_wait_p99_ms", admitP99, "ms")
	res.set("server.dispatch_wait_p99_ms", dispP99, "ms")
	res.set("server.busy_ratio", busyRatio, "ratio")
	res.set("server.shed_pictures", float64(shed), "count")
	res.set("server.slack_sheds", float64(m1.SlackSheds-m0.SlackSheds), "count")
	res.set("server.pauses", float64(m1.Pauses-m0.Pauses), "count")
	res.set("server.rejected", float64(m1.Rejected-m0.Rejected), "count")
	res.set("server.max_rung", float64(maxRung), "count")
	res.set("server.assists", float64(m1.Assists-m0.Assists), "count")
	res.set("server.late_work_ratio", ratio(s.late, s.ontime+s.late), "ratio")
	res.set("gen.lag_p99_ms", lagP99, "ms")
	res.set("trace.overhead_ratio", tracedCPU/plainCPU, "ratio")
	return res, nil
}

// dispatchWaits estimates each pool task's wait between feed and start
// from the service trace (ms). A feed is the KindSlack event a stream
// records as it hands group g to the pool; a task span carries its
// group but not its stream, so feeds and task starts of each group
// index are paired in order — exact while every stream has the same
// frame deadline, because dispatch is then earliest-feed-first.
func dispatchWaits(tl *obs.Timeline, from int64) []float64 {
	feeds := map[int][]int64{}
	starts := map[int][]int64{}
	for _, e := range tl.Events {
		if e.Start < from {
			continue
		}
		switch e.Kind {
		case obs.KindSlack:
			feeds[e.GOP] = append(feeds[e.GOP], e.Start)
		case obs.KindTask:
			starts[e.GOP] = append(starts[e.GOP], e.Start)
		}
	}
	var out []float64
	for g, f := range feeds {
		s := starts[g]
		sort.Slice(f, func(i, j int) bool { return f[i] < f[j] })
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for i := 0; i < len(f) && i < len(s); i++ {
			if w := s[i] - f[i]; w >= 0 {
				out = append(out, float64(w)/1e6)
			}
		}
	}
	return out
}
