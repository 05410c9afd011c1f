// Command perfbench is the repository benchmark: it drives the public
// decode API the way a user does — single-stream Decode and the
// multi-stream Server — on seeded synthetic D1 inputs, checks every
// delivered frame against a sequential-decoder oracle, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	go run . --workload vod|live|overload --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced layer walk and a traced public-path run and reports
// the per-layer metrics. See NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "vod, live or overload")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.workers)

	var res *result
	var err error
	switch cfg.workload {
	case "vod":
		res, err = runVOD(cfg)
	case "live":
		res, err = runLive(cfg, liveStreams)
	case "overload":
		res, err = runLive(cfg, overloadStreams)
	default:
		err = fmt.Errorf("unknown workload %q (want vod, live or overload)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// timedSetup runs fn setupReps times and returns the last product and
// the median duration. Every repetition must produce the same inputs
// (same is the caller's equality check), which also proves that the
// seed alone determines them. release, when set, disposes of each
// product but the one returned.
func timedSetup[T any](fn func() (T, error), same func(a, b T) bool, release func(T)) (T, float64, error) {
	var last T
	var durs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		if i > 0 {
			ok := same(last, v)
			if release != nil {
				release(last)
			}
			if !ok {
				return v, 0, fmt.Errorf("set-up is not deterministic: repetition %d differs", i)
			}
		}
		last = v
		runtime.GC()
	}
	return last, median(durs), nil
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// note prints a human-readable line before the JSON result.
func note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}
