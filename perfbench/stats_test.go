package main

import (
	"reflect"
	"testing"
	"time"

	"mpeg2par/internal/obs"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n     int
		q     float64
		want  float64
		wantQ float64
	}{
		{1000, 0.99, 990, 0.99}, // ten samples beyond p99: reported as asked
		{1100, 0.99, 1089, 0.99},
		{100, 0.99, 90, 0.90},   // p99 has one sample beyond; p90 has ten
		{15, 0.99, 8, 8.0 / 15}, // never below the median
		{1, 0.99, 1, 1},
	}
	for _, c := range cases {
		v, q, n := tail(seq(c.n), c.q)
		if v != c.want || q != c.wantQ || n != c.n {
			t.Errorf("tail(%d samples, %v) = %v at q %v of %d, want %v at q %v", c.n, c.q, v, q, n, c.want, c.wantQ)
		}
	}
	if v, q, n := tail(nil, 0.99); v != 0 || q != 0 || n != 0 {
		t.Errorf("tail(no samples) = %v, %v, %d", v, q, n)
	}
}

func TestTallyOnTimeAccounting(t *testing.T) {
	var ty tally
	// A rejected stream: every due frame is undelivered.
	ty.add(4, nil, budget)
	// A served stream with one of each fate.
	ty.add(5, []outcome{
		{delivered: true, exact: true, late: 100 * time.Millisecond},    // on time
		{delivered: true, exact: true, late: budget},                    // on time, at the limit
		{delivered: true, exact: true, late: budget + time.Millisecond}, // late
		{delivered: true, exact: false, late: -10 * time.Millisecond},   // shed: substituted
		{delivered: false, exact: false, late: 0},                       // never delivered
	}, budget)
	want := tally{due: 9, ontime: 2, late: 1, substituted: 1, undelivered: 5}
	if ty.due != want.due || ty.ontime != want.ontime || ty.late != want.late ||
		ty.substituted != want.substituted || ty.undelivered != want.undelivered {
		t.Fatalf("tally = %+v, want %+v", ty, want)
	}
	if got := ty.ontime + ty.late + ty.substituted + ty.undelivered; got != ty.due {
		t.Errorf("fates sum to %d of %d due frames", got, ty.due)
	}
	if len(ty.lateness) != 4 {
		t.Errorf("%d latency samples, want one per delivered frame (4)", len(ty.lateness))
	}
	if r := ratio(ty.ontime, ty.due); r != 2.0/9 {
		t.Errorf("on-time ratio %v, want 2/9", r)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	window := 10 * time.Second
	a := schedule(7, liveStreams, window, liveGOPs)
	b := schedule(7, liveStreams, window, liveGOPs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, liveStreams, window, liveGOPs)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// Conditioned on its expected count: mean concurrency × window / life.
	if want := 133; len(a) != want {
		t.Errorf("%d arrivals, want %d", len(a), want)
	}
	for i, x := range a {
		if x.at < 0 || x.at >= window || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v: outside the window or out of order", i, x.at)
		}
		for _, g := range x.order {
			if g < 0 || g >= liveGOPs {
				t.Fatalf("arrival %d plays GOP %d of %d", i, g, liveGOPs)
			}
		}
	}
}

func TestSpanSelfTimes(t *testing.T) {
	r := &spanRec{spans: []span{
		{name: "walk", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 50, end: 60, parent: 0},
		{name: "a", start: 70, end: 75, parent: 0},
	}}
	self, roots := r.selfTimes()
	if roots != 100 || self["walk"] != 55 || self["a"] != 35 || self["b"] != 10 {
		t.Fatalf("self times %v, roots %v", self, roots)
	}
	data, err := r.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
}
