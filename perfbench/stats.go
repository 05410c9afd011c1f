package main

import (
	"math"
	"sort"
	"time"
)

// tail applies the benchmark's percentile rule to samples: it reports
// the q-quantile (nearest rank) when at least ten samples lie beyond
// it, and otherwise the highest quantile that still has ten samples
// beyond it — never below the median. It returns the value, the
// quantile actually reported, and the sample count.
func tail(samples []float64, q float64) (v, qUsed float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if limit := n - 11; idx > limit {
		idx = limit
	}
	if med := (n+1)/2 - 1; idx < med {
		idx = med
	}
	return s[idx], float64(idx+1) / float64(n), n
}

// median returns the middle sample (the mean of the two middle ones for
// an even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is what the viewer saw of one due frame.
type outcome struct {
	delivered bool
	exact     bool          // delivered and bit-exact with the oracle
	late      time.Duration // delivery time minus due time
}

// tally accounts frames due across streams. Every due frame lands in
// exactly one of ontime, late, substituted and undelivered.
type tally struct {
	due         int
	ontime      int // bit-exact within the budget of its due time
	late        int // bit-exact but past the budget
	substituted int // delivered but not the oracle's frame (shed or degraded)
	undelivered int // never reached the sink: rejected, failed, cancelled
	lateness    []float64
}

// add accounts one stream's frames. A stream that never got a session
// (rejected at admission) passes nil outcomes with its due count.
func (t *tally) add(due int, frames []outcome, budget time.Duration) {
	t.due += due
	delivered := 0
	for _, f := range frames {
		if !f.delivered {
			continue
		}
		delivered++
		t.lateness = append(t.lateness, float64(f.late)/float64(time.Millisecond))
		switch {
		case !f.exact:
			t.substituted++
		case f.late <= budget:
			t.ontime++
		default:
			t.late++
		}
	}
	t.undelivered += due - delivered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
