package core

import "fmt"

// Affinity selects how slice/row-group tasks are matched to workers by
// the task queue. Like Packing, every affinity produces bit-identical
// output — tasks of one picture write disjoint pixels — so the choice is
// purely a locality decision.
//
// AffinityRow is the variant the cache-locality study adopted (see
// DESIGN.md): a worker prefers tasks whose macroblock row r satisfies
// r mod workers == worker index. Because motion compensation of row r
// reads roughly row r of the reference picture, the worker that wrote a
// reference row is the one that later reads it back, turning the
// cross-picture reference traffic into per-processor cache reuse. The
// preference is work-conserving: a worker with no matching task takes
// the head task instead of idling, so the schedule can never be worse
// than the unconstrained queue by more than the preference scan.
type Affinity int

const (
	// AffinityRow steers tasks to workers by row modulo worker count
	// (the default, adopted by the locality study).
	AffinityRow Affinity = iota
	// AffinityNone hands tasks out in pure queue order, matching the
	// paper's no-locality dynamic assignment.
	AffinityNone
)

func (a Affinity) String() string {
	switch a {
	case AffinityRow:
		return "row"
	case AffinityNone:
		return "none"
	}
	return fmt.Sprintf("Affinity(%d)", int(a))
}

// taskRow returns the macroblock row of picture task ti, or -1 when the
// task has no meaningful row (whole-picture substitutes, empty groups).
// Plan tasks are row groups, keyed by their first slice's row (a
// picture without a group table indexes its slices directly); segments
// of a split slice are keyed by the row their entry point starts on.
func taskRow(p *picState, ti int) int {
	if p.tasks != nil {
		if ti < 0 || ti >= len(p.tasks) {
			return -1
		}
		t := p.tasks[ti]
		if t.join != nil {
			if t.seg == 0 {
				return t.join.sr.Row
			}
			if mbw := p.params.MBWidth; mbw > 0 {
				return (t.join.pts[t.seg-1].State.PrevAddr + 1) / mbw
			}
			return -1
		}
		ti = t.base
	}
	if p.groups != nil {
		if ti < 0 || ti >= len(p.groups) || len(p.groups[ti]) == 0 {
			return -1
		}
		return p.rng.Slices[p.groups[ti][0]].Row
	}
	if p.rng == nil || ti < 0 || ti >= len(p.rng.Slices) {
		return -1
	}
	return p.rng.Slices[ti].Row
}
