package core

import "fmt"

// Resilience selects how much damage a decode survives. The ladder is
// cumulative: each tier keeps every recovery of the tiers below it and
// adds one more containment level, trading fidelity for availability.
//
// The contract across the ladder is determinism: for the same (possibly
// corrupted) stream and the same policy, every scheduling mode —
// sequential, GOP-parallel, and both slice-parallel variants — produces
// bit-identical frames and identical ErrorStats. All resilient decodes
// therefore run off one shared plan built from the lenient scan, and
// slices that share a macroblock row are serialized into a single task
// so corrupted row collisions cannot race.
type Resilience int

const (
	// FailFast aborts the decode on the first damage (the default).
	FailFast Resilience = iota
	// ConcealSlice makes damaged slices non-fatal: decode resynchronizes
	// at the next slice startcode and the lost macroblocks are filled by
	// zero-vector temporal concealment. Picture-level damage (an
	// unreadable picture header, a missing reference) still fails.
	ConcealSlice
	// ConcealPicture additionally survives picture-level damage: a
	// picture that cannot be decoded at all is substituted by a repeat
	// of the nearest preceding reference frame (mid-grey when none
	// exists) and counted as dropped.
	ConcealPicture
	// DropGOP additionally drops a group of pictures outright when it
	// contains no decodable intra picture to anchor on — substituting an
	// entire GOP from a stale reference would only smear garbage.
	DropGOP
)

func (r Resilience) String() string {
	switch r {
	case FailFast:
		return "failfast"
	case ConcealSlice:
		return "conceal-slice"
	case ConcealPicture:
		return "conceal-picture"
	case DropGOP:
		return "drop-gop"
	}
	return fmt.Sprintf("Resilience(%d)", int(r))
}

// ParseResilience reads a policy name as printed by String.
func ParseResilience(s string) (Resilience, error) {
	switch s {
	case "failfast", "fail-fast", "":
		return FailFast, nil
	case "conceal-slice", "conceal", "slice":
		return ConcealSlice, nil
	case "conceal-picture", "picture":
		return ConcealPicture, nil
	case "drop-gop", "gop":
		return DropGOP, nil
	}
	return FailFast, fmt.Errorf("core: unknown resilience policy %q (failfast, conceal-slice, conceal-picture, drop-gop)", s)
}

// ErrorStats accounts for everything a resilient decode had to recover
// from. For a given stream and policy the stats are identical across all
// scheduling modes (every counter is derived from the shared plan or
// from deterministic per-slice decode outcomes, never from scheduling).
type ErrorStats struct {
	// DamagedSlices counts scanned slices whose parse or reconstruction
	// failed.
	DamagedSlices int `json:"damaged_slices"`
	// Resyncs counts damaged slices after which decode recovered to a
	// later slice startcode within the same picture.
	Resyncs int `json:"resyncs"`
	// ConcealedMBs counts macroblocks filled by temporal concealment.
	ConcealedMBs int `json:"concealed_mbs"`
	// DroppedPictures counts pictures never decoded from the bitstream:
	// substituted by a reference repeat (ConcealPicture) or lost with
	// their GOP (DropGOP).
	DroppedPictures int `json:"dropped_pictures"`
	// DroppedGOPs counts groups of pictures removed entirely.
	DroppedGOPs int `json:"dropped_gops"`
}

// Add accumulates o into e.
func (e *ErrorStats) Add(o ErrorStats) {
	e.DamagedSlices += o.DamagedSlices
	e.Resyncs += o.Resyncs
	e.ConcealedMBs += o.ConcealedMBs
	e.DroppedPictures += o.DroppedPictures
	e.DroppedGOPs += o.DroppedGOPs
}

// Any reports whether any damage was recovered from.
func (e ErrorStats) Any() bool { return e != ErrorStats{} }

func (e ErrorStats) String() string {
	return fmt.Sprintf("damaged slices %d, resyncs %d, concealed MBs %d, dropped pictures %d, dropped GOPs %d",
		e.DamagedSlices, e.Resyncs, e.ConcealedMBs, e.DroppedPictures, e.DroppedGOPs)
}
