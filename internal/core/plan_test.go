package core

import (
	"testing"

	"mpeg2par/internal/encoder"
	"mpeg2par/internal/frame"
)

// TestSameRowSlicesAreSeparateTasks pins the slice grain on streams
// with several slices per macroblock row: every slice of a clean
// picture is its own queue task, bounded just before its same-row
// successor, and every mode still matches the sequential oracle. A row
// whose slices do not start at increasing addresses (here: one slice
// listed twice) stays one serialized row-group task.
func TestSameRowSlicesAreSeparateTasks(t *testing.T) {
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: 96, Height: 64, Pictures: 8, GOPSize: 4, SlicesPerRow: 3,
	}, frame.NewSynth(96, 64))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Scan(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := buildPlan(res.Data, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pl.pics {
		if p.nTasks != len(p.rng.Slices) || p.nTasks != 12 {
			t.Fatalf("picture %d: %d tasks for %d slices", i, p.nTasks, len(p.rng.Slices))
		}
		for si := 0; si+1 < len(p.rng.Slices); si++ {
			if p.rng.Slices[si+1].Row == p.rng.Slices[si].Row && p.bounds[si]/6 != p.rng.Slices[si].Row {
				t.Fatalf("picture %d slice %d: bound %d leaves its row", i, si, p.bounds[si])
			}
		}
	}

	want := sequentialFrames(t, res.Data)
	for _, mode := range []Mode{ModeGOP, ModeSliceSimple, ModeSliceImproved, ModeSequential} {
		for _, w := range []int{1, 3} {
			var sink collectSink
			if _, err := Decode(res.Data, Options{Mode: mode, Workers: w, Sink: sink.add}); err != nil {
				t.Fatalf("%v/%d: %v", mode, w, err)
			}
			if len(sink.frames) != len(want) {
				t.Fatalf("%v/%d: %d frames, want %d", mode, w, len(sink.frames), len(want))
			}
			for i := range want {
				if !sink.frames[i].Equal(want[i]) {
					t.Fatalf("%v/%d: frame %d differs from the sequential decoder", mode, w, i)
				}
			}
		}
	}

	p := pl.pics[0]
	dup := []SliceRange{p.rng.Slices[0], p.rng.Slices[0], p.rng.Slices[3]}
	bounds := sliceSpanBounds(dup, &p.params)
	groups := buildRowGroups(res.Data, dup, bounds, p.params.MBWidth)
	if len(groups) != 2 || len(groups[0]) != 2 {
		t.Fatalf("colliding same-row slices planned as %v, want one serialized row group", groups)
	}
}
