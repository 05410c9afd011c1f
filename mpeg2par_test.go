package mpeg2par_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"mpeg2par"
)

var (
	streamOnce sync.Once
	stream     *mpeg2par.Stream
	streamErr  error
)

func testStream(t testing.TB) *mpeg2par.Stream {
	t.Helper()
	streamOnce.Do(func() {
		stream, streamErr = mpeg2par.GenerateStream(mpeg2par.StreamConfig{
			Width: 176, Height: 120, Pictures: 26, GOPSize: 13, BitRate: 2_000_000,
		})
	})
	if streamErr != nil {
		t.Fatal(streamErr)
	}
	return stream
}

// decodeAll is the sequential oracle: every frame of data in display
// order, from the sequential Decoder.
func decodeAll(data []byte) ([]*mpeg2par.Frame, error) {
	d, err := mpeg2par.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	return d.All()
}

func TestPublicRoundTrip(t *testing.T) {
	s := testStream(t)
	frames, err := decodeAll(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 26 {
		t.Fatalf("%d frames", len(frames))
	}
	src := mpeg2par.NewSynth(176, 120)
	for i, f := range frames {
		if p := mpeg2par.PSNR(src.Frame(i), f); p < 25 {
			t.Errorf("frame %d PSNR %.1f", i, p)
		}
	}
}

func TestPublicParallelMatches(t *testing.T) {
	s := testStream(t)
	want, err := decodeAll(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []mpeg2par.Mode{mpeg2par.ModeGOP, mpeg2par.ModeSliceSimple, mpeg2par.ModeSliceImproved} {
		var got []*mpeg2par.Frame
		st, err := mpeg2par.Decode(context.Background(), mpeg2par.FromBytes(s.Data),
			mpeg2par.WithMode(mode), mpeg2par.WithWorkers(3),
			mpeg2par.WithFrameSink(func(f *mpeg2par.Frame) { got = append(got, f.Clone()) }),
		)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if st.Pictures != len(want) || len(got) != len(want) {
			t.Fatalf("%v: %d/%d pictures", mode, st.Pictures, len(got))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("%v: frame %d differs", mode, i)
			}
		}
	}
}

func TestPublicScan(t *testing.T) {
	s := testStream(t)
	m, err := mpeg2par.ScanReader(bytes.NewReader(s.Data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GOPs) != 2 || m.TotalPictures != 26 {
		t.Fatalf("scan: %d GOPs, %d pictures", len(m.GOPs), m.TotalPictures)
	}
}

func TestPublicProfileAndSimulate(t *testing.T) {
	s := testStream(t)
	gops, err := mpeg2par.ProfileGOPs(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(gops) != 2 {
		t.Fatalf("%d GOP tasks", len(gops))
	}
	r1 := mpeg2par.SimulateGOP(gops, 1)
	r2 := mpeg2par.SimulateGOP(gops, 2)
	if r2.Makespan >= r1.Makespan {
		t.Fatalf("2 workers (%v) not faster than 1 (%v)", r2.Makespan, r1.Makespan)
	}

	pics, err := mpeg2par.ProfileSlices(s.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(pics) != 26 {
		t.Fatalf("%d picture profiles", len(pics))
	}
	simple := mpeg2par.SimulateSlices(pics, 6, false)
	improved := mpeg2par.SimulateSlices(pics, 6, true)
	if improved.Makespan > simple.Makespan {
		t.Fatal("improved slower than simple")
	}
	plain8 := mpeg2par.SimulateSlices(pics, 8, true)
	dsm8 := mpeg2par.SimulateSlicesDSM(pics, 8, true, mpeg2par.DSMConfig{ClusterSize: 4, RemoteFactor: 0.3})
	if dsm8.Makespan <= plain8.Makespan {
		t.Fatal("remote-miss penalty should slow the 8-worker DSM run vs the SMP run")
	}
}

func TestPublicTraceAndCache(t *testing.T) {
	s := testStream(t)
	events, err := mpeg2par.TraceDecode(s.Data, mpeg2par.ModeGOP, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	st, err := mpeg2par.SimulateCache(events, mpeg2par.CacheConfig{
		Size: 64 << 10, LineSize: 64, Assoc: 2, Procs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads == 0 || st.ReadMisses == 0 {
		t.Fatalf("implausible cache stats: %+v", st)
	}
	if _, err := mpeg2par.SimulateCache(events, mpeg2par.CacheConfig{Size: 100, LineSize: 3, Procs: 1}); err == nil {
		t.Fatal("bad cache config must fail")
	}
}

func TestPublicMemModel(t *testing.T) {
	m := mpeg2par.MemModel{
		Workers: 4, GOPs: 20, PicturesPerGOP: 13,
		FrameBytes: 352 * 240 * 3 / 2, BytesPerGOP: 300_000,
		ScanGOPsPerSec: 10, DecodeGOPsPerSec: 0.5, DisplayPicsPerSec: 30,
	}
	peak, err := m.Peak()
	if err != nil || peak <= 0 {
		t.Fatalf("peak %d err %v", peak, err)
	}
}

func TestEncodeFramesCustomSource(t *testing.T) {
	src := mpeg2par.NewSynth(96, 64)
	s, err := mpeg2par.EncodeFrames(mpeg2par.StreamConfig{
		Width: 96, Height: 64, Pictures: 4, GOPSize: 4,
	}, func(n int) *mpeg2par.Frame { return src.Frame(n) })
	if err != nil {
		t.Fatal(err)
	}
	frames, err := decodeAll(s.Data)
	if err != nil || len(frames) != 4 {
		t.Fatalf("%d frames, err %v", len(frames), err)
	}
}
