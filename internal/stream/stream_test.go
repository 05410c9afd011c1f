package stream_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpeg2par/internal/core"
	"mpeg2par/internal/encoder"
	"mpeg2par/internal/faults"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/stream"
)

var streamCache sync.Map

type streamKey struct{ w, h, pics, gop int }

func testStream(t testing.TB, w, h, pics, gop int) []byte {
	t.Helper()
	key := streamKey{w, h, pics, gop}
	if v, ok := streamCache.Load(key); ok {
		return v.([]byte)
	}
	res, err := encoder.EncodeSequence(encoder.Config{
		Width: w, Height: h, Pictures: pics, GOPSize: gop,
		RepeatSequenceHeader: true,
	}, frame.NewSynth(w, h))
	if err != nil {
		t.Fatal(err)
	}
	streamCache.Store(key, res.Data)
	return res.Data
}

// segReader yields the stream split at fixed offsets: each Read returns
// at most the remainder of the current segment, forcing the window
// scanner to see exactly the chosen boundaries.
type segReader struct {
	data []byte
	cuts []int // ascending split offsets
	pos  int
}

func (r *segReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	for _, c := range r.cuts {
		if c > r.pos && c < end {
			end = c
		}
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

func mustBatchScan(t *testing.T, data []byte, lenient bool) *core.StreamMap {
	t.Helper()
	scan := core.Scan
	if lenient {
		scan = core.ScanLenient
	}
	m, err := scan(data)
	if err != nil {
		t.Fatal(err)
	}
	m.ScanTime = 0
	return m
}

func TestScanReaderMatchesBatchAcrossChunkSizes(t *testing.T) {
	data := testStream(t, 80, 48, 12, 4)
	want := mustBatchScan(t, data, false)
	for _, chunk := range []int{1, 2, 3, 4, 5, 7, 13, 31, 64, 257, 4096, 1 << 20} {
		got, err := stream.ScanReader(bytes.NewReader(data), chunk, false)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		got.ScanTime = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: stream map differs from batch scan", chunk)
		}
	}
}

// TestScanBoundaryStraddle splits the stream at every single byte
// offset — covering every possible startcode straddle, including the
// 0x00|0x00 0x01, 0x00 0x00|0x01, and 0x00 0x00 0x01|code cuts — and
// demands the identical map each time.
func TestScanBoundaryStraddle(t *testing.T) {
	data := testStream(t, 48, 32, 4, 2)
	want := mustBatchScan(t, data, false)
	for k := 1; k < len(data); k++ {
		got, err := stream.ScanReader(&segReader{data: data, cuts: []int{k}}, len(data), false)
		if err != nil {
			t.Fatalf("split at %d: %v", k, err)
		}
		got.ScanTime = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d: stream map differs from batch scan", k)
		}
	}
}

func FuzzStreamScan(f *testing.F) {
	data := testStream(f, 48, 32, 4, 2)
	f.Add(data, 7)
	f.Add(data[:len(data)/2], 3)
	f.Add(data[5:], 64)
	mut := append([]byte(nil), data...)
	for i := 13; i < len(mut); i += 97 {
		mut[i] ^= 0x41
	}
	f.Add(mut, 11)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		c := chunk % 977
		if c < 1 {
			c = 1 - c
		}
		want, wantErr := core.ScanLenient(data)
		got, gotErr := stream.ScanReader(bytes.NewReader(data), c, true)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("chunk %d: stream err=%v, batch err=%v", c, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		got.ScanTime, want.ScanTime = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: stream map differs from batch scan", c)
		}
	})
}

type collectSink struct {
	mu     sync.Mutex
	frames []*frame.Frame
}

func (c *collectSink) add(f *frame.Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f.Clone())
	c.mu.Unlock()
}

var allModes = []core.Mode{core.ModeSequential, core.ModeGOP, core.ModeSliceSimple, core.ModeSliceImproved}

var allPolicies = []core.Resilience{core.FailFast, core.ConcealSlice, core.ConcealPicture, core.DropGOP}

// TestStreamingMatchesBatchGolden is the pipeline's bit-identity
// contract: every mode × policy, streamed chunk by chunk through an
// io.Reader, must produce the frames and error accounting of the batch
// sequential reference — on clean and on damaged streams.
func TestStreamingMatchesBatchGolden(t *testing.T) {
	clean := testStream(t, 96, 64, 12, 4)
	inputs := [][]byte{clean}
	for _, spec := range []string{"burst:count=2,len=24", "droppic:1"} {
		sp, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		mut, _ := sp.Apply(clean, 2)
		inputs = append(inputs, mut)
	}
	for di, data := range inputs {
		for _, policy := range allPolicies {
			if policy == core.FailFast && di != 0 {
				continue // damaged streams are for the resilient policies
			}
			var refSink collectSink
			refSt, refErr := core.Decode(data, core.Options{
				Mode: core.ModeSequential, Workers: 1, Resilience: policy, Sink: refSink.add,
			})
			for _, mode := range allModes {
				for _, chunk := range []int{997, 64 << 10} {
					if refErr != nil {
						// Damage the policy cannot absorb: streaming must
						// fail wherever batch fails.
						_, err := stream.Decode(context.Background(), bytes.NewReader(data), stream.Options{
							Options:   core.Options{Mode: mode, Workers: 3, Resilience: policy},
							ChunkSize: chunk,
						})
						if err == nil {
							t.Fatalf("input %d %v %v chunk %d: decoded cleanly where batch failed (%v)",
								di, policy, mode, chunk, refErr)
						}
						continue
					}
					var sink collectSink
					st, err := stream.Decode(context.Background(), bytes.NewReader(data), stream.Options{
						Options: core.Options{
							Mode: mode, Workers: 3, Resilience: policy, Sink: sink.add,
						},
						ChunkSize: chunk,
					})
					if err != nil {
						t.Fatalf("input %d %v %v chunk %d: %v", di, policy, mode, chunk, err)
					}
					if st.Pictures != refSt.Pictures || st.Displayed != refSt.Displayed {
						t.Fatalf("input %d %v %v chunk %d: %d/%d pictures displayed, batch %d/%d",
							di, policy, mode, chunk, st.Displayed, st.Pictures, refSt.Displayed, refSt.Pictures)
					}
					if st.Errors != refSt.Errors {
						t.Fatalf("input %d %v %v chunk %d: error stats %+v, batch %+v",
							di, policy, mode, chunk, st.Errors, refSt.Errors)
					}
					if len(sink.frames) != len(refSink.frames) {
						t.Fatalf("input %d %v %v chunk %d: %d frames, batch %d",
							di, policy, mode, chunk, len(sink.frames), len(refSink.frames))
					}
					for i := range refSink.frames {
						if !sink.frames[i].Equal(refSink.frames[i]) {
							t.Fatalf("input %d %v %v chunk %d: frame %d differs from batch",
								di, policy, mode, chunk, i)
						}
					}
					if st.LeakedFrameBytes != 0 {
						t.Fatalf("input %d %v %v chunk %d: leaked %d frame bytes",
							di, policy, mode, chunk, st.LeakedFrameBytes)
					}
				}
			}
		}
	}
}

// TestPeakInFlightBounded is the memory acceptance: decoding an N-GOP
// stream through a reader must hold buffered bitstream bytes to the
// scan-ahead window plus one group, never the stream length.
func TestPeakInFlightBounded(t *testing.T) {
	data := testStream(t, 80, 48, 96, 4)
	m := mustBatchScan(t, data, false)
	maxGOP := 0
	for _, g := range m.GOPs {
		if n := g.End - g.Offset; n > maxGOP {
			maxGOP = n
		}
	}
	const chunk = 1024
	const maxInFlight = 2
	var sink collectSink
	st, err := stream.Decode(context.Background(), bytes.NewReader(data), stream.Options{
		Options: core.Options{
			Mode: core.ModeGOP, Workers: 2, MaxInFlight: maxInFlight, Sink: sink.add,
		},
		ChunkSize: chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Displayed != m.TotalPictures {
		t.Fatalf("displayed %d of %d", st.Displayed, m.TotalPictures)
	}
	if st.PeakInFlightBytes <= 0 {
		t.Fatal("PeakInFlightBytes not recorded")
	}
	// Window slots can each pin a GOP-sized unit; the scan window holds
	// at most the open GOP plus scan-ahead and read slack.
	bound := int64((maxInFlight+2)*maxGOP + 4*chunk + core.ScanAheadBytes)
	if st.PeakInFlightBytes > bound {
		t.Fatalf("peak in-flight %d exceeds bound %d (max GOP %d)", st.PeakInFlightBytes, bound, maxGOP)
	}
	if bound >= int64(len(data)) {
		t.Fatalf("vacuous bound: stream %d bytes <= bound %d; enlarge the test stream", len(data), bound)
	}
}

// TestScanLeadGauge pins the scan-lead gauge: with the display held
// back, the scan process must run ahead by more than one group.
func TestScanLeadGauge(t *testing.T) {
	data := testStream(t, 80, 48, 12, 4)
	first := true
	sink := func(f *frame.Frame) {
		if first {
			first = false
			time.Sleep(30 * time.Millisecond)
		}
	}
	st, err := stream.Decode(context.Background(), bytes.NewReader(data), stream.Options{
		Options: core.Options{Mode: core.ModeGOP, Workers: 2, MaxInFlight: 4, Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ScanLeadPeak < 8 {
		t.Fatalf("scan-lead peak %d; want the scanner at least two GOPs ahead of display", st.ScanLeadPeak)
	}
}

// waitGoroutines polls until the goroutine count returns to the
// baseline (workers and display must not outlive Decode).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running (baseline %d)\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancellation cancels mid-decode at several injection points in
// every mode and asserts clean teardown: context error surfaced, no
// goroutine leaks, no frame-pool buffer loss.
func TestCancellation(t *testing.T) {
	data := testStream(t, 64, 48, 12, 4)
	cancelled := 0
	for _, mode := range allModes {
		for _, after := range []int{0, 1, 3} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			shown := 0
			sink := func(f *frame.Frame) {
				shown++
				if shown == after {
					cancel()
				}
			}
			if after == 0 {
				cancel() // cancelled before the first byte
			}
			st, err := stream.Decode(ctx, bytes.NewReader(data), stream.Options{
				Options: core.Options{
					Mode: mode, Workers: 3, MaxInFlight: 1,
					Resilience: core.ConcealSlice, Sink: sink,
				},
				ChunkSize: 512,
			})
			cancel()
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v after=%d: error %v, want context.Canceled", mode, after, err)
				}
				cancelled++
			} else if st.Displayed != st.Pictures {
				t.Fatalf("%v after=%d: clean run displayed %d of %d", mode, after, st.Displayed, st.Pictures)
			}
			if st == nil {
				t.Fatalf("%v after=%d: nil stats", mode, after)
			}
			if st.LeakedFrameBytes != 0 {
				t.Fatalf("%v after=%d: leaked %d frame bytes", mode, after, st.LeakedFrameBytes)
			}
			waitGoroutines(t, base)
		}
	}
	if cancelled < len(allModes) {
		t.Fatalf("only %d runs actually cancelled; injection points too late", cancelled)
	}
}

// TestDeadline exercises context.WithTimeout through the same teardown
// path (the cmd-level -timeout flag rides on this).
func TestDeadline(t *testing.T) {
	data := testStream(t, 64, 48, 12, 4)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	st, err := stream.Decode(ctx, bytes.NewReader(data), stream.Options{
		Options: core.Options{Mode: core.ModeSliceImproved, Workers: 2},
	})
	if err == nil {
		t.Fatal("expired deadline must fail the decode")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	if st.LeakedFrameBytes != 0 {
		t.Fatalf("leaked %d frame bytes", st.LeakedFrameBytes)
	}
	waitGoroutines(t, base)
}

// TestFailFastErrorTeardown: a decode error (not cancellation) must
// also tear down without leaking goroutines or frames.
func TestFailFastErrorTeardown(t *testing.T) {
	data := append([]byte(nil), testStream(t, 64, 48, 12, 4)...)
	sp, err := faults.Parse("truncate:0.6")
	if err != nil {
		t.Fatal(err)
	}
	mut, _ := sp.Apply(data, 1)
	for _, mode := range allModes {
		base := runtime.NumGoroutine()
		st, err := stream.Decode(context.Background(), bytes.NewReader(mut), stream.Options{
			Options: core.Options{Mode: mode, Workers: 2, Resilience: core.FailFast},
		})
		if err == nil {
			t.Fatalf("%v: truncated stream decoded cleanly under FailFast", mode)
		}
		if st.LeakedFrameBytes != 0 {
			t.Fatalf("%v: leaked %d frame bytes", mode, st.LeakedFrameBytes)
		}
		waitGoroutines(t, base)
	}
}

// excisedSliceStream cuts one slice out of the first picture of the
// second group: the stream still scans cleanly, but under FailFast that
// picture's uncovered macroblocks fail its decode task.
func excisedSliceStream(t *testing.T, data []byte) []byte {
	t.Helper()
	sl := mustBatchScan(t, data, false).GOPs[1].Pictures[0].Slices[1]
	cut := append(append([]byte(nil), data[:sl.Offset]...), data[sl.End:]...)
	mustBatchScan(t, cut, false)
	return cut
}

// TestFailedTaskWakesBlockedFeeder: with a one-group window the scan
// process spends the decode blocked on the window, and in the slice
// modes a failed picture never frees its slot. A FailFast error in an
// early group of a long stream must wake the feeder in every mode: the
// decode returns that error, not a hang, and leaks neither goroutines
// nor frames.
func TestFailedTaskWakesBlockedFeeder(t *testing.T) {
	data := excisedSliceStream(t, testStream(t, 64, 48, 160, 4))
	for _, mode := range append(allModes, core.ModeAuto) {
		base := runtime.NumGoroutine()
		var st *core.Stats
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			st, err = stream.Decode(context.Background(), bytes.NewReader(data), stream.Options{
				Options: core.Options{Mode: mode, Workers: 2, MaxInFlight: 1, Resilience: core.FailFast},
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: decode still blocked 10s after its task failed", mode)
		}
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err %v, want the decode error", mode, err)
		}
		if st.LeakedFrameBytes != 0 {
			t.Fatalf("%v: leaked %d frame bytes", mode, st.LeakedFrameBytes)
		}
		waitGoroutines(t, base)
	}
}
