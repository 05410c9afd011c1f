package core

import (
	"fmt"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/vlc"
)

// picFate is the plan's verdict on one picture.
type picFate int

const (
	// fateDecode reconstructs the picture from its bitstream slices
	// (concealing whatever the damaged slices leave uncovered).
	fateDecode picFate = iota
	// fateSubstitute never touches the bitstream: the picture's frame is a
	// copy of the nearest preceding reference (mid-grey when none exists).
	fateSubstitute
)

// plan is the resolved decode schedule of a run. Every policy
// decision — which pictures decode, which are substituted from what,
// which GOPs are dropped, and which display slot each output occupies —
// is made here, once, before any worker starts. That is what makes the
// determinism contract hold: the scheduling modes merely execute the
// same plan in different orders, and the plan leaves no decision to
// execution order.
type plan struct {
	pics []*picState
	// pre holds the plan-time error accounting (dropped pictures and
	// GOPs); slice-level damage is discovered during execution.
	pre ErrorStats
	// shed holds the plan-time degradation accounting: pictures
	// sacrificed by load shedding or recovered only because the service
	// degraded the stream's resilience policy. Kept apart from pre so
	// deliberate degradation never masquerades as (or double-counts
	// with) decode errors.
	shed ShedStats
}

// planBuilder grows a plan one group of pictures at a time. A batch
// decode feeds it every GOP of a finished scan; the streaming path feeds
// it each GOP as the incremental scanner closes it — the decisions are
// identical because nothing in the planning of a GOP looks ahead.
type planBuilder struct {
	seq     *mpeg2.SequenceHeader
	policy  Resilience
	packing Packing
	seed    int64
	pl      plan

	// Intra-slice split configuration (setSplit): when on, every planned
	// single-slice row group whose slice spans multiple rows is expanded
	// into segment tasks. scratch recycles the speculative probe buffer
	// across planned pictures (addGOP runs on one goroutine).
	splitOn  bool
	splitOpt Options
	scratch  []mpeg2.MB

	displayBase int
	lastRef     int // most recent reference picture, across GOPs (a
	// scheduling barrier for the improved slice mode, not a data
	// dependency: prediction references never cross GOP boundaries here).

	// Degradation inputs (the multi-stream service sets them between
	// addGOP calls; single-stream decodes leave them zero). shed selects
	// load shedding for subsequently planned groups; degraded bumps the
	// effective resilience policy to at least ConcealPicture so damage
	// that would fail the stream under its requested policy is
	// substituted instead (and accounted as degradation, not as error).
	shed     ShedLevel
	degraded bool
}

func newPlanBuilder(seq *mpeg2.SequenceHeader, policy Resilience, packing Packing, seed int64) *planBuilder {
	return &planBuilder{seq: seq, policy: policy, packing: packing, seed: seed, lastRef: -1}
}

// setSplit arms intra-slice task splitting for subsequently planned
// groups (no-op unless opt configures a split source and a slice-grain
// mode — the sequential and GOP executors iterate row groups whole, so
// splitting would only waste plan-time probing there).
func (b *planBuilder) setSplit(opt Options) {
	if splitEligible(opt) {
		b.splitOn = true
		b.splitOpt = opt
	}
}

// buildPlan resolves a lenient (or strict) scan into a decode plan under
// the given resilience policy — a batch decode's whole-stream plan.
// FailFast and ConcealSlice treat picture-level damage as a hard error;
// ConcealPicture substitutes such pictures; DropGOP additionally removes
// groups with no decodable intra anchor.
func buildPlan(data []byte, m *StreamMap, opt Options) (*plan, error) {
	b := newPlanBuilder(&m.Seq, opt.Resilience, opt.Packing, opt.PackSeed)
	b.setSplit(opt)
	for g := range m.GOPs {
		if _, err := b.addGOP(data, g, &m.GOPs[g]); err != nil {
			return nil, err
		}
	}
	return &b.pl, nil
}

// addGOP plans one group of pictures. data holds the bytes the group's
// offsets index into — the whole stream on a batch decode, the group's
// own copied buffer on the streaming path (each planned picture keeps a
// reference to it). It returns the pictures appended to the plan, nil
// when the policy dropped the group.
func (b *planBuilder) addGOP(data []byte, g int, gop *GOPRange) ([]*picState, error) {
	policy := b.policy
	degradedRun := false
	if b.degraded && policy < ConcealPicture {
		// The overload ladder's resilience floor: keep the stream alive
		// through damage its requested policy would have failed on.
		policy = ConcealPicture
		degradedRun = true
	}
	pl := &b.pl
	n := len(gop.Pictures)
	if n == 0 {
		return nil, nil
	}

	// Pass 1: parse every picture header that survived the scan.
	cands := make([]*picState, n)
	for pi := range gop.Pictures {
		pr := &gop.Pictures[pi]
		ps := &picState{rng: pr, data: data, gop: g, fwd: -1, bwd: -1, lastRef: -1, subFrom: -1}
		if pr.Damaged {
			if policy <= ConcealSlice {
				return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: unreadable picture header", g, pi, pr.Offset)
			}
		} else {
			ps.typeKnown = true
			r := bits.NewReader(data[:pr.End])
			r.SeekBit(int64(pr.Offset+4) * 8)
			hdr, err := mpeg2.ParsePictureHeader(r)
			if err != nil {
				if policy <= ConcealSlice {
					return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: %w", g, pi, pr.Offset, err)
				}
				// The scan's cheap two-byte prefix still identified the
				// type and temporal reference; keep them so the
				// substitute can slide the reference window correctly.
				ps.hdr.Type = pr.Type
				ps.hdr.TemporalReference = pr.TemporalRef
			} else {
				ps.hdr = hdr
				ps.headerOK = true
			}
		}
		if policy == FailFast && len(pr.Slices) == 0 {
			return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d has no slices", g, pi, pr.Offset)
		}
		cands[pi] = ps
	}

	// DropGOP: without a decodable intra picture there is nothing to
	// anchor the group's predictions on; substituting every picture
	// from a stale reference would only smear garbage forward.
	if policy >= DropGOP {
		anchor := false
		for _, ps := range cands {
			if ps.headerOK && ps.hdr.Type == vlc.CodingI && len(ps.rng.Slices) > 0 {
				anchor = true
				break
			}
		}
		if !anchor {
			pl.pre.DroppedGOPs++
			pl.pre.DroppedPictures += n
			return nil, nil
		}
	}

	// Pass 2: display slots. Trustworthy headers claim their temporal
	// reference; everything else — damaged headers, out-of-range or
	// colliding references — fills the leftover slots in decode order.
	// The result is a permutation of [0,n), so the display process
	// never sees a gap or a duplicate no matter how mangled the
	// temporal references are.
	claimed := make([]int, n)
	slotOf := make([]int, n)
	for i := range claimed {
		claimed[i], slotOf[i] = -1, -1
	}
	for pi, ps := range cands {
		if !ps.headerOK {
			continue
		}
		t := ps.hdr.TemporalReference
		if t >= 0 && t < n && claimed[t] < 0 {
			claimed[t], slotOf[pi] = pi, t
		} else if policy == FailFast {
			return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: temporal reference %d out of range or duplicate", g, pi, ps.rng.Offset, t)
		}
	}
	next := 0
	for pi := range cands {
		if slotOf[pi] >= 0 {
			continue
		}
		for claimed[next] >= 0 {
			next++
		}
		claimed[next], slotOf[pi] = pi, next
	}

	// Pass 3: resolve references and fates in decode order. The
	// reference window resets at every GOP boundary — the price of
	// keeping GOP tasks independent (the coarse-grained mode decodes
	// them in any order), paid identically by every mode.
	first := len(pl.pics)
	refOld, refNew := -1, -1
	for pi, ps := range cands {
		ps.displayIdx = b.displayBase + slotOf[pi]
		ps.lastRef = b.lastRef
		ps.isRef = ps.typeKnown && ps.hdr.Type != vlc.CodingB
		ps.params = decoder.PictureParams(b.seq, &ps.hdr)

		switch {
		case !ps.headerOK:
			ps.fate = fateSubstitute
		case ps.hdr.Type == vlc.CodingP && refNew < 0,
			ps.hdr.Type == vlc.CodingB && (refOld < 0 || refNew < 0):
			if policy <= ConcealSlice {
				return nil, fmt.Errorf("core: GOP %d: picture %d at byte %d: %s picture without reference", g, pi, ps.rng.Offset, ps.hdr.Type)
			}
			ps.fate = fateSubstitute
		default:
			ps.fate = fateDecode
			switch ps.hdr.Type {
			case vlc.CodingP:
				ps.fwd = refNew
			case vlc.CodingB:
				ps.fwd, ps.bwd = refOld, refNew
			}
		}

		// Load shedding: convert decodable pictures the ladder sacrifices
		// into substitutions. B pictures go first (references never read
		// them, so the survivors stay bit-identical); ShedRef adds P
		// pictures, leaving only intra anchors decoding.
		if ps.fate == fateDecode && b.shed != ShedNone && ps.headerOK {
			switch {
			case ps.hdr.Type == vlc.CodingB && b.shed >= ShedB:
				ps.shedBy = ShedB
			case ps.hdr.Type == vlc.CodingP && b.shed >= ShedRef:
				ps.shedBy = ShedRef
			}
			if ps.shedBy != ShedNone {
				ps.fate = fateSubstitute
				ps.fwd, ps.bwd = -1, -1
			}
		}

		if ps.fate == fateSubstitute {
			ps.subFrom = refNew
			ps.nTasks = 1
			switch {
			case ps.shedBy == ShedB:
				pl.shed.BPictures++
			case ps.shedBy == ShedRef:
				pl.shed.RefPictures++
			case degradedRun:
				// Only recoverable because the ladder degraded the policy:
				// under the stream's own policy this damage would have
				// failed the decode, so it is degradation, not an error
				// drop — the two never double-count.
				pl.shed.DegradedPictures++
			default:
				pl.pre.DroppedPictures++
			}
		} else {
			ps.bounds = sliceSpanBounds(ps.rng.Slices, &ps.params)
			ps.groups = buildRowGroups(data, ps.rng.Slices, ps.bounds, ps.params.MBWidth)
			if len(ps.groups) == 0 {
				// A picture whose every slice was destroyed still owns a
				// display slot: one empty task, then full concealment.
				ps.groups = [][]int{nil}
			}
			ps.nTasks = len(ps.groups)
			// Pack the row-group tasks for the slice queue. The key is
			// the plan index, identical on the batch and streaming paths,
			// so a seeded packing is reproducible across both.
			costs := make([]int64, len(ps.groups))
			for gi, grp := range ps.groups {
				costs[gi] = groupCost(ps.rng.Slices, grp)
			}
			ps.order = packOrder(costs, b.packing, b.seed+int64(len(pl.pics)))
			if b.splitOn {
				buildSplitTasks(ps, data, b.splitOpt, b.seed+int64(len(pl.pics)), &b.scratch)
			}
		}
		ps.remaining = ps.nTasks

		// holds are the frames this picture reads (prediction
		// references or substitution source); each is retained on the
		// holder's behalf and released when the holder completes.
		idx := len(pl.pics)
		ps.idx = idx
		for _, ri := range []int{ps.fwd, ps.bwd, ps.subFrom} {
			if ri < 0 || contains(ps.holds, ri) {
				continue
			}
			ps.holds = append(ps.holds, ri)
			pl.pics[ri].deps++
		}
		pl.pics = append(pl.pics, ps)
		if ps.isRef {
			refOld, refNew = refNew, idx
			b.lastRef = idx
		}
	}
	b.displayBase += n
	return pl.pics[first:], nil
}

// buildRowGroups partitions a picture's slices into tasks, preserving
// scan order within each. Slices starting on different rows write
// disjoint pixels (each is bounded by the next claimed row, see
// sliceSpanBounds), so they are separate tasks that may run on any
// workers in any order. Slices sharing a row are separate tasks too when
// their first macroblock addresses parse and strictly increase in scan
// order: each one's bound in bounds is then tightened to end just before
// its successor's first macroblock, which keeps them as disjoint as
// slices of different rows — the paper's slice grain on streams with
// several slices per row. Otherwise (damage made them collide) they
// serialize inside one row-group task, so the order of their
// overlapping writes is fixed. On a clean stream every slice is one
// task.
func buildRowGroups(data []byte, slices []SliceRange, bounds []int, mbw int) [][]int {
	var rows [][]int
	byRow := make(map[int]int)
	for si := range slices {
		if gi, ok := byRow[slices[si].Row]; ok {
			rows[gi] = append(rows[gi], si)
		} else {
			byRow[slices[si].Row] = len(rows)
			rows = append(rows, []int{si})
		}
	}
	groups := make([][]int, 0, len(slices))
	for _, row := range rows {
		if len(row) > 1 && disjointRow(data, slices, row, bounds, mbw) {
			for _, si := range row {
				groups = append(groups, []int{si})
			}
			continue
		}
		groups = append(groups, row)
	}
	return groups
}

// disjointRow reports whether the same-row slices of row (in scan
// order) start at strictly increasing macroblock addresses inside that
// row and, if so, bounds each slice but the last just before its
// successor's first macroblock.
func disjointRow(data []byte, slices []SliceRange, row []int, bounds []int, mbw int) bool {
	starts := make([]int, len(row))
	for k, si := range row {
		sr := slices[si]
		a := sliceStartAddr(data, sr, mbw)
		if a < sr.Row*mbw || a >= (sr.Row+1)*mbw || (k > 0 && a <= starts[k-1]) {
			return false
		}
		starts[k] = a
	}
	for k := 0; k+1 < len(row); k++ {
		bounds[row[k]] = starts[k+1] - 1
	}
	return true
}

// sliceStartAddr parses the slice header at sr and its first
// macroblock_address_increment, returning the slice's first macroblock
// address, or -1 when the bytes do not parse.
func sliceStartAddr(data []byte, sr SliceRange, mbw int) int {
	r := bits.NewReader(data[:sr.End])
	r.SeekBit(int64(sr.Offset) * 8)
	code, err := r.ReadStartCode()
	if err != nil || r.Read(5) == 0 { // quantiser_scale_code 0 is forbidden
		return -1
	}
	for r.ReadBit() { // extra_information_slice
		r.Skip(8)
	}
	inc, err := vlc.DecodeMBAddrInc(r)
	if err != nil || r.Err() != nil {
		return -1
	}
	return (int(code)-1)*mbw - 1 + inc
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
