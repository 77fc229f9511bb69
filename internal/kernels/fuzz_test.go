package kernels

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"gminer/internal/graph"
)

// FuzzIntersectKernels cross-checks every intersection strategy — merge,
// gallop, bitset and the adaptive entry points — against a map-based
// oracle on arbitrary byte-derived operands. The raw bytes are first
// normalized into the sorted duplicate-free form the kernels require, so
// the fuzzer explores operand *shapes* (sizes, densities, overlaps),
// which is where intersection bugs live.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{0, 0, 0, 255}, []byte{255})
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21}, []byte{2, 4, 8, 16, 32, 64})
	// Skewed operands: the gallop arms of Intersect and IntersectPos, both ways.
	skew := make([]byte, 0, 80)
	for i := byte(0); i < 40; i++ {
		skew = append(skew, 0, 3*i)
	}
	f.Add([]byte{0, 9}, skew)
	f.Add(skew, []byte{0, 9, 0, 60})
	// A scratch that owns an index (a star on a 2^16-vertex universe): the
	// fuzzed operands are never rows of it, so it must never load them.
	ig := graph.New(1 << 16)
	for id := graph.VertexID(0); id < 1<<16; id++ {
		ig.AddVertex(id)
		if id > 0 && id < 64 {
			ig.AddEdge(0, id)
		}
	}
	ig.Freeze()
	owned := MustBuild(ig).GetScratch()
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := setFromBytes(rawA)
		b := setFromBytes(rawB)
		want := intersectOracle(a, b)

		if got := intersectMerge(nil, a, b); !sameSet(got, want) {
			t.Fatalf("merge %v, oracle %v (a=%v b=%v)", got, want, a, b)
		}
		if got := intersectGallop(nil, a, b); !sameSet(got, want) {
			t.Fatalf("gallop %v, oracle %v (a=%v b=%v)", got, want, a, b)
		}
		if got := Intersect(nil, a, b); !sameSet(got, want) {
			t.Fatalf("auto %v, oracle %v (a=%v b=%v)", got, want, a, b)
		}
		sc := NewScratch(1 << 17)
		if got := IntersectScratchForced(sc, nil, a, b); !sameSet(got, want) {
			t.Fatalf("bitset %v, oracle %v (a=%v b=%v)", got, want, a, b)
		}
		for name, n := range map[string]int{
			"CountMerge":  CountMerge(a, b),
			"CountGallop": CountGallop(a, b),
			"Count":       Count(a, b),
			"CountBitset": CountBitset(sc, a, b),
			"CountAuto":   CountScratch(sc, a, b),
		} {
			if n != len(want) {
				t.Fatalf("%s = %d, oracle %d (a=%v b=%v)", name, n, len(want), a, b)
			}
		}
		// Load + CountLoaded, then the same backing buffer refilled with other
		// contents at the same length: each call answers for what the
		// buffer holds now.
		sc.Load(a)
		if n := sc.CountLoaded(b); n != len(want) {
			t.Fatalf("Load+CountLoaded = %d, oracle %d (a=%v b=%v)", n, len(want), a, b)
		}
		buf := append([]uint32(nil), a...)
		for round := 0; round < 3; round++ {
			if n := CountScratch(owned, buf, b); n != len(intersectOracle(buf, b)) || owned.loaded != nil {
				t.Fatalf("round %d: CountScratch(reused buffer) = %d, oracle %d, loaded=%v (buf=%v b=%v)",
					round, n, len(intersectOracle(buf, b)), owned.loaded != nil, buf, b)
			}
			if round == 1 && len(b) >= len(buf) {
				copy(buf, b[len(b)-len(buf):])
			}
		}
		// The ID-span bitmap: marks and probes relative to a base, IDs
		// outside the universe ignored on both sides.
		const base, universe = 1000, 1 << 12
		small := NewScratch(universe)
		ids := func(xs []uint32) (out []graph.VertexID) {
			for _, x := range xs {
				out = append(out, graph.VertexID(x)+base-100)
			}
			return out
		}
		inside := 0
		for _, x := range want {
			if x >= 100 && x-100 < universe {
				inside++
			}
		}
		MarkAll(small, ids(a), base)
		if n := CountMarked(small, ids(b), base); n != inside {
			t.Fatalf("MarkAll+CountMarked = %d, want %d (a=%v b=%v)", n, inside, a, b)
		}
		// IntersectPos: the positions index, in its second operand, exactly
		// the IDs Intersect returns — whichever operand is the longer.
		for _, ops := range [][2][]uint32{{a, b}, {b, a}} {
			pos := IntersectPos([]int32{-1}, ops[0], ops[1])
			if pos[0] != -1 || len(pos)-1 != len(want) {
				t.Fatalf("IntersectPos = %v, oracle %v (a=%v b=%v)", pos, want, ops[0], ops[1])
			}
			for i, p := range pos[1:] {
				if ops[1][p] != want[i] {
					t.Fatalf("IntersectPos[%d] = %d -> %d, oracle %d (a=%v b=%v)", i, p, ops[1][p], want[i], ops[0], ops[1])
				}
			}
		}
		// PosTable: held against any list it emits IntersectPos's positions —
		// marked (floor 1, so single-element parents too) or left a list
		// (the floor, an empty b, a span past the rule), on negative IDs and
		// on IDs spread too far apart to mark.
		for _, stride := range []graph.VertexID{1, 1 << 20} {
			spread := func(xs []uint32) (out []graph.VertexID) {
				for _, x := range xs {
					out = append(out, (graph.VertexID(x)-300)*stride)
				}
				return out
			}
			for _, ops := range [][2][]graph.VertexID{{spread(a), spread(b)}, {spread(b), spread(a)}} {
				wantPos := IntersectPos([]int32{-1}, ops[0], ops[1])
				var tab PosTable[graph.VertexID]
				for _, minLen := range []int{1, PosTableMinLen} {
					tab.load(ops[1], 1, minLen)
					if tab.marked && stride > 1 && len(ops[1]) > 1 {
						t.Fatalf("PosTable marked a span of %d IDs for %d elements", ops[1][len(ops[1])-1]-ops[1][0], len(ops[1]))
					}
					if got := tab.IntersectPos([]int32{-1}, ops[0]); !slices.Equal(got, wantPos) {
						t.Fatalf("PosTable(minLen %d, marked %v) = %v, IntersectPos %v (a=%v b=%v)", minLen, tab.marked, got, wantPos, ops[0], ops[1])
					}
				}
			}
		}
		// Union: both arms, and the rule that picks one, against sort+compact
		// — on the IDs as they come (a dense span) and spread 2^20 apart (a
		// sparse one, negative IDs included).
		for _, stride := range []graph.VertexID{1, 1 << 20} {
			spread := func(xs []uint32) (out []graph.VertexID) {
				for _, x := range xs {
					out = append(out, (graph.VertexID(x)-300)*stride)
				}
				return out
			}
			rows := [][]graph.VertexID{spread(a), nil, spread(b), spread(want)}
			oracle := append(spread(a), spread(b)...)
			sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
			oracle = append([]graph.VertexID{7}, slices.Compact(oracle)...)
			got := [][]graph.VertexID{Union([]graph.VertexID{7}, rows), unionSort([]graph.VertexID{7}, rows)}
			if len(oracle) > 1 && stride == 1 { // forced only where the bitmap is small
				lo, hi := oracle[1], oracle[len(oracle)-1]
				got = append(got, unionBitmap([]graph.VertexID{7}, rows, lo, int(uint64(hi-lo)/64)+1))
			}
			for arm, u := range got {
				if !slices.Equal(u, oracle) {
					t.Fatalf("Union arm %d stride %d = %v, oracle %v (a=%v b=%v)", arm, stride, u, oracle, a, b)
				}
			}
		}
		if len(a) > 0 {
			floor := a[len(a)/2]
			wantAbove := 0
			for _, x := range want {
				if x > floor {
					wantAbove++
				}
			}
			if n := CountAbove(a, b, floor); n != wantAbove {
				t.Fatalf("CountAbove(floor=%d) = %d, want %d", floor, n, wantAbove)
			}
		}
	})
}

// setFromBytes turns fuzzer bytes into a sorted duplicate-free uint32
// slice, pairing bytes so the universe exceeds one byte of range.
func setFromBytes(raw []byte) []uint32 {
	seen := map[uint32]bool{}
	for i := 0; i+1 < len(raw); i += 2 {
		seen[uint32(raw[i])<<8|uint32(raw[i+1])] = true
	}
	if len(raw)%2 == 1 {
		seen[uint32(raw[len(raw)-1])] = true
	}
	out := make([]uint32, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameSet(got, want []uint32) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}
