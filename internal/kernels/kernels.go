// Package kernels provides the set-intersection primitives every
// exploration hot loop in this system reduces to: candidate expansion,
// triangle counting, clique-graph construction and compiled-plan
// execution (internal/plan) all intersect sorted vertex sets. The paper's
// executors used one scalar merge loop everywhere; following G2Miner, the
// strategy is instead chosen per call from the operand sizes:
//
//   - merge: two-pointer merge with a plain three-way branch, best when
//     |a| ≈ |b|. On real adjacency rows (BenchmarkCountRealRows) most steps
//     advance the same cursor, the branch predicts, and it beats a
//     comparison-driven "branch-free" body — three compares and two
//     dependent adds per step whichever way it goes — by ~1.3–1.5x.
//   - gallop: exponential (galloping) binary search of the larger operand
//     for each element of the smaller, best when the sizes are skewed
//     (|b|/|a| ≥ GallopRatio). O(|a| · log |b|).
//   - bitset: mark one operand in a dense bitmap and probe it with the
//     other. It pays when an operand is reused: a Scratch keeps a loaded
//     row marked across calls, so a walk that holds one row fixed against
//     many never re-reads it. A one-off pair takes it only when both
//     operands are long (BitsetMinLen) and a Scratch is at hand.
//
// All strategies are pure functions of their operands: they return the
// same result on the same input, so swapping strategy never changes any
// job output (the determinism contract DESIGN.md §12 pins, and the
// property FuzzIntersectKernels cross-checks against a map oracle).
package kernels

// ID is the element constraint for the generic kernels: the vertex-ID and
// rank types the system intersects. Operands must be sorted ascending and
// duplicate-free; results are undefined otherwise (the graph layer's
// Freeze/Validate establish the invariant).
type ID interface {
	~int32 | ~uint32 | ~int64 | ~uint64 | ~int
}

// GallopRatio is the operand-size ratio from which the galloping search
// replaces the linear merge. On BenchmarkCountRealRows the adaptive entry
// point is flat for ratios 8–16 (level with merge on TC rows, ~8% ahead on
// GM's skewed operands) and loses that lead at 32.
const GallopRatio = 16

// BitsetMinLen is the smaller-operand length from which the bitset
// strategy is considered for a one-off pair when a Scratch is supplied. A
// floor, not a measured crossover: real rows seldom reach it, and repeated
// operands are served by the loaded-operand path instead.
const BitsetMinLen = 512

// Strategy identifies which kernel Choose selects; exported so benchmarks
// and tests can sweep strategies explicitly.
type Strategy uint8

const (
	// StrategyMerge is the sorted two-pointer merge.
	StrategyMerge Strategy = iota
	// StrategyGallop is the galloping binary search.
	StrategyGallop
	// StrategyBitset is the dense-bitmap probe.
	StrategyBitset
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyMerge:
		return "merge"
	case StrategyGallop:
		return "gallop"
	case StrategyBitset:
		return "bitset"
	}
	return "unknown"
}

// Choose picks the strategy for operand lengths la, lb given whether a
// scratch bitmap is available. It is the single decision point every
// adaptive entry point below shares.
func Choose(la, lb int, scratch bool) Strategy {
	lo, hi := la, lb
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 {
		return StrategyMerge // nothing to do; merge exits immediately
	}
	if hi >= GallopRatio*lo {
		return StrategyGallop
	}
	if scratch && lo >= BitsetMinLen {
		return StrategyBitset
	}
	return StrategyMerge
}

// Count returns |a ∩ b| for sorted duplicate-free slices, choosing the
// strategy from the operand sizes (no bitset — callers with a Scratch use
// CountScratch).
func Count[T ID](a, b []T) int {
	if Choose(len(a), len(b), false) == StrategyGallop {
		return CountGallop(a, b)
	}
	return CountMerge(a, b)
}

// CountMerge is the sorted merge count (see the package comment for why
// its body branches three ways).
func CountMerge[T ID](a, b []T) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		if va < vb {
			i++
		} else if va > vb {
			j++
		} else {
			n++
			i++
			j++
		}
	}
	return n
}

// CountGallop counts |a ∩ b| by galloping through the larger operand for
// each element of the smaller one.
func CountGallop[T ID](a, b []T) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n, lo := 0, 0
	for _, x := range a {
		lo = gallop(b, lo, x)
		if lo == len(b) {
			break
		}
		if b[lo] == x {
			n++
			lo++
		}
	}
	return n
}

// CountAbove returns |{x ∈ a ∩ b : x > floor}| — the suffix intersection
// the triangle kernels use (count common neighbors above the current
// vertex), strategy-selected like Count.
func CountAbove[T ID](a, b []T, floor T) int {
	a = above(a, floor)
	b = above(b, floor)
	return Count(a, b)
}

// Intersect appends a ∩ b to dst (which may be nil or a reused buffer
// with dst[:0]) and returns it, choosing merge or gallop by operand size.
// The result is ascending, like the operands.
func Intersect[T ID](dst, a, b []T) []T {
	if Choose(len(a), len(b), false) == StrategyGallop {
		return intersectGallop(dst, a, b)
	}
	return intersectMerge(dst, a, b)
}

// IntersectAbove appends {x ∈ a ∩ b : x > floor} to dst and returns it.
func IntersectAbove[T ID](dst, a, b []T, floor T) []T {
	return Intersect(dst, above(a, floor), above(b, floor))
}

func intersectMerge[T ID](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		if va < vb {
			i++
		} else if va > vb {
			j++
		} else {
			dst = append(dst, va)
			i++
			j++
		}
	}
	return dst
}

func intersectGallop[T ID](dst, a, b []T) []T {
	if len(a) > len(b) {
		a, b = b, a
	}
	lo := 0
	for _, x := range a {
		lo = gallop(b, lo, x)
		if lo == len(b) {
			break
		}
		if b[lo] == x {
			dst = append(dst, x)
			lo++
		}
	}
	return dst
}

// gallop returns the smallest index i in [lo, len(b)] with b[i] >= x,
// probing exponentially from lo before binary-searching the bracketed
// range — O(log d) where d is the distance advanced, which is what makes
// repeated searches over one operand linear overall.
func gallop[T ID](b []T, lo int, x T) int {
	if lo >= len(b) || b[lo] >= x {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(b) && b[hi] < x {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(b) {
		hi = len(b)
	}
	// Invariant: b[lo] < x <= b[hi] (if hi < len). Binary search (lo, hi].
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// above returns the suffix of sorted s strictly greater than floor.
func above[T ID](s []T, floor T) []T {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= floor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s[lo:]
}

// SearchSorted returns the smallest index i with s[i] >= x (len(s) if
// none) — the shared lower-bound everything in this package and the plan
// executor uses to slice candidate ranges.
func SearchSorted[T ID](s []T, x T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
