package kernels

import (
	"math/bits"
	"slices"
	"sync"
)

// unionWords pools unionBitmap's bitmaps, returned swept back to zero.
var unionWords = sync.Pool{New: func() any { return new([]uint64) }}

// Union appends the ascending duplicate-free union of rows (each sorted
// ascending) to dst and returns it — frontier expansion: the next round's
// candidates are the union of the adjacency lists of this round's matches.
//
// Two arms, chosen from the input alone: when the ID span [min first, max
// last] is at most 64× the total input length (a bitmap over it is then no
// bigger than the input) the rows are marked into one and read back in a
// sweep; a sparser input is concatenated, sorted and compacted. On GM's rows
// the bitmap is 15x ahead, 3x at the boundary (BenchmarkFrontierUnionRealRows).
func Union[T ID](dst []T, rows [][]T) []T {
	total := 0
	var lo, hi T
	for _, r := range rows {
		if len(r) == 0 {
			continue
		}
		if total == 0 {
			lo, hi = r[0], r[len(r)-1]
		}
		lo, hi = min(lo, r[0]), max(hi, r[len(r)-1])
		total += len(r)
	}
	if span := uint64(hi - lo); total > 0 && span/64 < uint64(total) {
		return unionBitmap(dst, rows, lo, int(span/64)+1)
	}
	return unionSort(dst, rows)
}

// unionBitmap is Union's dense arm: a pooled bitmap of n words over
// [lo, lo+64n), marked from the rows and swept (and zeroed) in order.
func unionBitmap[T ID](dst []T, rows [][]T, lo T, n int) []T {
	wp := unionWords.Get().(*[]uint64)
	if cap(*wp) < n {
		*wp = make([]uint64, n)
	}
	words := (*wp)[:n]
	for _, r := range rows {
		for _, x := range r {
			d := uint64(x - lo)
			words[d>>6] |= 1 << (d & 63)
		}
	}
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, lo+T(w<<6|bits.TrailingZeros64(word)))
		}
		words[w] = 0
	}
	unionWords.Put(wp)
	return dst
}

// unionSort is Union's sparse arm: concatenate, sort, compact.
func unionSort[T ID](dst []T, rows [][]T) []T {
	start := len(dst)
	for _, r := range rows {
		dst = append(dst, r...)
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}
