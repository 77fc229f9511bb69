package kernels

// Scratch is a reusable dense bitmap over a rank universe [0, n), the
// working memory of the bitset intersection strategy. Marking remembers
// the touched words so Reset costs O(marked), not O(n) — a Scratch can be
// reused across thousands of intersections without re-zeroing the map.
// A Scratch is single-goroutine state; CSR pools them per index so
// concurrent executor threads never share one.
// Only Load leaves a scratch dirty — one operand kept marked across many
// CountLoaded probes; Reset, every bitset kernel and PutScratch clean it.
type Scratch struct {
	words []uint64
	dirty []int32 // word indices with at least one bit set

	// index is the owning CSR's edge array (nil for a free-standing
	// scratch): its rows are immutable, so for them — and only for them —
	// the same slice means the same contents.
	index []uint32
	// loaded is the operand Load marked (nil: none); last is the index row
	// CountScratch saw as its first operand on the previous call.
	loaded, last []uint32
}

// NewScratch returns a scratch bitmap for ranks in [0, n).
func NewScratch(n int) *Scratch {
	return &Scratch{words: make([]uint64, (n+63)/64)}
}

// Len returns the universe size the scratch covers (rounded up to the
// word it was allocated for).
func (s *Scratch) Len() int { return len(s.words) * 64 }

// Mark sets bit r.
func (s *Scratch) Mark(r uint32) {
	w := int32(r >> 6)
	if s.words[w] == 0 {
		s.dirty = append(s.dirty, w)
	}
	s.words[w] |= 1 << (r & 63)
}

// Has reports whether bit r is set.
func (s *Scratch) Has(r uint32) bool {
	return s.words[r>>6]&(1<<(r&63)) != 0
}

// Reset clears every marked bit in O(marked words) and forgets the loaded
// operand.
func (s *Scratch) Reset() {
	for _, w := range s.dirty {
		s.words[w] = 0
	}
	s.dirty, s.loaded = s.dirty[:0], nil
}

// MarkAll sets bit x for every x of ids that falls inside the universe: a
// bitmap over internal IDs or over ranks.
func MarkAll[T ID](s *Scratch, ids []T) {
	for _, v := range ids {
		if x := uint64(v); x>>6 < uint64(len(s.words)) {
			s.Mark(uint32(x))
		}
	}
}

// CountMarked returns how many x of b have bit x set — one branch-free
// probe per element; IDs outside the universe are unmarked.
func CountMarked[T ID](s *Scratch, b []T) int {
	n, words := 0, s.words
	for _, v := range b {
		if x := uint64(v); x>>6 < uint64(len(words)) {
			n += int(words[x>>6] >> (x & 63) & 1)
		}
	}
	return n
}

// Load replaces the scratch contents with row, which stays marked until
// the next Load, Reset or bitset kernel on this scratch.
func (s *Scratch) Load(row []uint32) {
	s.Reset()
	MarkAll(s, row)
	s.loaded = row
}

// CountLoaded returns |loaded ∩ b|.
func (s *Scratch) CountLoaded(b []uint32) int { return CountMarked(s, b) }

// indexRow reports whether a is a (non-empty) slice of the owning CSR's
// edge array. A plain sub-slice shares the array's end, so its capacity
// gives away its offset; a slice of anything else fails the address check.
func (s *Scratch) indexRow(a []uint32) bool {
	i := cap(s.index) - cap(a)
	return len(a) > 0 && i >= 0 && i < len(s.index) && &s.index[i] == &a[0]
}

func sameSlice(a, b []uint32) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// CountScratch returns |a ∩ b|; all elements must lie inside the scratch
// universe. When a is a row of the scratch's own CSR and was also the
// previous call's a — a walk holding one row fixed against many — it is
// loaded on that second sighting and later calls with the same a only
// probe b. Only index rows qualify, because they are immutable: a caller's
// reusable buffer can come back at the same address with other contents.
// Otherwise Choose picks bitset (both operands long) or merge/gallop.
func CountScratch(sc *Scratch, a, b []uint32) int {
	if sc != nil && sc.indexRow(a) {
		if loaded := sameSlice(sc.loaded, a); loaded || sameSlice(sc.last, a) {
			if !loaded {
				sc.Load(a)
			}
			return sc.CountLoaded(b)
		}
		sc.last = a
	}
	if sc == nil || Choose(len(a), len(b), true) != StrategyBitset {
		return Count(a, b)
	}
	return CountBitset(sc, a, b)
}

// CountBitset counts |a ∩ b| by marking the smaller operand and probing
// with the larger, unconditionally (benchmarks and tests select it
// directly; adaptive callers go through CountScratch).
func CountBitset(sc *Scratch, a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	sc.Reset()
	for _, x := range a {
		sc.Mark(x)
	}
	n := 0
	for _, x := range b {
		if sc.Has(x) {
			n++
		}
	}
	sc.Reset()
	return n
}
