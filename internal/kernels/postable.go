package kernels

import "math/bits"

// PosTableMinLen is the length of b from which PosTable.Load marks b rather
// than leave it to IntersectPos. On BenchmarkGMLevelRealRows (the benchmark
// graph's round-2 operands, split by length of b) the two are level at 8–15
// (~255 ns a list either way), the table is ahead from 16 (203 vs 320 ns a
// list, 230 vs 919 at 512) and IntersectPos's gallop is ahead below 8 (51 vs
// 194 ns a list against a single parent, round 1's only shape): a probe
// reads every element of a, a gallop a few cache lines of it.
const PosTableMinLen = 16

// PosTable answers IntersectPos(dst, a, b) for one b held against many a —
// GM's level match, where every candidate's adjacency is intersected with
// the same matched-parent list. Load marks b once in a bitmap over its own
// ID span, with the number of elements below each word beside it; a probe
// is then one load per element of a — bit set means present, and the index
// in b is the word's rank plus the set bits below that one.
//
// Whether b is marked is read off the operands, by the rule Union reads off
// its input: the bitmap (one word per 64 IDs of [b[0], b[last]]) must be no
// bigger than what goes through it, len(b) marks plus at least one probe
// per list. A wider span, or a b short of PosTableMinLen, stays a list that
// IntersectPos searches. The positions are IntersectPos's either way
// (FuzzIntersectKernels).
//
// The zero value is ready to use. A PosTable is single-goroutine state and
// references b until the next Load.
type PosTable[T ID] struct {
	b      []T
	marked bool
	lo     T
	words  []uint64
	rank   []int32 // rank[w]: how many elements of b lie below word w
}

// Load makes b (sorted ascending, duplicate-free) the held operand, about to
// be intersected with `lists` lists.
func (p *PosTable[T]) Load(b []T, lists int) { p.load(b, lists, PosTableMinLen) }

func (p *PosTable[T]) load(b []T, lists, minLen int) {
	p.b, p.marked = b, false
	if len(b) == 0 || len(b) < minLen {
		return
	}
	span := uint64(b[len(b)-1] - b[0])
	if span/64 >= uint64(len(b)+lists) {
		return
	}
	n := int(span/64) + 1
	if cap(p.words) < n {
		p.words, p.rank = make([]uint64, n), make([]int32, n)
	}
	p.marked, p.lo, p.words, p.rank = true, b[0], p.words[:n], p.rank[:n]
	clear(p.words)
	for _, x := range b {
		d := uint64(x - p.lo)
		p.words[d>>6] |= 1 << (d & 63)
	}
	below := 0
	for w, word := range p.words {
		p.rank[w] = int32(below)
		below += bits.OnesCount64(word)
	}
}

// IntersectPos appends, for every x ∈ a ∩ b, the index of x in the held b
// to dst and returns it, indices ascending: IntersectPos(dst, a, b).
func (p *PosTable[T]) IntersectPos(dst []int32, a []T) []int32 {
	if !p.marked {
		return IntersectPos(dst, a, p.b)
	}
	words, rank := p.words, p.rank
	for _, x := range a {
		d := uint64(x - p.lo) // x below lo wraps past every word
		if w := d >> 6; w < uint64(len(words)) {
			// Shift x's bit to the top: set means present, and what is left
			// below it are the elements of b in this word before x.
			if below := words[w] << (63 - d&63); below>>63 != 0 {
				dst = append(dst, rank[w]+int32(bits.OnesCount64(below))-1)
			}
		}
	}
	return dst
}
