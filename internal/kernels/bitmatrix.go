package kernels

import "sort"

// BitMatrix is the adjacency matrix of the subgraph induced on a candidate
// list, one bit row per candidate: bit j of row i is set when candidate j
// is a neighbour of candidate i. It is the working set of the max-clique
// search (CD and MCF): for a candidate set of a few dozen vertices a row is
// one word, so "is u adjacent to v" is a load and a shift, and "is v
// adjacent to anything in this colour class" is one AND per word.
//
// The matrix takes n²/8 bytes for n candidates. A task's candidates are
// the higher neighbours of its seed, so n is bounded by the largest degree
// of the input: at scale 1 the largest candidate set on the presets is
// friendster-s's 2 838 vertices, about 1 MB. Induce reuses the storage, so
// a pooled matrix allocates only when it meets a larger set than before.
type BitMatrix struct {
	n, words int
	bits     []uint64
}

// Len returns the number of rows (and columns).
func (m *BitMatrix) Len() int { return m.n }

// Words returns the length of a row in words, ⌈n/64⌉.
func (m *BitMatrix) Words() int { return m.words }

// Row returns row i; callers may read it but not write it.
func (m *BitMatrix) Row(i int) []uint64 { return m.bits[i*m.words : (i+1)*m.words] }

// Induce sizes m to the candidates ids, all rows empty, reusing its
// storage; InduceRow then fills them. ids must be ascending and
// duplicate-free — the merge walk depends on it — and Induce panics if
// they are not.
func Induce[T ID](m *BitMatrix, ids []T) {
	for k := 1; k < len(ids); k++ {
		if ids[k-1] >= ids[k] {
			panic("kernels: Induce needs ascending, duplicate-free candidate IDs")
		}
	}
	m.n, m.words = len(ids), (len(ids)+63)/64
	size := m.n * m.words
	if cap(m.bits) < size {
		m.bits = make([]uint64, size)
		return
	}
	m.bits = m.bits[:size]
	clear(m.bits)
}

// InduceRow sets row i of m from adj, candidate i's ascending adjacency,
// with one merge walk against ids bounded to [ids[0], ids[n-1]]: bit j is
// set when ids[j] ∈ adj and j != i, so a self-loop stays out of the row.
func InduceRow[T ID](m *BitMatrix, ids []T, i int, adj []T) {
	n := len(ids)
	if n == 0 {
		return
	}
	first, last := ids[0], ids[n-1]
	k := sort.Search(len(adj), func(k int) bool { return adj[k] >= first })
	row := m.Row(i)
	j := 0
	for _, a := range adj[k:] {
		if a > last {
			break
		}
		for ids[j] < a {
			j++
		}
		if ids[j] == a && j != i {
			row[j>>6] |= 1 << (j & 63)
		}
	}
}
