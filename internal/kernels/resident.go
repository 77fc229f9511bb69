package kernels

import (
	"cmp"
	"math/bits"
	"slices"

	"gminer/internal/graph"
)

// ResidentCore re-expresses the resident forward lists of an oriented view —
// graph.HotLists' pick of G⁺, readable on every worker — as bit rows over the
// resident set's own index. A task that marks its resident candidates by that
// index (MarkAll) counts a resident candidate's forward list against them a
// word at a time, popcount(row & marks), where the ID bitmap takes one probe
// per element (Count). The hubs every forward list holds are few, so a
// hub-heavy list of a few hundred IDs becomes a handful of words.
//
//   - Index: the resident IDs are numbered in (degree, ID) rank order, the
//     order G⁺ orients by, so a row's bits all lie above its own and the hubs
//     that most lists hold share the last words. An int32 column by internal
//     ID maps ID → index.
//   - Rows: a resident list becomes a bit row only if it has at least as many
//     resident members as words its row spans, and the row is stored from its
//     first non-zero word, so no row outweighs the list it mirrors. Members
//     outside the set stay an ID tail, probed like any other list.
//
// A core is read-only once cut and shared by every executor thread; what a
// thread marks is its own (an ID bitmap and Words() words of marks).
type ResidentCore struct {
	index []int32  // internal ID → resident index, −1 outside the set
	rows  []bitRow // by resident index
	bits  []uint64 // every row's words, back to back
	tails []graph.VertexID
	nrows int
	words int // marks a task needs: one bit per resident list
}

// bitRow places one resident list: bits[off:off+n] are its words from word lo
// of the marks on (n == 0: the list is no row), tails[tail:tail+tn] its
// members outside the set, ascending.
type bitRow struct {
	lo, off, n, tail, tn int32
}

// NewResidentCore cuts the core of gplus's resident lists ids, whose
// in-reference counts (how many forward lists hold each) are refs — what
// graph.HotLists returns. It returns nil when the core would not pay: it is
// offered only if the probes its rows save,
// Σ over rows of refs × (|Γ⁺| − words − |tail|), exceed what it adds to every
// task, Σ over vertices with two or more forward neighbours (a triangle task
// each) of |Γ⁺(v)| + Words() — a mark per candidate and the marks to clear.
// Like HotLists it is a pure function of the graph: equal views cut equal
// cores.
func NewResidentCore(gplus *graph.Graph, ids []graph.VertexID, refs []int64) *ResidentCore {
	if len(ids) == 0 {
		return nil
	}
	words := (len(ids) + 63) / 64
	var added, most int64
	gplus.ForEach(func(v *graph.Vertex) bool {
		if len(v.Adj) >= 2 {
			added += int64(len(v.Adj) + words)
		}
		return true
	})
	lists := make([]hotList, len(ids))
	for i, id := range ids {
		v := gplus.Vertex(id)
		lists[i] = hotList{v, refs[i] + int64(len(v.Adj)), refs[i]}
		most += refs[i] * int64(len(v.Adj)-1) // a row spans a word at least
	}
	if most <= added { // declined without cutting an index
		return nil
	}
	if c, saving := cutCore(gplus.Slots(), lists); saving > added {
		return c
	}
	return nil
}

// hotList is one resident list: its vertex of G⁺, its degree in the
// undirected graph (in-references plus forward neighbours) and in-references.
type hotList struct {
	v         *graph.Vertex
	deg, refs int64
}

// cutCore numbers lists in (degree, ID) order over an index of slots
// internal IDs, makes a bit row of every list that qualifies, and returns the
// core with the probes its rows save.
func cutCore(slots int, lists []hotList) (*ResidentCore, int64) {
	slices.SortFunc(lists, func(a, b hotList) int {
		if a.deg != b.deg {
			return cmp.Compare(a.deg, b.deg)
		}
		return cmp.Compare(a.v.ID, b.v.ID)
	})
	c := &ResidentCore{index: make([]int32, slots), rows: make([]bitRow, len(lists)), words: (len(lists) + 63) / 64}
	for i := range c.index {
		c.index[i] = -1
	}
	for r, h := range lists {
		c.index[h.v.ID] = int32(r)
	}
	var saving int64
	for r, h := range lists {
		lo, hi, members := c.bounds(h.v.Adj)
		if members == 0 || members < hi-lo+1 {
			continue
		}
		row := bitRow{lo: int32(lo), off: int32(len(c.bits)), n: int32(hi - lo + 1), tail: int32(len(c.tails)), tn: int32(len(h.v.Adj) - members)}
		c.bits = append(c.bits, make([]uint64, row.n)...)
		words := c.bits[row.off:]
		for _, x := range h.v.Adj {
			if i, ok := c.resident(x); ok {
				words[i>>6-lo] |= 1 << (i & 63)
			} else {
				c.tails = append(c.tails, x)
			}
		}
		c.rows[r] = row
		c.nrows++
		saving += h.refs * int64(len(h.v.Adj)-int(row.n)-int(row.tn))
	}
	return c, saving
}

// resident returns the resident index of id, and whether id is resident.
func (c *ResidentCore) resident(id graph.VertexID) (int, bool) {
	if uint64(id) < uint64(len(c.index)) && c.index[id] >= 0 {
		return int(c.index[id]), true
	}
	return 0, false
}

// bounds returns the first and last word list's resident members fall in,
// and how many there are.
func (c *ResidentCore) bounds(list []graph.VertexID) (lo, hi, members int) {
	lo, hi = c.words, -1
	for _, x := range list {
		if i, ok := c.resident(x); ok {
			lo, hi, members = min(lo, i>>6), max(hi, i>>6), members+1
		}
	}
	return lo, hi, members
}

// Words returns how many words of marks a task needs.
func (c *ResidentCore) Words() int { return c.words }

// Rows returns how many resident lists are bit rows.
func (c *ResidentCore) Rows() int { return c.nrows }

// Bytes is what the core weighs: the index, the row table, the rows and
// their tails.
func (c *ResidentCore) Bytes() int64 {
	return int64(4*len(c.index) + 20*len(c.rows) + 8*len(c.bits) + 8*len(c.tails))
}

// Fingerprint hashes the index and every row: equal cores — cut from equal
// views, in any process — have equal fingerprints.
func (c *ResidentCore) Fingerprint() uint64 {
	h := uint64(14695981039346656037) // FNV-1a, a word at a time
	put := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for _, i := range c.index {
		put(uint64(i))
	}
	for _, r := range c.rows {
		put(uint64(r.lo)<<32 | uint64(r.n))
		put(uint64(r.off)<<32 | uint64(r.tail))
		put(uint64(r.tn))
	}
	for _, w := range c.bits {
		put(w)
	}
	for _, x := range c.tails {
		put(uint64(x))
	}
	return h
}

// MarkAll marks ids twice: every ID in sc, an ID bitmap over the view's
// internal IDs (as the MarkAll function sets it), and every resident ID in
// marks by its resident index.
func (c *ResidentCore) MarkAll(sc *Scratch, marks []uint64, ids []graph.VertexID) {
	for _, id := range ids {
		if uint64(id) >= uint64(len(c.index)) {
			continue
		}
		sc.Mark(uint32(id))
		if i := c.index[id]; i >= 0 {
			marks[i>>6] |= 1 << (i & 63)
		}
	}
}

// Count returns how many members of resident id's forward list are marked —
// popcount(row & marks) over the row's words plus the tail's probes into sc —
// and true; or false when id's list is not a bit row.
func (c *ResidentCore) Count(sc *Scratch, marks []uint64, id graph.VertexID) (int, bool) {
	i, ok := c.resident(id)
	if !ok || c.rows[i].n == 0 {
		return 0, false
	}
	row := c.rows[i]
	marks = marks[row.lo : row.lo+row.n]
	n := 0
	for j, w := range c.bits[row.off : row.off+row.n] {
		n += bits.OnesCount64(w & marks[j])
	}
	return n + CountMarked(sc, c.tails[row.tail:row.tail+row.tn]), true
}
