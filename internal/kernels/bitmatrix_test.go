package kernels

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInduceMatchesMembership: every bit of an induced matrix is "ids[j] is
// in row i's adjacency, and j != i", over random candidate lists of up to
// 150 IDs (rows of up to three words) and adjacency reaching below, between
// and above the candidates. A reused matrix, shrinking and growing, must
// come back clean.
func TestInduceMatchesMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m BitMatrix
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(150)
		ids := randomSet(rng, n, 4*n+8)
		adj := make([][]uint32, len(ids))
		for i := range adj {
			adj[i] = randomSet(rng, rng.Intn(2*n+4), 5*n+16)
			if rng.Intn(4) == 0 { // a self-loop
				adj[i] = append(adj[i], ids[i])
				slices.Sort(adj[i])
				adj[i] = slices.Compact(adj[i])
			}
		}
		Induce(&m, ids)
		for i := range ids {
			if i%5 != 4 { // some rows stay empty, as a nil candidate's does
				InduceRow(&m, ids, i, adj[i])
			}
		}
		if m.Len() != len(ids) || m.Words() != (len(ids)+63)/64 {
			t.Fatalf("trial %d: %d rows of %d words for %d ids", trial, m.Len(), m.Words(), len(ids))
		}
		for i := range ids {
			in := map[uint32]bool{}
			if i%5 != 4 {
				for _, x := range adj[i] {
					in[x] = true
				}
			}
			for j, id := range ids {
				if want := in[id] && j != i; has(&m, i, j) != want {
					t.Fatalf("trial %d: bit (%d, %d) = %v, want %v", trial, i, j, has(&m, i, j), want)
				}
			}
			for j := len(ids); j < m.Words()*64; j++ {
				if has(&m, i, j) {
					t.Fatalf("trial %d: row %d has padding bit %d set", trial, i, j)
				}
			}
		}
	}
}

func has(m *BitMatrix, i, j int) bool { return m.Row(i)[j>>6]>>(j&63)&1 != 0 }

// TestInduceRejectsUnsortedIDs: the merge walk needs ascending,
// duplicate-free candidates, and Induce checks it.
func TestInduceRejectsUnsortedIDs(t *testing.T) {
	for _, ids := range [][]uint32{{3, 1}, {1, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Induce(%v) did not panic", ids)
				}
			}()
			var m BitMatrix
			Induce(&m, ids)
		}()
	}
}
