package lsh

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSignDeterministic(t *testing.T) {
	s := NewSigner(4, 42)
	set := []uint64{1, 2, 3, 100}
	a := s.Sign(set)
	b := s.Sign(set)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("signatures differ across calls")
	}
}

func TestSignOrderInvariant(t *testing.T) {
	s := NewSigner(4, 42)
	a := s.Sign([]uint64{5, 9, 1})
	b := s.Sign([]uint64{1, 5, 9})
	if a.Compare(b) != 0 {
		t.Fatal("signature depends on element order")
	}
}

func TestEmptySetSortsLast(t *testing.T) {
	s := NewSigner(4, 1)
	empty := s.Sign(nil)
	some := s.Sign([]uint64{7})
	if !some.Less(empty) {
		t.Fatal("empty set should sort after non-empty")
	}
}

func TestCompareLexicographic(t *testing.T) {
	a := Signature{1, 2, 3}
	b := Signature{1, 2, 4}
	c := Signature{1, 2}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("compare wrong")
	}
	if c.Compare(a) != -1 {
		t.Fatal("shorter prefix should sort first")
	}
}

func TestBytesPreservesOrder(t *testing.T) {
	s := NewSigner(3, 9)
	rng := rand.New(rand.NewSource(1))
	var sigs []Signature
	for i := 0; i < 64; i++ {
		set := make([]uint64, 1+rng.Intn(8))
		for j := range set {
			set[j] = rng.Uint64() % 512
		}
		sigs = append(sigs, s.Sign(set))
	}
	bySig := append([]Signature(nil), sigs...)
	sort.Slice(bySig, func(i, j int) bool { return bySig[i].Less(bySig[j]) })
	byBytes := append([]Signature(nil), sigs...)
	sort.Slice(byBytes, func(i, j int) bool {
		return string(byBytes[i].Bytes()) < string(byBytes[j].Bytes())
	})
	for i := range bySig {
		if bySig[i].Compare(byBytes[i]) != 0 {
			t.Fatal("byte order differs from Compare order")
		}
	}
}

func TestSignatureBytesRoundTrip(t *testing.T) {
	s := NewSigner(5, 77)
	sig := s.Sign([]uint64{3, 1, 4, 1, 5})
	got := SignatureFromBytes(sig.Bytes())
	if sig.Compare(got) != 0 {
		t.Fatal("bytes round trip changed signature")
	}
}

// TestSimilarSetsGetCloserKeys is the property the task priority queue
// depends on (Figure 3): sets with high Jaccard similarity agree on more
// signature components than disjoint sets.
func TestSimilarSetsGetCloserKeys(t *testing.T) {
	s := NewSigner(16, 4242)
	rng := rand.New(rand.NewSource(5))
	var simAgree, disAgree float64
	const trials = 200
	for i := 0; i < trials; i++ {
		base := make([]uint64, 32)
		for j := range base {
			base[j] = rng.Uint64() % 10000
		}
		// similar: share 75% of elements
		similar := append([]uint64(nil), base[:24]...)
		for j := 0; j < 8; j++ {
			similar = append(similar, rng.Uint64()%10000)
		}
		// disjoint
		disjoint := make([]uint64, 32)
		for j := range disjoint {
			disjoint[j] = 20000 + rng.Uint64()%10000
		}
		sb := s.Sign(base)
		simAgree += Similarity(sb, s.Sign(similar))
		disAgree += Similarity(sb, s.Sign(disjoint))
	}
	simAgree /= trials
	disAgree /= trials
	if simAgree <= disAgree+0.2 {
		t.Fatalf("minhash not locality sensitive: similar=%.3f disjoint=%.3f", simAgree, disAgree)
	}
}

func TestHashIDDistribution(t *testing.T) {
	// Consecutive IDs must spread across buckets (used by the hash
	// partitioner): no bucket of 8 should exceed 3x the fair share.
	const n, k = 8000, 8
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[HashID(uint64(i))%k]++
	}
	for b, c := range counts {
		if c > 3*n/k {
			t.Fatalf("bucket %d overloaded: %d of %d", b, c, n)
		}
	}
}

func TestQuickCompareIsTotalOrder(t *testing.T) {
	f := func(a, b, c []uint64) bool {
		s := NewSigner(4, 1)
		sa, sb, sc := s.Sign(a), s.Sign(b), s.Sign(c)
		// antisymmetry
		if sa.Compare(sb) != -sb.Compare(sa) {
			return false
		}
		// transitivity (only check the ordered case)
		if sa.Compare(sb) <= 0 && sb.Compare(sc) <= 0 && sa.Compare(sc) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
