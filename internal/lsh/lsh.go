// Package lsh implements the locality-sensitive hashing used by the task
// priority queue (§7 of the paper): each inactive task's remote-candidate
// set to_pull is reduced to a low-dimensional minhash signature, and tasks
// are ordered by signature so that successively dequeued tasks share
// remote candidates, which raises the RCV cache hit rate (Figure 3).
package lsh

import (
	"encoding/binary"
)

// Signer computes k-dimensional minhash signatures over sets of uint64
// elements. A Signer is immutable and safe for concurrent use.
type Signer struct {
	k     int
	seeds []uint64
}

// NewSigner returns a Signer producing k-dimensional signatures. k must be
// >= 1; the paper uses a small k ("low k-dimension vector key").
func NewSigner(k int, seed uint64) *Signer {
	if k < 1 {
		k = 1
	}
	s := &Signer{k: k, seeds: make([]uint64, k)}
	x := seed | 1
	for i := range s.seeds {
		// SplitMix64 sequence gives well-distributed, odd multipliers.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.seeds[i] = (z ^ (z >> 31)) | 1
	}
	return s
}

// K returns the signature dimension.
func (s *Signer) K() int { return s.k }

// Sign computes the minhash signature of the element set. An empty set
// yields the all-max signature, which sorts last.
func (s *Signer) Sign(set []uint64) Signature { return SignSet(s, set) }

// SignSet is Sign over any 64-bit integer element type, so callers holding
// typed IDs sign them in place instead of copying into a []uint64 first.
func SignSet[E ~int64 | ~uint64](s *Signer, set []E) Signature {
	sig := make(Signature, s.k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, e := range set {
		for i, m := range s.seeds {
			h := mix(uint64(e) * m)
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Signature is a k-dimensional minhash key. Signatures compare
// lexicographically; similar to_pull sets yield equal or nearby keys.
type Signature []uint64

// Compare returns -1, 0 or 1 for lexicographic order. Shorter signatures
// sort before longer ones with equal prefixes.
func (a Signature) Compare(b Signature) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Less reports a < b lexicographically.
func (a Signature) Less(b Signature) bool { return a.Compare(b) < 0 }

// Bytes serializes the signature (big-endian, fixed width) so byte-wise
// comparison matches Compare. Used by the disk-spilled task store index.
func (a Signature) Bytes() []byte {
	out := make([]byte, 8*len(a))
	for i, x := range a {
		binary.BigEndian.PutUint64(out[8*i:], x)
	}
	return out
}

// SignatureFromBytes parses a signature serialized by Bytes.
func SignatureFromBytes(b []byte) Signature {
	sig := make(Signature, len(b)/8)
	for i := range sig {
		sig[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return sig
}

// Similarity estimates the Jaccard similarity of the sets underlying two
// signatures: the fraction of agreeing components. Used in tests.
func Similarity(a, b Signature) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// HashID is a convenience 64-bit hash for a single ID, used where a cheap
// stable hash is needed (hash partitioner, steal victim choice).
func HashID(x uint64) uint64 {
	return mix(x * 0x9e3779b97f4a7c15)
}

// Hash64 hashes a byte slice with FNV-1a folded through mix; stable across
// runs, used for checkpoint integrity checks.
func Hash64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return mix(h)
}
