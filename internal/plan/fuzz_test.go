package plan

import (
	"testing"
)

// FuzzCompile feeds arbitrary byte-derived label/parent arrays to the
// tree compiler. The contract under fuzz: compile or reject with an error
// — never panic — and every accepted plan schedules each node exactly
// once.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 1, 2})
	f.Add([]byte{5, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{255, 254, 253, 252, 251})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Byte i is node i's parent (i-1 biased so byte 0 can
		// reach parent -1 for the root); labels cycle over a small range.
		labels := make([]int32, len(raw))
		parent := make([]int, len(raw))
		for i, b := range raw {
			labels[i] = int32(b % 5)
			parent[i] = int(b) - 1
		}
		p, err := Compile(labels, parent)
		if err != nil {
			return
		}
		scheduled := 0
		for _, lvl := range p.TreeLevels {
			scheduled += len(lvl)
		}
		if scheduled != p.Nodes {
			t.Fatalf("tree plan schedules %d of %d nodes", scheduled, p.Nodes)
		}
	})
}
