package algo

// leafCounts reports what a's workers remembered of leaf-only levels in the
// job Plan last opened: the adjacency elements they walked to count leaves,
// and the (parent node, match) entries they hold.
func (a *GraphMatch) leafCounts() (scanned int64, entries int) {
	a.memos.Range(func(_, v any) bool {
		m := v.(*gmMemo)
		m.mu.Lock()
		defer m.mu.Unlock()
		scanned, entries = scanned+m.scanned, entries+len(m.at)
		return true
	})
	return scanned, entries
}
