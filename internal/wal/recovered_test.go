package wal

import "testing"

// readTails reads back every bucket's records beyond its image, as a restore
// would.
func readTails(t *testing.T, l *Log) map[int][]Record {
	t.Helper()
	all := make([]int, l.cfg.Geometry.Buckets)
	for b := range all {
		all[b] = b
	}
	out, err := l.LoadTails(all)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hasImage reports whether an image set holds an image of the bucket.
func hasImage(l *Log, b int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.images[b]
	return ok
}
