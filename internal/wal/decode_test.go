package wal

// DecodeSegment scans one segment's raw bytes and returns every command
// record in its valid prefix plus the prefix's length in bytes. It never
// panics and never returns a record whose frame did not CRC-validate (no
// phantom records — the fuzz target's contract). A non-nil error describes
// why scanning stopped early; a fully clean segment returns
// valid == len(data) and a nil error. Plan and chunk records are skipped.
func DecodeSegment(data []byte) (recs []Record, valid int64, err error) {
	valid, err = scanSegment(data, func(r *Record, _ int64) {
		if !r.IsPlan() && !r.IsChunk() {
			recs = append(recs, *r)
		}
	})
	return recs, valid, err
}
