package store

// tableMap is the contents of one bucket: table -> key -> row.
type tableMap map[string]map[string]any

// BucketData is a typed bundle of bucket contents in flight between
// partitions during migration. Row counts are tracked per bucket as rows are
// written, so extraction and chunk accounting never re-derive counts by
// walking the nested maps.
type BucketData struct {
	data map[int]tableMap
	rows map[int]int
}

// Rows returns the total number of rows carried by the bundle.
func (d BucketData) Rows() int {
	total := 0
	for _, n := range d.rows {
		total += n
	}
	return total
}

// BucketRows returns the number of rows carried for one bucket.
func (d BucketData) BucketRows(bucket int) int { return d.rows[bucket] }

// Tables returns one bucket's contents — table -> key -> row, nil for a
// bucket the bundle does not carry — the encode side of a migrating chunk.
// The maps are the bundle's own.
func (d BucketData) Tables(bucket int) map[string]map[string]any { return d.data[bucket] }

// NewBucketData returns an empty bundle ready for AddBucket.
func NewBucketData() BucketData {
	return BucketData{data: make(map[int]tableMap), rows: make(map[int]int)}
}

// AddBucket puts one bucket's contents into the bundle — the decode side of a
// migrating chunk — taking ownership of the maps and counting their rows. A
// bucket with no rows stays absent, as extraction leaves it.
func (d BucketData) AddBucket(bucket int, tables map[string]map[string]any) {
	n := 0
	for _, t := range tables {
		n += len(t)
	}
	if n > 0 {
		d.data[bucket], d.rows[bucket] = tables, n
	}
}

// bucketStore is a partition's data plane: the rows of every bucket the
// partition owns, plus per-bucket row counts maintained incrementally. It is
// confined to the owning executor goroutine — no locking.
type bucketStore struct {
	data map[int]tableMap
	rows map[int]int
}

func newBucketStore() *bucketStore {
	return &bucketStore{data: make(map[int]tableMap), rows: make(map[int]int)}
}

// get returns the row stored under (bucket, table, key).
func (s *bucketStore) get(bucket int, table, key string) (any, bool) {
	t, ok := s.data[bucket][table]
	if !ok {
		return nil, false
	}
	v, ok := t[key]
	return v, ok
}

// put stores a row under (bucket, table, key) and reports whether the row is
// new (true) or an overwrite (false).
func (s *bucketStore) put(bucket int, table, key string, v any) bool {
	b := s.data[bucket]
	if b == nil {
		b = make(tableMap)
		s.data[bucket] = b
	}
	t := b[table]
	if t == nil {
		t = make(map[string]any)
		b[table] = t
	}
	_, exists := t[key]
	t[key] = v
	if !exists {
		s.rows[bucket]++
	}
	return !exists
}

// del removes the row under (bucket, table, key) and reports whether a row
// was actually removed.
func (s *bucketStore) del(bucket int, table, key string) bool {
	t, ok := s.data[bucket][table]
	if !ok {
		return false
	}
	if _, exists := t[key]; !exists {
		return false
	}
	delete(t, key)
	s.rows[bucket]--
	return true
}

// extract removes the given buckets from the store and returns them as a
// BucketData bundle. Buckets with no data are simply absent from the bundle.
func (s *bucketStore) extract(buckets []int) BucketData {
	out := BucketData{data: make(map[int]tableMap, len(buckets)), rows: make(map[int]int, len(buckets))}
	for _, b := range buckets {
		if tables, ok := s.data[b]; ok {
			out.data[b] = tables
			out.rows[b] = s.rows[b]
			delete(s.data, b)
			delete(s.rows, b)
		}
	}
	return out
}

// set makes tables, which it takes ownership of, the bucket's whole contents
// — none, for nil tables, but the bucket stays materialized — and returns the
// change in the store's row count.
func (s *bucketStore) set(bucket int, tables tableMap) int {
	if tables == nil {
		tables = make(tableMap)
	}
	rows := 0
	for _, t := range tables {
		rows += len(t)
	}
	delta := rows - s.rows[bucket]
	s.data[bucket], s.rows[bucket] = tables, rows
	return delta
}

// totalRows returns the store's row count across all buckets.
func (s *bucketStore) totalRows() int {
	total := 0
	for _, n := range s.rows {
		total += n
	}
	return total
}

// bucketRows returns the row count of one bucket.
func (s *bucketStore) bucketRows(bucket int) int { return s.rows[bucket] }
