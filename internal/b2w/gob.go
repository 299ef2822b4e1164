package b2w

import "encoding/gob"

// Gob is the bucket-state codec everywhere rows are serialized: checkpoint
// image sets, a follower's sync body and a migrated chunk are all one image
// set (internal/wal), whose payloads gob-encode a bucket's rows as interface
// values. So the four row types are registered — as pointers, the form rows
// live in tables in and must come back in. Transaction arguments are JSON
// (wire.go): the command log and the wire carry them as submitted.
func init() {
	gob.Register(&Cart{})
	gob.Register(&Checkout{})
	gob.Register(&StockItem{})
	gob.Register(&StockTransaction{})
}
