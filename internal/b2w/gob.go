package b2w

import "encoding/gob"

// Checkpoint images (internal/wal) still gob-encode a bucket's rows as
// interface values, so the four row types are registered — as pointers, the
// form rows live in tables in and must come back in. Images are the one place
// gob is left: the command log and the wire carry JSON (wire.go), and giving
// images the wire's BucketFrame encoding is a change of its own.
func init() {
	gob.Register(&Cart{})
	gob.Register(&Checkout{})
	gob.Register(&StockItem{})
	gob.Register(&StockTransaction{})
}
