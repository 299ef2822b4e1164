package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
)

// Procedure is a stored procedure as Engine.Register takes it: the body the
// executor runs, the check of an in-process input and the decoder of its JSON
// input, all built by Proc from one function, so the type of a procedure's
// input is declared in one place — submission checks it, and the wire, the
// command log and replay all decode into it.
type Procedure struct {
	run    func(tx *Tx) (any, error)
	check  func(args any) error
	decode func(raw json.RawMessage) (any, error)
}

// NoArgs is the input of a procedure that takes none. In process such a
// procedure runs on nil args (or a NoArgs) and refuses any other value;
// encoded, it accepts absent, null or {} args and decodes them to nil, so the
// log records of its nil-args runs carry no args.
type NoArgs struct{}

// Proc builds the Procedure of fn. fn runs on the partition that owns the
// transaction's routing key and may only touch rows co-located with it — the
// single-partition transaction model of H-Store that the B2W workload
// satisfies (every operation accesses one partitioning key). It is handed the
// transaction's args as an A: a value passed in-process must be an A (nil for
// NoArgs), and encoded args are decoded into an A, refusing unknown fields so
// a client/server schema drift fails loudly instead of zeroing arguments.
func Proc[A any](fn func(tx *Tx, args A) (any, error)) Procedure {
	want := reflect.TypeFor[A]()
	_, none := any(*new(A)).(NoArgs)
	check := func(args any) error {
		if _, ok := args.(A); ok || none && args == nil {
			return nil
		}
		return fmt.Errorf("takes %v, got %T", want, args)
	}
	return Procedure{
		run: func(tx *Tx) (any, error) {
			// Submission refused such args before logging them; a replayed
			// record from an older log may still carry them.
			if err := check(tx.args); err != nil {
				return nil, fmt.Errorf("store: procedure %w", err)
			}
			args, _ := tx.args.(A)
			return fn(tx, args)
		},
		check: check,
		decode: func(raw json.RawMessage) (any, error) {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			var args A
			if err := dec.Decode(&args); err != nil {
				return nil, err
			}
			if none {
				return nil, nil
			}
			return args, nil
		},
	}
}

// ErrUnknownTxn is returned when executing a transaction name that was
// never registered.
var ErrUnknownTxn = errors.New("store: unknown transaction")

// ErrCrossPartition is returned when a transaction touches a key that does
// not hash to its own bucket — which would require a distributed
// transaction, unsupported by design (Section 4.2: "the workload has few
// distributed transactions").
var ErrCrossPartition = errors.New("store: key outside transaction's partition")

// ErrStopped is returned for transactions submitted after engine shutdown.
var ErrStopped = errors.New("store: engine stopped")

// Tx is the execution context handed to a procedure. All accesses are served
// from the owning partition's local data — no locks are needed because each
// partition executes serially.
type Tx struct {
	p      *partition
	bucket int
	// Key is the transaction's routing (partitioning) key.
	Key string
	// args is the procedure's input, handed to it typed by Proc's body.
	args any
}

// Get returns the row stored under (table, key), which must be co-located
// with the transaction's routing key.
func (tx *Tx) Get(table, key string) (any, bool, error) {
	if err := tx.check(key); err != nil {
		return nil, false, err
	}
	v, ok := tx.p.store.get(tx.bucket, table, key)
	return v, ok, nil
}

// Put stores a row under (table, key), co-located with the routing key.
func (tx *Tx) Put(table, key string, v any) error {
	if err := tx.check(key); err != nil {
		return err
	}
	if tx.p.store.put(tx.bucket, table, key, v) {
		atomic.AddInt64(&tx.p.rowsAtomic, 1)
	}
	return nil
}

// Delete removes the row under (table, key) if present.
func (tx *Tx) Delete(table, key string) error {
	if err := tx.check(key); err != nil {
		return err
	}
	if tx.p.store.del(tx.bucket, table, key) {
		atomic.AddInt64(&tx.p.rowsAtomic, -1)
	}
	return nil
}

func (tx *Tx) check(key string) error {
	if b := tx.p.eng.bucketOf(key); b != tx.bucket {
		return fmt.Errorf("%w: key %q is in bucket %d, transaction runs in bucket %d",
			ErrCrossPartition, key, b, tx.bucket)
	}
	return nil
}
