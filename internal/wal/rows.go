package wal

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
)

// An image payload is one bucket's tables, `count (name count (key tag
// value)*)*`, and decodes alone. Counts are uvarints, strings a uvarint length
// and their bytes. A value is an int (tagInt, zigzag varint), a uint64, a
// string, or a row of a registered type behind a uvarint length; a frame names
// a row type at its first row (tagNewRow, then the name) and numbers it after
// (tagRow+i, i its order of naming).
const (
	tagInt = iota
	tagUint
	tagString
	tagNewRow
	tagRow
)

// Row is a table row of a registered type: AppendBinary is
// encoding.BinaryAppender's (newer than the module's Go version), and
// UnmarshalBinary must refuse, never panic on, bytes AppendBinary would not
// have written.
type Row interface {
	AppendBinary(b []byte) ([]byte, error)
	encoding.BinaryUnmarshaler
}

// The row types, filled by RegisterRow at start-up and only read after.
var (
	rowNames = map[reflect.Type]string{}
	newRows  = map[string]func() Row{}
)

// RegisterRow lets images hold rows of newRow's type under name: the encoder
// writes the name, the decoder calls newRow for a row to unmarshal into. Like
// gob.Register, call it from an init function; a name or type registered
// twice panics.
func RegisterRow(name string, newRow func() Row) {
	t := reflect.TypeOf(newRow())
	if _, dup := newRows[name]; dup || rowNames[t] != "" {
		panic(fmt.Sprintf("wal: row type %v or name %q registered twice", t, name))
	}
	rowNames[t], newRows[name] = name, newRow
}

// AppendUint appends v as a uvarint.
func AppendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendInt appends v as a zigzag varint.
func AppendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendString appends s behind its uvarint length.
func AppendString(dst []byte, s string) []byte {
	return append(AppendUint(dst, uint64(len(s))), s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// RowReader reads back, in order, what the Append functions wrote, and only
// that, so a value re-encodes to the bytes it was read from. It never panics:
// its first failure sticks, later reads return zero values, Close reports it.
type RowReader struct {
	b   []byte
	err error
}

// NewRowReader returns a reader of b.
func NewRowReader(b []byte) RowReader { return RowReader{b: b} }

func (r *RowReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wal: "+format, args...)
	}
	r.b = nil
}

// Uint reads an AppendUint value.
func (r *RowReader) Uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 { // short, overflowing or not the shortest form
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int64 reads an AppendInt value.
func (r *RowReader) Int64() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads an AppendBool value.
func (r *RowReader) Bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail("bad bool")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// Str reads an AppendString value.
func (r *RowReader) Str() string { return string(r.bytes()) }

func (r *RowReader) bytes() []byte {
	if n := r.Uint(); n <= uint64(len(r.b)) {
		b := r.b[:n]
		r.b = r.b[n:]
		return b
	}
	r.fail("length overruns the %d bytes left", len(r.b))
	return nil
}

// Count reads an AppendUint count of items of at least min bytes each, and
// fails if that many could not fit in what is left.
func (r *RowReader) Count(min int) int {
	if n := r.Uint(); n <= uint64(len(r.b)/min) {
		return int(n)
	}
	r.fail("count overruns the %d bytes left", len(r.b))
	return 0
}

// Close returns the reader's first failure, or an error for unread bytes.
func (r *RowReader) Close() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("wal: %d trailing bytes", len(r.b))
	}
	return r.err
}

// tableEncoder appends payloads, keeping its buffers from frame to frame.
type tableEncoder struct {
	named []reflect.Type // the row types this frame has named, in order
	row   []byte         // one row's AppendBinary bytes
}

func (e *tableEncoder) appendTables(dst []byte, tables map[string]map[string]any) ([]byte, error) {
	e.named = e.named[:0]
	dst = AppendUint(dst, uint64(len(tables)))
	for name, t := range tables {
		dst = AppendUint(AppendString(dst, name), uint64(len(t)))
		for key, v := range t {
			var err error
			if dst, err = e.appendValue(AppendString(dst, key), v); err != nil {
				return dst, fmt.Errorf("wal: row %s/%s: %w", name, key, err)
			}
		}
	}
	return dst, nil
}

func (e *tableEncoder) appendValue(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case int:
		return AppendInt(append(dst, tagInt), int64(v)), nil
	case uint64:
		return AppendUint(append(dst, tagUint), v), nil
	case string:
		return AppendString(append(dst, tagString), v), nil
	case Row:
		t := reflect.TypeOf(v)
		if i := slices.Index(e.named, t); i >= 0 {
			dst = AppendUint(dst, uint64(tagRow+i))
		} else if name := rowNames[t]; name != "" {
			dst = AppendString(append(dst, tagNewRow), name)
			e.named = append(e.named, t)
		} else {
			return dst, fmt.Errorf("row type %v is not registered (wal.RegisterRow)", t)
		}
		var err error
		if e.row, err = v.AppendBinary(e.row[:0]); err != nil {
			return dst, err
		}
		return append(AppendUint(dst, uint64(len(e.row))), e.row...), nil
	}
	return dst, fmt.Errorf("type %T is neither int, uint64, string nor a registered row type (wal.RegisterRow)", v)
}

// decodeTables decodes one payload. A table or key that appears twice, an
// unknown tag or type name, a row its type refuses and trailing bytes are
// errors.
func decodeTables(p []byte) (map[string]map[string]any, error) {
	r := NewRowReader(p)
	var named []func() Row // the row types the frame has named, in order
	n := r.Count(2)        // a table takes a name and a count
	tables := make(map[string]map[string]any, n)
	for ; n > 0 && r.err == nil; n-- {
		name, rows := r.Str(), r.Count(3) // a row takes a key, a tag and a value
		t := make(map[string]any, rows)
		for i := 0; i < rows && r.err == nil; i++ {
			key := r.Str()
			t[key] = r.value(&named)
		}
		if _, dup := tables[name]; dup || len(t) != rows {
			r.fail("table %q or one of its keys appears twice", name)
		}
		tables[name] = t
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return tables, nil
}

func (r *RowReader) value(named *[]func() Row) any {
	tag := r.Uint()
	if tag == tagNewRow {
		name := r.Str()
		if newRows[name] == nil {
			r.fail("row type %q is not registered", name)
			return nil
		}
		*named = append(*named, newRows[name])
		tag = tagRow + uint64(len(*named)-1)
	}
	switch {
	case tag == tagInt:
		return int(r.Int64())
	case tag == tagUint:
		return r.Uint()
	case tag == tagString:
		return r.Str()
	case tag-tagRow < uint64(len(*named)):
		row, b := (*named)[tag-tagRow](), r.bytes()
		if err := row.UnmarshalBinary(b); err != nil && r.err == nil {
			r.fail("row %T: %v", row, err)
		}
		return row
	}
	r.fail("bad tag %d", tag)
	return nil
}
