package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Record format. A record is one self-contained frame:
//
//	[4B payload length][4B CRC32-C of payload][payload]
//
//	command payload = kind(1B) bucket(4B) lsn(8B) len(txn)(4B) len(key)(4B) txn key args
//	plan payload    = kind(1B) planSeq(8B) active(4B) partition(4B) per bucket
//
// Integers are big-endian. A command's args are the rest of its payload: the
// JSON encoding of the value the submitter passed — what a client request
// carried on the wire — or nothing when the procedure took none.
//
// appendRecord is the only encoder and DecodeRecord the only decoder. A frame
// is encoded once, when its record is enqueued, and those bytes are what the
// segment stores, the ship tail holds, a ship batch carries and a follower
// appends to its own segment; nothing downstream re-encodes them. Frames are
// also the torn-tail detection unit: on open a segment is scanned frame by
// frame and cut at the first one that is short, fails its CRC or does not
// decode. Appends are written in order and fsync preserves ordering, so a cut
// suffix holds only records that were never acknowledged.

const (
	// frameHeaderSize is the per-record framing overhead.
	frameHeaderSize = 8
	// MaxShipRecords and MaxShipBytes bound the record frames of one ship
	// batch: by count, and to one wire frame (1 MiB) less room for the batch
	// header (wire asserts the fit).
	MaxShipRecords = 512
	MaxShipBytes   = 1<<20 - 4<<10
	// MaxRecordBytes bounds one frame's payload, so that any record the log
	// accepts fits a ship batch; a length prefix beyond it marks the frame
	// (and the rest of the segment) as garbage.
	MaxRecordBytes = MaxShipBytes - frameHeaderSize
)

// crcTable is the Castagnoli polynomial, the same choice as iSCSI/ext4.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	// kindCommand is one procedure's input.
	kindCommand = 1
	// kindPlan is a bucket-plan change (ownership flip or active-machine
	// resize). PlanSeq totally orders plan records across segments and
	// manifest rewrites.
	kindPlan = 2
	// The fixed part of either payload.
	commandHeaderSize = 1 + 4 + 8 + 4 + 4
	planHeaderSize    = 1 + 8 + 4
)

// Record is one log record: a command — the input of one procedure, the
// transaction named, not numbered, because dense engine handles need not
// survive a restart — or, when PlanSeq > 0, a plan change.
type Record struct {
	Bucket int
	LSN    uint64
	Txn    string
	Key    string
	// Args is the procedure's argument. Enqueue encodes it as JSON; a record
	// read back carries that encoding as a json.RawMessage aliasing the bytes
	// it was decoded from, or nil when the procedure took no argument.
	Args any

	PlanSeq uint64
	Plan    []int32
	Active  int
}

// IsPlan reports whether the record is a plan change.
func (r *Record) IsPlan() bool { return r.PlanSeq > 0 }

// ErrRecordRefused is Enqueue's answer for a record the log cannot hold — args
// that do not encode, or a frame no ship batch could carry. It is the outcome
// of that record, not of the log: nothing was logged and later appends are
// unaffected.
var ErrRecordRefused = errors.New("wal: record refused")

// appendRecord appends r's frame to dst and returns the extended slice.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	var args []byte
	size := planHeaderSize + 4*len(r.Plan)
	if !r.IsPlan() {
		if r.Args != nil {
			var err error
			if args, err = json.Marshal(r.Args); err != nil {
				return dst, fmt.Errorf("%w: encoding args of %q: %v", ErrRecordRefused, r.Txn, err)
			}
		}
		size = commandHeaderSize + len(r.Txn) + len(r.Key) + len(args)
	}
	if size > MaxRecordBytes {
		return dst, fmt.Errorf("%w: payload of %d bytes exceeds max %d", ErrRecordRefused, size, MaxRecordBytes)
	}
	start, be := len(dst), binary.BigEndian
	dst = slices.Grow(dst, frameHeaderSize+size)
	dst = be.AppendUint32(dst, uint32(size))
	dst = be.AppendUint32(dst, 0) // the CRC, once the payload is in place
	if r.IsPlan() {
		dst = append(dst, kindPlan)
		dst = be.AppendUint64(dst, r.PlanSeq)
		dst = be.AppendUint32(dst, uint32(r.Active))
		for _, p := range r.Plan {
			dst = be.AppendUint32(dst, uint32(p))
		}
	} else {
		dst = append(dst, kindCommand)
		dst = be.AppendUint32(dst, uint32(r.Bucket))
		dst = be.AppendUint64(dst, r.LSN)
		dst = be.AppendUint32(dst, uint32(len(r.Txn)))
		dst = be.AppendUint32(dst, uint32(len(r.Key)))
		dst = append(append(append(dst, r.Txn...), r.Key...), args...)
	}
	be.PutUint32(dst[start+4:], crc32.Checksum(dst[start+frameHeaderSize:], crcTable))
	return dst, nil
}

// frameLen returns the length of the frame at the start of data, header
// included, from its length prefix alone: enough to step over a frame without
// decoding it.
func frameLen(data []byte) (int, error) {
	if len(data) < frameHeaderSize {
		return 0, fmt.Errorf("frame torn (%d of %d header bytes)", len(data), frameHeaderSize)
	}
	length := binary.BigEndian.Uint32(data[0:4])
	if length > MaxRecordBytes {
		return 0, fmt.Errorf("frame claims %d bytes", length)
	}
	if n := frameHeaderSize + int(length); n <= len(data) {
		return n, nil
	}
	return 0, fmt.Errorf("frame torn (%d of %d payload bytes)", len(data)-frameHeaderSize, length)
}

// DecodeRecord decodes the frame at the start of data and returns the record
// with the frame's length, so data[:n] are the record's bytes and data[n:]
// the next frame. It never panics, and never returns a record from a frame
// whose CRC does not validate. The record's Args alias data.
func DecodeRecord(data []byte) (r Record, n int, err error) {
	if n, err = frameLen(data); err != nil {
		return Record{}, 0, err
	}
	p, be := data[frameHeaderSize:n], binary.BigEndian
	if crc32.Checksum(p, crcTable) != be.Uint32(data[4:8]) {
		return Record{}, 0, errors.New("frame fails CRC")
	}
	// A CRC-valid payload can still be no record: every field is bounded
	// before it is used as a length or narrowed.
	ok := false
	switch {
	case len(p) >= commandHeaderSize && p[0] == kindCommand:
		bucket := be.Uint32(p[1:])
		txn, key := uint64(be.Uint32(p[13:])), uint64(be.Uint32(p[17:]))
		rest := p[commandHeaderSize:]
		if bucket > math.MaxInt32 || txn+key > uint64(len(rest)) {
			break
		}
		r = Record{Bucket: int(bucket), LSN: be.Uint64(p[5:]), Txn: string(rest[:txn]), Key: string(rest[txn : txn+key])}
		if args := rest[txn+key:]; len(args) > 0 {
			r.Args = json.RawMessage(args)
		}
		ok = true
	case len(p) >= planHeaderSize && p[0] == kindPlan && (len(p)-planHeaderSize)%4 == 0:
		active, plan := be.Uint32(p[9:]), p[planHeaderSize:]
		r = Record{PlanSeq: be.Uint64(p[1:]), Active: int(active), Plan: make([]int32, len(plan)/4)}
		ok = r.PlanSeq > 0 && active <= math.MaxInt32
		for b := range r.Plan {
			part := be.Uint32(plan[4*b:])
			ok = ok && part <= math.MaxInt32
			r.Plan[b] = int32(part)
		}
	}
	if !ok {
		return Record{}, 0, errors.New("frame's payload is not a record")
	}
	return r, n, nil
}

// scanSegment walks a segment's bytes frame by frame, handing visit each
// record and the offset after its frame, and stops at the first frame that is
// torn, corrupt or not a record: valid is the length of the prefix before it,
// and err, when non-nil, says why the scan stopped short of len(data).
func scanSegment(data []byte, visit func(r *Record, end int64)) (valid int64, err error) {
	for off := 0; off < len(data); {
		r, n, err := DecodeRecord(data[off:])
		if err != nil {
			return int64(off), fmt.Errorf("wal: frame at %d: %w", off, err)
		}
		off += n
		visit(&r, int64(off))
	}
	return int64(len(data)), nil
}

// DecodeSegment scans one segment's raw bytes and returns every command
// record in its valid prefix plus the prefix's length in bytes. It never
// panics and never returns a record whose frame did not CRC-validate (no
// phantom records — the fuzz target's contract). A non-nil error describes
// why scanning stopped early; a fully clean segment returns
// valid == len(data) and a nil error. Plan records are internal bookkeeping
// and are skipped here.
func DecodeSegment(data []byte) (recs []Record, valid int64, err error) {
	valid, err = scanSegment(data, func(r *Record, _ int64) {
		if !r.IsPlan() {
			recs = append(recs, *r)
		}
	})
	return recs, valid, err
}

// readAll reads a whole file through the FS abstraction.
func readAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// writeFileAtomic writes data as name via a temp file + Sync + Rename, the
// all-or-nothing idiom images and the manifest rely on.
func writeFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, name)
}
