package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"
)

// fuzzSeedSegment builds a clean three-record segment for seeding mutations.
func fuzzSeedSegment() []byte {
	out, _ := appendRecord(nil, &Record{Bucket: 3, LSN: 1, Txn: "put", Key: "k", Args: 7})
	out, _ = appendRecord(out, &Record{PlanSeq: 1, Plan: []int32{0, 1}, Active: 1})
	out, _ = appendRecord(out, &Record{Bucket: 5, LSN: 1, Txn: "get", Key: "k"})
	return out
}

// FuzzSegmentDecode: corrupt CRC, truncated length prefix, garbage tail —
// DecodeSegment must never panic and never return phantom records (every
// returned record's frame CRC-validated inside the reported valid prefix).
func FuzzSegmentDecode(f *testing.F) {
	seed := fuzzSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                         // torn tail
	f.Add([]byte{})                                   // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	flipped := append([]byte{}, seed...)
	flipped[frameHeaderSize+2] ^= 0x40 // corrupt first payload
	f.Add(flipped)
	f.Add(append(append([]byte{}, seed...), 0xde, 0xad, 0xbe)) // garbage tail
	// CRC-valid frames that are not records: an empty payload, an unknown
	// kind, a plan cut inside an entry, plan sequence 0, a partition past int32,
	// a command whose strings outrun its payload.
	plan := func(seq, partHi byte, extra ...byte) []byte {
		return append([]byte{kindPlan, 0, 0, 0, 0, 0, 0, 0, seq, 0, 0, 0, 1, partHi, 0, 0, 0}, extra...)
	}
	cmd := []byte{kindCommand, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 9, 'p', 'u', 'k'}
	for _, payload := range [][]byte{{}, {9, 1, 2}, plan(1, 0, 7), plan(0, 0), plan(1, 0x80), cmd} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
		f.Add(append(append([]byte{}, seed...), append(frame, payload...)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := DecodeSegment(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if err == nil && valid != int64(len(data)) {
			t.Fatalf("nil error but valid %d != len %d", valid, len(data))
		}
		// No phantoms: every record must re-derive from a CRC-clean frame
		// walk of the valid prefix.
		n := 0
		off := int64(0)
		for off+frameHeaderSize <= valid {
			length := int64(binary.BigEndian.Uint32(data[off : off+4]))
			sum := binary.BigEndian.Uint32(data[off+4 : off+8])
			end := off + frameHeaderSize + length
			if length > MaxRecordBytes || end > valid {
				t.Fatalf("frame at %d (len %d) not contained in valid prefix %d", off, length, valid)
			}
			if crc32.Checksum(data[off+frameHeaderSize:end], crcTable) != sum {
				t.Fatalf("frame at %d inside valid prefix fails CRC", off)
			}
			n++
			off = end
		}
		if off != valid {
			t.Fatalf("valid prefix %d is not a whole number of frames (stopped at %d)", valid, off)
		}
		if len(recs) > n {
			t.Fatalf("%d records from %d frames — phantom records", len(recs), n)
		}
	})
}

// FuzzImageSetDecode: arbitrary bytes must never panic, and what comes back
// has valid-prefix semantics — the frames tile the reported prefix exactly,
// each behind a header that re-validates, and nothing is reported beyond it.
func FuzzImageSetDecode(f *testing.F) {
	seed, _ := encodeImage(nil, &Image{Bucket: 3, Rows: 1, LSN: 9, Tables: map[string]map[string]any{"T": {"k": 7}}})
	seed, _ = encodeImage(seed, &Image{Bucket: 4, LSN: 2})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])       // torn last payload
	f.Add(seed[:imageHeaderSize-1]) // torn first header
	f.Add([]byte{})
	flipped := append([]byte{}, seed...)
	flipped[9] ^= 0x01 // corrupt the first header's lsn
	f.Add(flipped)
	huge := append([]byte{}, seed[:imageHeaderSize]...)
	binary.BigEndian.PutUint32(huge[20:24], 0xffffffff) // absurd payload length, CRC fixed up
	binary.BigEndian.PutUint32(huge[28:32], crc32.Checksum(huge[0:28], crcTable))
	f.Add(huge)
	f.Add(append(append([]byte{}, seed...), 0xde, 0xad, 0xbe)) // garbage tail
	// CRC-valid frames that are not records: an empty payload, an unknown
	// kind, a plan cut inside an entry, plan sequence 0, a partition past int32,
	// a command whose strings outrun its payload.
	plan := func(seq, partHi byte, extra ...byte) []byte {
		return append([]byte{kindPlan, 0, 0, 0, 0, 0, 0, 0, seq, 0, 0, 0, 1, partHi, 0, 0, 0}, extra...)
	}
	cmd := []byte{kindCommand, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 9, 'p', 'u', 'k'}
	for _, payload := range [][]byte{{}, {9, 1, 2}, plan(1, 0, 7), plan(0, 0), plan(1, 0x80), cmd} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
		f.Add(append(append([]byte{}, seed...), append(frame, payload...)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, valid, err := DecodeImageSet(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if err == nil && valid != int64(len(data)) {
			t.Fatalf("nil error but valid %d != len %d", valid, len(data))
		}
		off := int64(0)
		for i, fr := range frames {
			if fr.Off != off || fr.Size < imageHeaderSize || fr.Off+int64(fr.Size) > valid {
				t.Fatalf("frame %d at [%d, +%d) does not tile the valid prefix %d from %d", i, fr.Off, fr.Size, valid, off)
			}
			bucket, lsn, rows, plen, herr := decodeImageHeader(data[fr.Off:])
			if herr != nil || bucket != fr.Bucket || lsn != fr.LSN || rows != fr.Rows || imageHeaderSize+plen != fr.Size {
				t.Fatalf("frame %d %+v does not re-derive from its header (%v)", i, fr, herr)
			}
			// A frame the walk reported must be safe to hand to the image
			// decoder, whatever its payload holds.
			_, _ = decodeImage(data[fr.Off : fr.Off+int64(fr.Size)])
			off += int64(fr.Size)
		}
		if off != valid {
			t.Fatalf("frames end at %d, valid prefix is %d", off, valid)
		}
	})
}

// FuzzManifestDecode: arbitrary bytes must never panic, and any manifest
// that decodes successfully must satisfy every invariant the log relies on.
func FuzzManifestDecode(f *testing.F) {
	good, _ := encodeManifest(&Manifest{
		Version:  manifestVersion,
		Geometry: Geometry{Buckets: 4, MaxMachines: 2, PartitionsPerMachine: 2},
		PlanSeq:  3,
		Plan:     []int32{0, 1, 2, 3},
		Active:   2,
	})
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"geometry":{"buckets":-1}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})
	truncated := good[:len(good)/2]
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if m.Version != manifestVersion {
			t.Fatalf("accepted version %d", m.Version)
		}
		g := m.Geometry
		if g.Buckets <= 0 || g.MaxMachines <= 0 || g.PartitionsPerMachine <= 0 {
			t.Fatalf("accepted invalid geometry %+v", g)
		}
		if m.Plan != nil && len(m.Plan) != g.Buckets {
			t.Fatalf("accepted plan of %d entries for %d buckets", len(m.Plan), g.Buckets)
		}
		for b, p := range m.Plan {
			if p < 0 || int(p) >= g.MaxMachines*g.PartitionsPerMachine {
				t.Fatalf("accepted plan[%d] = %d", b, p)
			}
		}
		if m.Active < 0 || m.Active > g.MaxMachines {
			t.Fatalf("accepted active %d", m.Active)
		}
		// A valid manifest must survive a re-encode round trip.
		out, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m2, err := DecodeManifest(out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		a, _ := json.Marshal(m)
		b, _ := json.Marshal(m2)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip changed manifest: %s vs %s", a, b)
		}
	})
}
