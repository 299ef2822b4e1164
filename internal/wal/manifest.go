package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// manifestName is the store's identity file, following the engram
// DataDir-store idiom: a JSON document at the data directory root that a
// reopen validates before trusting anything else in the directory.
const manifestName = "MANIFEST.json"

// manifestVersion is the on-disk format version; a mismatch refuses to open
// rather than misread. Version 1 kept one img/bucket-N.img file per bucket;
// version 2 keeps a checkpoint round's images together in one image set
// (imageset.go) and wrote each segment as one gob stream; version 3 writes
// segments as self-contained record frames (record.go). Older directories are
// refused, not converted.
const manifestVersion = 3

// Geometry is the engine shape a log directory was created for. Replay is
// only meaningful against the same bucket space, so a reopen with different
// geometry is refused.
type Geometry struct {
	Buckets              int `json:"buckets"`
	MaxMachines          int `json:"max_machines"`
	PartitionsPerMachine int `json:"partitions_per_machine"`
}

// Manifest is the durable store descriptor. Besides identity it carries the
// latest checkpointed bucket plan: plan records in segments are deltas on
// top of it, ordered by PlanSeq, so compaction can drop old plan records
// once a checkpoint has folded them in here.
type Manifest struct {
	Version  int      `json:"version"`
	Geometry Geometry `json:"geometry"`
	// PlanSeq is the plan-change sequence number the Plan/Active fields
	// reflect; segment plan records with larger PlanSeq override them.
	PlanSeq uint64 `json:"plan_seq"`
	// Plan is the bucket plan at the last checkpoint (nil before any plan
	// was logged); Active is the active machine count alongside it.
	Plan   []int32 `json:"plan,omitempty"`
	Active int     `json:"active,omitempty"`
	// Epoch is the replication fencing term. A promoted follower raises it;
	// a zombie primary still on the old epoch has its ship batches rejected,
	// and the raise is durable here so fencing survives restarts.
	Epoch uint64 `json:"epoch,omitempty"`
}

// DecodeManifest parses and validates manifest bytes. It never panics;
// garbage, truncation, or an unsupported version return an error.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wal: manifest: %w", err)
	}
	if m.Version == 1 {
		return nil, fmt.Errorf("wal: manifest version 1 is the per-bucket image layout (img/bucket-N.img), which this build neither reads nor converts: it keeps images in sets (version %d); start from a fresh data directory", manifestVersion)
	}
	if m.Version == 2 {
		return nil, fmt.Errorf("wal: manifest version 2 is the gob segment layout (each seg-N.log one gob stream), which this build neither reads nor converts: it writes segments as self-contained record frames (version %d); start from a fresh data directory", manifestVersion)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("wal: manifest version %d, want %d", m.Version, manifestVersion)
	}
	g := m.Geometry
	if g.Buckets <= 0 || g.MaxMachines <= 0 || g.PartitionsPerMachine <= 0 {
		return nil, fmt.Errorf("wal: manifest has invalid geometry %+v", g)
	}
	if m.Plan != nil && len(m.Plan) != g.Buckets {
		return nil, fmt.Errorf("wal: manifest plan covers %d buckets, want %d", len(m.Plan), g.Buckets)
	}
	parts := int32(g.MaxMachines * g.PartitionsPerMachine)
	for b, p := range m.Plan {
		if p < 0 || p >= parts {
			return nil, fmt.Errorf("wal: manifest plan[%d] = %d out of [0, %d)", b, p, parts)
		}
	}
	if m.Active < 0 || m.Active > g.MaxMachines {
		return nil, fmt.Errorf("wal: manifest active %d out of [0, %d]", m.Active, g.MaxMachines)
	}
	return &m, nil
}

// encodeManifest renders the manifest deterministically.
func encodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("wal: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// Checkpoint-image frame format: a fixed header followed by one gob payload
// (the bucket's tables). A frame says how long it is and carries a CRC over
// its header and one over its payload, so frames can be laid end to end in an
// image set and walked header by header without decoding a payload — open
// learns every bucket's image LSN that way.
//
//	magic   u32  'PWAL'
//	bucket  u32
//	lsn     u64
//	rows    u32
//	plen    u32  payload length
//	pcrc    u32  CRC32-C of payload
//	hcrc    u32  CRC32-C of the preceding 28 bytes
const (
	imageMagic      = 0x5057414c // "PWAL"
	imageHeaderSize = 32
)

// Image is one bucket's checkpoint: its tables as of LSN. Replaying the
// bucket's records with larger LSNs on top reproduces its current state.
type Image struct {
	Bucket int
	Rows   int
	LSN    uint64
	Tables map[string]map[string]any
}

// encodeImage appends one image frame to dst and returns the extended slice.
func encodeImage(dst []byte, img *Image) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(img.Tables); err != nil {
		return dst, fmt.Errorf("wal: encoding image for bucket %d: %w", img.Bucket, err)
	}
	var hdr [imageHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], imageMagic)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(img.Bucket))
	binary.BigEndian.PutUint64(hdr[8:16], img.LSN)
	binary.BigEndian.PutUint32(hdr[16:20], uint32(img.Rows))
	binary.BigEndian.PutUint32(hdr[20:24], uint32(payload.Len()))
	binary.BigEndian.PutUint32(hdr[24:28], crc32.Checksum(payload.Bytes(), crcTable))
	binary.BigEndian.PutUint32(hdr[28:32], crc32.Checksum(hdr[0:28], crcTable))
	return append(append(dst, hdr[:]...), payload.Bytes()...), nil
}

// decodeImageHeader validates the frame header at the start of data and
// returns its metadata and payload length without touching the payload.
func decodeImageHeader(data []byte) (bucket int, lsn uint64, rows, plen int, err error) {
	if len(data) < imageHeaderSize {
		return 0, 0, 0, 0, fmt.Errorf("wal: image frame is %d bytes, shorter than its header", len(data))
	}
	if binary.BigEndian.Uint32(data[28:32]) != crc32.Checksum(data[0:28], crcTable) {
		return 0, 0, 0, 0, fmt.Errorf("wal: image header fails CRC")
	}
	if binary.BigEndian.Uint32(data[0:4]) != imageMagic {
		return 0, 0, 0, 0, fmt.Errorf("wal: image has bad magic %08x", binary.BigEndian.Uint32(data[0:4]))
	}
	bucket = int(binary.BigEndian.Uint32(data[4:8]))
	lsn = binary.BigEndian.Uint64(data[8:16])
	rows = int(binary.BigEndian.Uint32(data[16:20]))
	plen = int(binary.BigEndian.Uint32(data[20:24]))
	return bucket, lsn, rows, plen, nil
}

// decodeImage validates and decodes one whole image frame.
func decodeImage(data []byte) (*Image, error) {
	bucket, lsn, rows, plen, err := decodeImageHeader(data)
	if err != nil {
		return nil, err
	}
	if len(data) != imageHeaderSize+plen {
		return nil, fmt.Errorf("wal: image payload is %d bytes, header says %d", len(data)-imageHeaderSize, plen)
	}
	payload := data[imageHeaderSize:]
	if binary.BigEndian.Uint32(data[24:28]) != crc32.Checksum(payload, crcTable) {
		return nil, fmt.Errorf("wal: image payload for bucket %d fails CRC", bucket)
	}
	img := &Image{Bucket: bucket, LSN: lsn, Rows: rows}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img.Tables); err != nil {
		return nil, fmt.Errorf("wal: decoding image for bucket %d: %w", bucket, err)
	}
	return img, nil
}
