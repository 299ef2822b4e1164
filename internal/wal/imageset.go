package wal

import (
	"fmt"
	"path/filepath"
	"sort"
)

// Image sets. A checkpoint round writes all of its images as one file,
// img/set-<seq>.ckpt: the round's image frames (manifest.go) laid end to end,
// written to a temp file, synced once and renamed into place. The rename is
// the round's commit point — after a crash every image of the round is there
// or none is — and the single sync is its whole durability cost, whatever the
// number of buckets. An image only shortens replay (the log alone fixes the
// outcome), so nothing is lost by making the round, not the bucket, the
// atomic unit.
//
// A bucket's current image is its frame in the latest set that has one: sets
// are scanned in sequence order on open and a later set wins. A set none of
// whose frames is current any more is deleted, so a full round retires every
// set before it and a partial round (one migrated chunk) only the sets it
// wholly supersedes.

// imgDirName is the image sets' subdirectory of the data directory.
const imgDirName = "img"

func setName(seq int) string { return fmt.Sprintf("set-%08d.ckpt", seq) }

func (l *Log) setPath(seq int) string { return filepath.Join(l.dir, imgDirName, setName(seq)) }

// ImageFrame locates one image frame inside an image set.
type ImageFrame struct {
	Bucket int
	LSN    uint64
	Rows   int
	// Off is the frame's offset in the set, Size its length, header included.
	Off  int64
	Size int
}

// imageRef is a bucket's current image: which set holds it, and where.
type imageRef struct {
	set   int
	frame ImageFrame
}

// DecodeImageSet walks an image set's frame headers and returns every frame
// of its valid prefix plus the prefix's length. It never panics; a non-nil
// error says why the walk stopped early, and a clean set returns
// valid == len(data) and a nil error. Payloads are not decoded or checksummed
// here — LoadImages does that for the frames it reads. A set reaches its final
// name only after its sync, so a set that does not walk cleanly is damaged,
// not torn.
func DecodeImageSet(data []byte) (frames []ImageFrame, valid int64, err error) {
	off := int64(0)
	for off < int64(len(data)) {
		bucket, lsn, rows, plen, err := decodeImageHeader(data[off:])
		if err != nil {
			return frames, off, fmt.Errorf("wal: image frame at %d: %w", off, err)
		}
		size := int64(imageHeaderSize) + int64(plen)
		if size > int64(len(data))-off {
			return frames, off, fmt.Errorf("wal: image frame at %d torn (%d of %d bytes)", off, int64(len(data))-off, size)
		}
		frames = append(frames, ImageFrame{Bucket: bucket, LSN: lsn, Rows: rows, Off: off, Size: int(size)})
		off += size
	}
	return frames, off, nil
}

// recoverImages scans the image sets in sequence order, rebuilds the
// bucket -> current image index, and deletes the sets a crash left behind
// after they had been wholly superseded.
func (l *Log) recoverImages(rec *Recovered) error {
	names, err := l.fs.ReadDir(filepath.Join(l.dir, imgDirName))
	if err != nil {
		return err
	}
	var seqs []int
	for _, n := range names {
		var seq int
		if _, err := fmt.Sscanf(n, "set-%08d.ckpt", &seq); err != nil || setName(seq) != n {
			return fmt.Errorf("wal: %s holds %s, which is not an image set (a per-bucket image of the old layout?); refusing to open", filepath.Join(l.dir, imgDirName), n)
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		data, err := readAll(l.fs, l.setPath(seq))
		if err != nil {
			return err
		}
		frames, _, err := DecodeImageSet(data)
		if err != nil {
			return fmt.Errorf("wal: image set %s is corrupt: %w", setName(seq), err)
		}
		l.setLive[seq] = 0
		for _, f := range frames {
			if f.Bucket >= l.cfg.Geometry.Buckets {
				return fmt.Errorf("wal: image set %s names bucket %d out of range", setName(seq), f.Bucket)
			}
			l.indexImageLocked(seq, f)
			rec.Buckets[f.Bucket] = &BucketRecovery{Base: f.LSN, HasImage: true, Head: f.LSN}
		}
		l.setSeq = seq
	}
	return l.removeSets(l.deadSetsLocked())
}

// indexImageLocked makes a frame of set seq its bucket's current image.
// Caller holds l.mu (or is still single-threaded in Open).
func (l *Log) indexImageLocked(seq int, f ImageFrame) {
	if old, ok := l.images[f.Bucket]; ok {
		l.setLive[old.set]--
	}
	l.images[f.Bucket] = imageRef{set: seq, frame: f}
	l.setLive[seq]++
}

// baseLocked is the LSN a bucket's current image covers (0 = no image).
// Caller holds l.mu.
func (l *Log) baseLocked(bucket int) uint64 { return l.images[bucket].frame.LSN }

// deadSetsLocked forgets, and returns, every set that no longer holds a
// current image. Caller holds l.mu (or is still single-threaded in Open).
func (l *Log) deadSetsLocked() []int {
	var dead []int
	for seq, live := range l.setLive {
		if live == 0 {
			dead = append(dead, seq)
			delete(l.setLive, seq)
		}
	}
	return dead
}

// removeSets deletes retired sets' files. Caller holds l.imgMu (or is still
// single-threaded in Open) and not l.mu: appends do not wait for it.
func (l *Log) removeSets(seqs []int) error {
	for _, seq := range seqs {
		if err := l.fs.Remove(l.setPath(seq)); err != nil {
			return fmt.Errorf("wal: retiring image set %s: %w", setName(seq), err)
		}
	}
	return nil
}

// WriteImages spills one checkpoint round's images to disk as one image set —
// one write, one sync, one rename, however many images — and makes each the
// current image of its bucket: the image's LSN is the bucket's base, and the
// records at or below it become redundant for compaction. Either every image of the
// round is installed or, on an error, none is.
func (l *Log) WriteImages(imgs []*Image) error {
	if len(imgs) == 0 {
		return nil
	}
	var data []byte
	frames := make([]ImageFrame, len(imgs))
	for i, img := range imgs {
		if img.Bucket < 0 || img.Bucket >= l.cfg.Geometry.Buckets {
			return fmt.Errorf("wal: image for bucket %d out of range", img.Bucket)
		}
		off := len(data)
		var err error
		if data, err = encodeImage(data, img); err != nil {
			return err
		}
		frames[i] = ImageFrame{Bucket: img.Bucket, LSN: img.LSN, Rows: img.Rows, Off: int64(off), Size: len(data) - off}
	}
	l.imgMu.Lock()
	defer l.imgMu.Unlock()
	seq := l.setSeq + 1
	if err := writeFileAtomic(l.fs, l.setPath(seq), data); err != nil {
		return fmt.Errorf("wal: writing image set %s: %w", setName(seq), err)
	}
	l.setSeq = seq
	l.mu.Lock()
	for _, f := range frames {
		l.indexImageLocked(seq, f)
	}
	dead := l.deadSetsLocked()
	l.mu.Unlock()
	return l.removeSets(dead)
}

// LoadImages reads the current checkpoint images of the given buckets from
// disk, reading each set that holds one of them once. Buckets without an
// image are absent from the result.
func (l *Log) LoadImages(buckets []int) (map[int]*Image, error) {
	l.imgMu.RLock()
	defer l.imgMu.RUnlock()
	bySet := make(map[int][]ImageFrame)
	l.mu.Lock()
	for _, b := range buckets {
		if ref, ok := l.images[b]; ok {
			bySet[ref.set] = append(bySet[ref.set], ref.frame)
		}
	}
	l.mu.Unlock()
	out := make(map[int]*Image, len(buckets))
	for seq, frames := range bySet {
		data, err := readAll(l.fs, l.setPath(seq))
		if err != nil {
			return nil, err
		}
		for _, f := range frames {
			if f.Off+int64(f.Size) > int64(len(data)) {
				return nil, fmt.Errorf("wal: image set %s is %d bytes, bucket %d's image ends at %d", setName(seq), len(data), f.Bucket, f.Off+int64(f.Size))
			}
			img, err := decodeImage(data[f.Off : f.Off+int64(f.Size)])
			if err != nil {
				return nil, fmt.Errorf("wal: image set %s: %w", setName(seq), err)
			}
			if img.Bucket != f.Bucket {
				return nil, fmt.Errorf("wal: image set %s has bucket %d where bucket %d's image was written", setName(seq), img.Bucket, f.Bucket)
			}
			out[f.Bucket] = img
		}
	}
	return out, nil
}
