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
// here — DecodeImages and LoadImages do that, each payload on its own. A set
// reaches its final name only after its sync, so a set that does not walk
// cleanly is damaged, not torn.
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
			rec.Buckets[f.Bucket] = &BucketRecovery{Base: f.LSN, Head: f.LSN}
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
	data, err := EncodeImageSet(nil, imgs)
	if err != nil {
		return err
	}
	return l.WriteImageSet(data)
}

// WriteImageSet is WriteImages for a round that arrives encoded — a primary's
// sync body: the bytes are written as they are. Its frames must walk cleanly
// and name buckets of this log; payloads are checked when they are loaded.
func (l *Log) WriteImageSet(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	frames, _, err := DecodeImageSet(data)
	if err != nil {
		return err
	}
	for _, f := range frames {
		if f.Bucket >= l.cfg.Geometry.Buckets {
			return fmt.Errorf("wal: image for bucket %d out of range", f.Bucket)
		}
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
// disk. Each set that holds one of them is read once per call, and of it only
// the wanted frames are checked and decoded. Buckets without an image are
// absent from the result.
func (l *Log) LoadImages(buckets []int) (map[int]*Image, error) {
	l.imgMu.RLock()
	defer l.imgMu.RUnlock()
	bySet := make(map[int][]ImageFrame) // set -> the wanted frames in it
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
			var imgs []*Image
			if end := f.Off + int64(f.Size); end <= int64(len(data)) {
				imgs, err = DecodeImages(data[f.Off:end])
			}
			if len(imgs) != 1 || imgs[0].Bucket != f.Bucket {
				return nil, fmt.Errorf("wal: image set %s, bucket %d's frame: %v", setName(seq), f.Bucket, err)
			}
			out[f.Bucket] = imgs[0]
		}
		l.setDecodes.Add(1)
	}
	return out, nil
}
