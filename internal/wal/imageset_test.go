package wal

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testImage(bucket int, lsn uint64, v any) *Image {
	return &Image{Bucket: bucket, Rows: 1, LSN: lsn, Tables: map[string]map[string]any{"T": {"k": v}}}
}

// syncCounts installs a sync hook that counts fsyncs by kind of file.
type syncCounts struct{ sets, manifests, segments int }

func countSyncs(fs *MemFS) *syncCounts {
	c := &syncCounts{}
	fs.SetSyncHook(func(name string) error {
		switch {
		case strings.Contains(name, "set-"):
			c.sets++
		case strings.Contains(name, manifestName):
			c.manifests++
		default:
			c.segments++
		}
		return nil
	})
	return c
}

// imgRow is a workload row type: a struct stored by pointer, as the B2W rows
// are.
type imgRow struct {
	Name  string
	Lines []int
}

var _ Row = (*imgRow)(nil)

func init() { RegisterRow("wal.imgRow", func() Row { return new(imgRow) }) }

func (r *imgRow) AppendBinary(b []byte) ([]byte, error) {
	b = AppendUint(AppendString(b, r.Name), uint64(len(r.Lines)))
	for _, l := range r.Lines {
		b = AppendInt(b, int64(l))
	}
	return b, nil
}

func (r *imgRow) UnmarshalBinary(data []byte) error {
	rd := NewRowReader(data)
	r.Name, r.Lines = rd.Str(), make([]int, rd.Count(1))
	for i := range r.Lines {
		r.Lines[i] = int(rd.Int64())
	}
	return rd.Close()
}

// TestImageSetRoundTrip checks a round's images survive the disk format, in
// this life and after a reopen — LSNs, row counts and rows, a struct row
// coming back as its own pointer type — and that a bucket without an image is
// simply absent. A frame from the middle of a set decodes alone, though an
// earlier frame of the set holds a row of the same type.
func TestImageSetRoundTrip(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	row := func(name string) *imgRow { return &imgRow{Name: name, Lines: []int{1, 2}} }
	round := []*Image{
		{Bucket: 7, Rows: 2, LSN: 42, Tables: map[string]map[string]any{"T": {"a": 1, "b": "x"}, "R": {"r": row("r7")}}},
		{Bucket: 9, Rows: 0, LSN: 3, Tables: map[string]map[string]any{}},
		{Bucket: 11, Rows: 1, LSN: 5, Tables: map[string]map[string]any{"R": {"r": row("r11")}}},
	}
	if err := l.WriteImages(round); err != nil {
		t.Fatal(err)
	}
	check := func(l *Log) {
		t.Helper()
		got, err := l.LoadImages([]int{7, 8, 9, 11})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 || got[8] != nil {
			t.Fatalf("loaded %v, want buckets 7, 9 and 11 only", got)
		}
		if img := got[7]; img.LSN != 42 || img.Rows != 2 || img.Tables["T"]["a"] != 1 || img.Tables["T"]["b"] != "x" || !reflect.DeepEqual(img.Tables["R"]["r"], row("r7")) {
			t.Fatalf("bucket 7 image: %+v", img)
		}
		if img := got[9]; img.LSN != 3 || img.Rows != 0 || len(img.Tables) != 0 {
			t.Fatalf("bucket 9 image: %+v", img)
		}
		if img := got[11]; img.LSN != 5 || !reflect.DeepEqual(img.Tables["R"]["r"], row("r11")) {
			t.Fatalf("bucket 11 image: %+v", img)
		}
	}
	set, err := EncodeImageSet(nil, []*Image{round[0], round[2], round[1]})
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := DecodeImageSet(set)
	if err != nil || len(frames) != 3 {
		t.Fatalf("set of three images walks as %+v (err %v)", frames, err)
	}
	mid := frames[1]
	if imgs, err := DecodeImages(set[mid.Off : mid.Off+int64(mid.Size)]); err != nil || len(imgs) != 1 || !reflect.DeepEqual(imgs[0], round[2]) {
		t.Fatalf("the middle frame alone decodes as %+v (err %v), want %+v", imgs, err, round[2])
	}
	check(l)
	l.Close()
	l2, rec := openTest(t, fs, DefaultSegmentBytes)
	defer l2.Close()
	check(l2)
	if br := rec.Buckets[7]; br == nil || !hasImage(l2, 7) || br.Base != 42 {
		t.Fatalf("bucket 7 recovered as %+v", br)
	}
	if err := l2.WriteImages([]*Image{{Bucket: testGeometry().Buckets, LSN: 1}}); err == nil {
		t.Fatal("image for an out-of-range bucket was written")
	}
}

// TestImageSetOneSyncPerRound is the counted proof of the format: a round
// costs one fsync whatever the number of images, and a round that supersedes
// every image of an older set retires that set — a partial round does not.
func TestImageSetOneSyncPerRound(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	syncs := countSyncs(fs)
	sets := func() []string {
		names, err := fs.ReadDir("data/img")
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	full := func(lsn uint64) []*Image {
		var round []*Image
		for b := 0; b < testGeometry().Buckets; b++ {
			round = append(round, testImage(b, lsn, lsn))
		}
		return round
	}
	if err := l.WriteImages(full(1)); err != nil {
		t.Fatal(err)
	}
	if syncs.sets != 1 || syncs.manifests+syncs.segments != 0 {
		t.Fatalf("a %d-image round cost %+v, want exactly one set fsync", testGeometry().Buckets, *syncs)
	}
	// A partial round sits on top of the full one: both sets hold current images.
	if err := l.WriteImages([]*Image{testImage(3, 2, "partial"), testImage(4, 2, "partial")}); err != nil {
		t.Fatal(err)
	}
	if got := sets(); !reflect.DeepEqual(got, []string{setName(1), setName(2)}) {
		t.Fatalf("sets after a partial round: %v", got)
	}
	imgs, err := l.LoadImages([]int{2, 3})
	if err != nil || imgs[2].LSN != 1 || imgs[3].LSN != 2 || imgs[3].Tables["T"]["k"] != "partial" {
		t.Fatalf("images across two sets: %+v, err %v", imgs, err)
	}
	// The next full round supersedes both.
	if err := l.WriteImages(full(3)); err != nil {
		t.Fatal(err)
	}
	if got := sets(); !reflect.DeepEqual(got, []string{setName(3)}) {
		t.Fatalf("sets after a full round: %v, want only the newest", got)
	}
	if syncs.sets != 3 {
		t.Fatalf("three rounds cost %d set fsyncs", syncs.sets)
	}
	if err := l.WriteImages(nil); err != nil || len(sets()) != 1 {
		t.Fatalf("an empty round wrote something: err %v, sets %v", err, sets())
	}
}

// TestImageSetLaterSetWins checks the open-time scan: per bucket the frame in
// the latest set is current, and a set a crash left behind after it had been
// wholly superseded is deleted, not resurrected.
func TestImageSetLaterSetWins(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	if err := l.WriteImages([]*Image{testImage(1, 5, "old"), testImage(2, 5, "old")}); err != nil {
		t.Fatal(err)
	}
	stale, err := readAll(fs, "data/img/"+setName(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteImages([]*Image{testImage(1, 9, "new"), testImage(2, 9, "new"), testImage(3, 9, "new")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Put the retired set back, as if the process had died between the new
	// set's rename and the old one's removal.
	if err := writeFileAtomic(fs, "data/img/"+setName(1), stale); err != nil {
		t.Fatal(err)
	}
	l2, rec := openTest(t, fs, DefaultSegmentBytes)
	defer l2.Close()
	for b := 1; b <= 3; b++ {
		if br := rec.Buckets[b]; br == nil || br.Base != 9 {
			t.Fatalf("bucket %d recovered as %+v, want the later set's lsn 9", b, br)
		}
	}
	imgs, err := l2.LoadImages([]int{1, 2, 3})
	if err != nil || len(imgs) != 3 || imgs[1].Tables["T"]["k"] != "new" {
		t.Fatalf("images after reopen: %+v, err %v", imgs, err)
	}
	if names, _ := fs.ReadDir("data/img"); !reflect.DeepEqual(names, []string{setName(2)}) {
		t.Fatalf("image sets after reopen: %v, want the superseded set gone", names)
	}
	// Set numbering continues past everything ever seen.
	if err := l2.WriteImages([]*Image{testImage(4, 1, "next")}); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.ReadDir("data/img"); !reflect.DeepEqual(names, []string{setName(2), setName(3)}) {
		t.Fatalf("image sets after another round: %v", names)
	}
}

// TestImageSetFailedSyncInstallsNothing: a round whose sync fails raises no
// base, replaces no image and leaves the older set alone.
func TestImageSetFailedSyncInstallsNothing(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	var lsn uint64
	appendN(t, l, 1, &lsn, 10)
	if err := l.WriteImages([]*Image{testImage(1, 4, "kept")}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "set-") {
			return boom
		}
		return nil
	})
	if err := l.WriteImages([]*Image{testImage(1, 10, "lost")}); !errors.Is(err, boom) {
		t.Fatalf("failed round returned %v", err)
	}
	fs.SetSyncHook(nil)
	imgs, err := l.LoadImages([]int{1})
	if err != nil || imgs[1].LSN != 4 || imgs[1].Tables["T"]["k"] != "kept" {
		t.Fatalf("image after a failed round: %+v, err %v", imgs[1], err)
	}
	tails, err := l.LoadTails([]int{1})
	if err != nil || len(tails[1]) != 6 {
		t.Fatalf("tail after a failed round: %d records (err %v), want the 6 beyond lsn 4", len(tails[1]), err)
	}
}

// TestOldImageLayoutRefused: a directory written by an older image format —
// one file per bucket (version 1), sets whose payloads are one gob stream per
// image (version 3) or one gob stream per set (version 4) — is refused with an
// error that names the layout, at the manifest and, for per-bucket files
// should the manifest have been replaced, at the image directory.
func TestOldImageLayoutRefused(t *testing.T) {
	for version, layout := range map[int]string{1: "per-bucket image layout", 3: "per-bucket image payload layout", 4: "gob payload layout"} {
		fs := NewMemFS(1)
		if err := fs.MkdirAll("data"); err != nil {
			t.Fatal(err)
		}
		m := fmt.Sprintf(`{"version":%d,"geometry":{"buckets":64,"max_machines":4,"partitions_per_machine":2}}`, version)
		if err := writeFileAtomic(fs, "data/"+manifestName, []byte(m)); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(Config{Dir: "data", Geometry: testGeometry(), FS: fs})
		if err == nil || !strings.Contains(err.Error(), layout) || !strings.Contains(err.Error(), "fresh data directory") {
			t.Fatalf("version-%d manifest: %v, want a refusal naming the %s", version, err, layout)
		}
	}

	fs := NewMemFS(2)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	l.Close()
	frame, err := EncodeImageSet(nil, []*Image{testImage(17, 1, "v1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(fs, "data/img/bucket-000017.img", frame); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Config{Dir: "data", Geometry: testGeometry(), FS: fs})
	if err == nil || !strings.Contains(err.Error(), "bucket-000017.img") {
		t.Fatalf("stray per-bucket image: %v, want a refusal naming the file", err)
	}
}

// TestDamagedImageSetRefusesOpen: a set is renamed into place only after its
// sync, so one that does not walk cleanly is corruption and open says so.
func TestDamagedImageSetRefusesOpen(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	if err := l.WriteImages([]*Image{testImage(1, 1, "a"), testImage(2, 1, "b")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := readAll(fs, "data/img/"+setName(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(fs, "data/img/"+setName(1), data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: "data", Geometry: testGeometry(), FS: fs}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("open over a truncated image set: %v", err)
	}
}

// TestImageSetConcurrentRounds runs rounds, loads and appends from several
// goroutines at once (four installs queue up behind one another in a
// cross-node move): every load sees whole, decodable images, and each bucket
// ends at the last image its writer installed.
func TestImageSetConcurrentRounds(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	const writers, rounds, per = 4, 25, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				round := make([]*Image, per)
				for i := range round {
					round[i] = testImage(w*per+i, uint64(r), r)
				}
				if err := l.WriteImages(round); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			all := make([]int, writers*per)
			for b := range all {
				all[b] = b
			}
			var lsn uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				imgs, err := l.LoadImages(all)
				if err != nil {
					t.Errorf("load during rounds: %v", err)
					return
				}
				for b, img := range imgs {
					if img.Tables["T"]["k"] != int(img.LSN) {
						t.Errorf("bucket %d: image at lsn %d carries round %v", b, img.LSN, img.Tables["T"]["k"])
						return
					}
				}
				lsn++
				if err := l.Append(Record{Bucket: 40 + g, LSN: lsn, Txn: "put", Key: "k"}); err != nil {
					t.Errorf("append during rounds: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	imgs, err := l.LoadImages([]int{0, per, 2 * per, 3*per + per - 1})
	if err != nil || len(imgs) != 4 {
		t.Fatalf("final load: %v, err %v", imgs, err)
	}
	for b, img := range imgs {
		if img.LSN != rounds {
			t.Fatalf("bucket %d ended at lsn %d, want the last round %d", b, img.LSN, rounds)
		}
	}
	if names, _ := fs.ReadDir("data/img"); len(names) > writers {
		t.Fatalf("%d image sets left for %d disjoint writers: %v", len(names), writers, names)
	}
}

// TestImageSetLoadDecodesOnlyWantedFrames: any frame of a set decodes alone,
// so asking for one bucket of a 640-frame set reads the set once and decodes
// one payload; the other 639 are not even checksummed — here they are all
// corrupt, and only asking for one of them fails.
func TestImageSetLoadDecodesOnlyWantedFrames(t *testing.T) {
	const buckets, wanted = 640, 321
	fs := NewMemFS(1)
	cfg := Config{Dir: "data", Geometry: Geometry{Buckets: buckets, MaxMachines: 4, PartitionsPerMachine: 4}, FS: fs}
	l, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	round := make([]*Image, buckets)
	for b := range round {
		round[b] = testImage(b, 1, b)
	}
	if err := l.WriteImages(round); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := readAll(fs, "data/img/"+setName(1))
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := DecodeImageSet(data)
	if err != nil || len(frames) != buckets {
		t.Fatalf("set walks as %d frames (err %v)", len(frames), err)
	}
	for _, f := range frames {
		if f.Bucket != wanted {
			data[f.Off+imageHeaderSize] ^= 0xff
		}
	}
	if err := writeFileAtomic(fs, "data/img/"+setName(1), data); err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	imgs, err := l2.LoadImages([]int{wanted})
	if err != nil || len(imgs) != 1 || imgs[wanted].Tables["T"]["k"] != wanted {
		t.Fatalf("one bucket of the set loads as %+v (err %v)", imgs, err)
	}
	if got := l2.Stats().ImageSetDecodes; got != 1 {
		t.Fatalf("one bucket of a %d-frame set: %d set reads, want 1", buckets, got)
	}
	if _, err := l2.LoadImages([]int{wanted - 1}); err == nil {
		t.Fatal("a bucket whose payload is corrupt loaded")
	}
}
