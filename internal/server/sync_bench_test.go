package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pstore/internal/b2w"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// BenchmarkReplSync times one full follower sync of a deployed node — node 0
// of 2, hosting 2 of 4 machines: 320 of 640 buckets and its share of the B2W
// dataset — with both ends in this process over MemFS data directories: the
// primary snapshots its partitions and encodes the sync body, the follower
// decodes it, restores its partitions and writes its baseline image set.
// bytes/set is the size of the body's image set.
func BenchmarkReplSync(b *testing.B) {
	node := func(replicaOf string) (*store.Engine, *recovery.Manager, *Server) {
		eng, err := store.NewEngine(store.Config{
			MaxMachines: 4, InitialMachines: 4, PartitionsPerMachine: 4,
			Buckets: 640, QueueCapacity: 1 << 10, HostedMachines: []int{0, 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := b2w.Register(eng); err != nil {
			b.Fatal(err)
		}
		rm, err := recovery.New(eng, recovery.Config{DataDir: "data", FS: wal.NewMemFS(1)})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rm.Close() })
		eng.Start()
		b.Cleanup(eng.Stop)
		srv, err := New(eng, rm, 0, Config{ID: 0, Nodes: 2, ReplicaOf: replicaOf})
		if err != nil {
			b.Fatal(err)
		}
		return eng, rm, srv
	}
	peng, prm, primary := node("")
	spec := b2w.LoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: 1}
	if _, err := prm.Bootstrap(func() error { return b2w.Load(peng, spec) }); err != nil {
		b.Fatal(err)
	}
	feng, _, follower := node("primary")

	var set []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		primary.handleReplSync(w, httptest.NewRequest(http.MethodPost, wire.PathReplSync, strings.NewReader(`{}`)))
		if w.Code != http.StatusOK {
			b.Fatalf("sync: %d %s", w.Code, w.Body)
		}
		body := w.Body.Bytes()
		r := bytes.NewReader(body)
		var meta wire.ReplSyncMeta
		if err := wire.DecodeFrame(r, &meta); err != nil {
			b.Fatal(err)
		}
		set = body[len(body)-r.Len():]
		if err := follower.InstallReplicaState(meta, set); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := feng.TotalRows(), peng.TotalRows(); got != want || want == 0 {
		b.Fatalf("follower holds %d rows, primary %d", got, want)
	}
	b.ReportMetric(float64(len(set)), "bytes/set")
}
