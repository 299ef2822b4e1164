package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pstore/internal/b2w"
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
	node := func(replicaOf string) *testNode {
		return newTestNode(b, func(cfg *testNodeConfig) {
			cfg.store = store.Config{
				MaxMachines: 4, InitialMachines: 4, PartitionsPerMachine: 4,
				Buckets: 640, QueueCapacity: 1 << 10, HostedMachines: []int{0, 2},
			}
			cfg.procs, cfg.register, cfg.fs = nil, b2w.Register, wal.NewMemFS(1)
			cfg.server = Config{ID: 0, Nodes: 2, ReplicaOf: replicaOf}
		})
	}
	p := node("")
	peng, primary := p.eng, p.srv
	spec := b2w.LoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: 1}
	if _, err := p.rm.Bootstrap(func() error { return b2w.Load(peng, spec) }); err != nil {
		b.Fatal(err)
	}
	f := node("primary")
	feng, follower := f.eng, f.srv

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
