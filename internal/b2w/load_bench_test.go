package b2w

import (
	"fmt"
	"testing"

	"pstore/internal/store"
)

// BenchmarkLoad times an unlogged load of the deployed dataset (4 200 rows)
// into a deployed node's engine — 4 machines of 4 partitions, 640 buckets,
// load procedures at service time 0 — hosting all four machines or two of
// them, at several loader counts: what Load costs now that a node's load is
// not logged, and so what defaultLoaders is sized for.
func BenchmarkLoad(b *testing.B) {
	spec := LoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: 1}
	for _, hosted := range [][]int{{0, 1, 2, 3}, {0, 2}} {
		for _, loaders := range []int{1, 4, 8, 16, 64} {
			b.Run(fmt.Sprintf("machines=%d/loaders=%d", len(hosted), loaders), func(b *testing.B) {
				spec.Loaders = loaders
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng, err := store.NewEngine(store.Config{
						MaxMachines: 4, InitialMachines: 4, PartitionsPerMachine: 4,
						Buckets: 640, QueueCapacity: 1 << 10, HostedMachines: hosted,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := Register(eng); err != nil {
						b.Fatal(err)
					}
					eng.Start()
					b.StartTimer()
					if err := Load(eng, spec); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					eng.Stop()
					b.StartTimer()
				}
			})
		}
	}
}
