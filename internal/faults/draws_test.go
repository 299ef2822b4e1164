package faults

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"pstore/internal/store"
)

// drawPlanes renders one decision of each plane as text. Only
// newDrawPlanes touches the package's API; the scripts below and the pinned
// digests do not depend on how a schedule is spelled.
type drawPlanes struct {
	chunk func(op store.MoveOp) string
	link  func(fromNode, toNode int, op store.MoveOp) string
	ship  func(fromNode, toNode int, batch uint64) string
	crash func(tick, machines int) string
}

func newDrawPlanes(t *testing.T, seed int64) drawPlanes {
	in := mustParse(t, fmt.Sprintf("seed=%d,chunk-drop=0.25,chunk-slow=0.2,slow-delay=1ns,stall=0.1,stall-delay=1ns,crash-pair=2:5,crash-part=7", seed))
	net := mustParse(t, fmt.Sprintf("seed=%d,link-drop=0.2,link-dup=0.3,link-reorder=0.15,link-slow=0.25,link-delay=3ms,link-down=3:1", seed))
	ship := mustParse(t, fmt.Sprintf("seed=%d,ship-drop=0.15,ship-dup=0.2,ship-reorder=0.1,ship-delay=0.2,ship-delay-for=1ms,ship-partition=0.08,heal-after=1ns", seed))
	crash := mustParse(t, fmt.Sprintf("seed=%d,crash-rate=0.05,crash-downtime=3,crash=1@10+5,crash=0@20,crash=3@40+2", seed))
	return drawPlanes{
		chunk: func(op store.MoveOp) string {
			err := in.BeforeMove(op)
			st := in.Stats()
			return fmt.Sprint(err != nil, st.Offered[ChunkPlane], st.Fired[ChunkDrop], st.Fired[CrashPair]+st.Fired[CrashPart],
				st.Fired[ChunkSlow], st.Fired[Stall])
		},
		link: func(from, to int, op store.MoveOp) string {
			dec, err := net.OnChunk(from, to, op)
			st := net.Stats()
			return fmt.Sprint(err != nil, dec.Delay, dec.Dup, dec.DeferDup,
				st.Offered[LinkPlane], st.Fired[LinkDrop], st.Fired[LinkDown], st.Fired[LinkDup], st.Fired[LinkReorder], st.Fired[LinkSlow])
		},
		ship: func(from, to int, batch uint64) string {
			dec := ship.OnBatch(from, to, batch)
			st := ship.Stats()
			return fmt.Sprint(dec.Drop, dec.Partitioned, dec.Delay, dec.Dup, dec.Reorder,
				st.Offered[ShipPlane], st.Fired[ShipDrop], st.Fired[ShipPartition], st.Fired[ShipDup], st.Fired[ShipReorder], st.Fired[ShipDelay])
		},
		crash: func(tick, machines int) string {
			var b strings.Builder
			for _, c := range crash.CrashesAt(tick, machines) {
				fmt.Fprintf(&b, "%d@%d+%d;", c.Machine, c.Tick, c.Down)
			}
			return b.String()
		},
	}
}

// TestDrawsStable pins every plane's decision stream at three seeds: each
// plane runs a fixed script of 500 decisions — retries of one chunk or
// batch, rollbacks, a crashed pair and partition, a dead link, heal-after
// episodes and pinned crashes — and the FNV-64a digest of the rendered
// decisions must equal the pinned constant. A change to a salt, a key word,
// an attempt counter or the precedence between faults moves a digest.
func TestDrawsStable(t *testing.T) {
	want := map[int64][4]uint64{ // chunk, link, ship, crash
		1:  {0xfd18b0391dd6cd07, 0x7ed234d090b7c5eb, 0xabd9d368b050478f, 0x7a1433f88ce4e298},
		7:  {0xbed1acbb1e856ad7, 0x16434ff4755d2f58, 0x5f68f9813654b51b, 0x4a72e69c80f91840},
		42: {0xca0d81ce6f4bd243, 0x054f8817a75a0501, 0x8ce20b166c429ebd, 0xe728f857965035ad},
	}
	for _, seed := range []int64{1, 7, 42} {
		p := newDrawPlanes(t, seed)
		var digests [4]uint64
		for plane, script := range []func(emit func(string)){
			func(emit func(string)) {
				for i := 0; i < 500; i++ {
					k := i / 3 // three attempts at each chunk
					op := store.MoveOp{From: k % 8, To: (k*5 + 3) % 8, Rollback: i%11 == 10}
					if k%13 != 0 {
						op.Buckets = []int{k * 7 % 640, k*7%640 + 1}
					}
					emit(p.chunk(op))
				}
			},
			func(emit func(string)) {
				for i := 0; i < 500; i++ {
					k := i / 2 // two attempts at each chunk
					op := store.MoveOp{From: k % 8, To: (k + 3) % 8, Buckets: []int{k}, Rollback: i%13 == 12}
					emit(p.link(k%4, (k/4)%4, op))
				}
			},
			func(emit func(string)) {
				for i := 0; i < 500; i++ {
					k := i / 2 // two delivery attempts at each batch
					d := p.ship(k%3, 3+k%2, uint64(k))
					if strings.HasPrefix(d, "false true") {
						// Outlast the 1ns heal-after, so the pair's next
						// attempt heals it whatever the machine's speed.
						time.Sleep(time.Microsecond)
					}
					emit(d)
				}
			},
			func(emit func(string)) {
				for tick := 0; tick < 500; tick++ {
					emit(p.crash(tick, 4+tick%5))
				}
			},
		} {
			h := fnv.New64a()
			script(func(s string) { fmt.Fprintln(h, s) })
			digests[plane] = h.Sum64()
		}
		if digests != want[seed] {
			t.Errorf("seed %d: digests (chunk, link, ship, crash) = %#x, want %#x", seed, digests, want[seed])
		}
	}
}
