package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"pstore/internal/store"
)

// TestNetDeterminism: two injectors with the same schedule must hand the
// same sequence of transfers identical decisions, regardless of the order
// other pairs' transfers interleave — the property the multi-process chaos
// suite leans on.
func TestNetDeterminism(t *testing.T) {
	type verdict struct {
		dec LinkDecision
		err bool
	}
	run := func(order []int) []verdict {
		n := mustParse(t, "seed=7,link-drop=0.3,link-dup=0.3,link-reorder=0.2,link-slow=0.2,link-delay=1ns")
		out := make([]verdict, 0, 64)
		for _, pair := range order {
			for chunk := 0; chunk < 8; chunk++ {
				op := store.MoveOp{From: pair, To: pair + 10, Buckets: []int{chunk * 3}}
				dec, err := n.OnChunk(0, 1, op)
				out = append(out, verdict{dec: dec, err: err != nil})
			}
		}
		return out
	}
	a := run([]int{0, 1, 2})
	// Re-run with pair streams in a different order; per-chunk verdicts must
	// be the same (compare per pair by reslicing).
	b := run([]int{2, 1, 0})
	// a: pairs 0,1,2 at offsets 0,8,16. b: pairs 2,1,0 at offsets 0,8,16.
	for p := 0; p < 3; p++ {
		as := a[p*8 : p*8+8]
		bs := b[(2-p)*8 : (2-p)*8+8]
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("pair %d chunk %d: %+v vs %+v under reordered streams", p, i, as[i], bs[i])
			}
		}
	}
}

// TestNetRetryRerolls: a retried transfer advances the chunk's attempt
// counter, so a dropped chunk is not doomed to drop forever.
func TestNetRetryRerolls(t *testing.T) {
	n := mustParse(t, "seed=3,link-drop=0.5")
	op := store.MoveOp{From: 1, To: 2, Buckets: []int{5}}
	sawDrop, sawPass := false, false
	for i := 0; i < 64 && !(sawDrop && sawPass); i++ {
		if _, err := n.OnChunk(0, 1, op); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("drop error not ErrInjected: %v", err)
			}
			sawDrop = true
		} else {
			sawPass = true
		}
	}
	if !sawDrop || !sawPass {
		t.Fatalf("64 attempts at p=0.5 never varied (drop=%v pass=%v)", sawDrop, sawPass)
	}
}

// TestNetRollbackExempt: rollback transfers are never injected.
func TestNetRollbackExempt(t *testing.T) {
	n := mustParse(t, "seed=1,link-drop=1,link-dup=1,link-reorder=1,link-slow=1,link-down=0:1")
	for i := 0; i < 16; i++ {
		dec, err := n.OnChunk(0, 1, store.MoveOp{From: 1, To: 2, Buckets: []int{i}, Rollback: true})
		if err != nil || dec != (LinkDecision{}) {
			t.Fatalf("rollback transfer injected: dec=%+v err=%v", dec, err)
		}
	}
	if s := n.Stats(); s.Offered[LinkPlane] != 0 {
		t.Fatalf("rollback transfers counted as offered: %+v", s)
	}
}

// TestNetPartition: a dead link fails every transfer in both directions and
// leaves same-node transfers alone.
func TestNetPartition(t *testing.T) {
	n := mustParse(t, "seed=1,link-down=1:0")
	op := store.MoveOp{From: 0, To: 1, Buckets: []int{0}}
	if _, err := n.OnChunk(0, 1, op); !errors.Is(err, ErrInjected) {
		t.Fatalf("0->1 over dead link: %v", err)
	}
	if _, err := n.OnChunk(1, 0, op); !errors.Is(err, ErrInjected) {
		t.Fatalf("1->0 over dead link: %v", err)
	}
	if _, err := n.OnChunk(0, 0, op); err != nil {
		t.Fatalf("same-node transfer failed: %v", err)
	}
	if s := n.Stats(); s.Fired[LinkDown] != 2 {
		t.Fatalf("dead-link hits: %+v", s)
	}
}

// TestNetReorderImpliesDup: a reorder decision always carries Dup, and the
// counters attribute it to both streams.
func TestNetReorderImpliesDup(t *testing.T) {
	n := mustParse(t, "seed=1,link-reorder=1")
	dec, err := n.OnChunk(0, 1, store.MoveOp{From: 1, To: 2, Buckets: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Dup || !dec.DeferDup {
		t.Fatalf("reorder=1 produced %+v", dec)
	}
	if s := n.Stats(); s.Fired[LinkDup] != 1 || s.Fired[LinkReorder] != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

// TestNetSpecRoundTrip: the link plane's keys parse to their events and
// round-trip through String.
func TestNetSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"", "seed=42"} {
		mustRoundTrip(t, spec)
	}
	s := mustRoundTrip(t, "seed=42,link-drop=0.05,link-dup=0.1,link-reorder=0.05,link-slow=0.1,link-delay=3ms,link-down=0:1,link-down=1:2")
	want := []Event{
		{Kind: LinkDrop, P: 0.05},
		{Kind: LinkDup, P: 0.1},
		{Kind: LinkReorder, P: 0.05},
		{Kind: LinkSlow, P: 0.1, Dur: 3 * time.Millisecond},
		{Kind: LinkDown, A: 0, B: 1},
		{Kind: LinkDown, A: 1, B: 2},
	}
	if s.Seed != 42 || !reflect.DeepEqual(s.Events, want) {
		t.Errorf("parsed seed %d, events %+v; want 42, %+v", s.Seed, s.Events, want)
	}
	if _, err := Parse("link-drop=2"); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
	if _, err := Parse("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
}

// TestNetSaltsIndependent: with a shared seed, the link plane's decisions
// must not correlate with the executor plane's (distinct salts). A crude
// but effective check: at p=0.5 each, agreement across many chunks should
// not be total.
func TestNetSaltsIndependent(t *testing.T) {
	inj := mustParse(t, "seed=9,chunk-drop=0.5")
	n := mustParse(t, "seed=9,link-drop=0.5")
	agree, total := 0, 256
	for i := 0; i < total; i++ {
		op := store.MoveOp{From: 1, To: 2, Buckets: []int{i}}
		e1 := inj.BeforeMove(op)
		_, e2 := n.OnChunk(0, 1, op)
		if (e1 != nil) == (e2 != nil) {
			agree++
		}
	}
	if agree == total {
		t.Fatalf("executor and link drop decisions identical across %d chunks", total)
	}
}
