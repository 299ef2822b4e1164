package faults

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestShipDeterminism pins the replay contract: two injectors with the same
// seed produce identical decision sequences over the same batch stream,
// including re-rolled retries, while a different seed diverges somewhere.
func TestShipDeterminism(t *testing.T) {
	run := func(seed int64) []ShipDecision {
		inj := mustParse(t, fmt.Sprintf("seed=%d,ship-drop=0.2,ship-dup=0.2,ship-reorder=0.2,ship-delay=0.2,ship-partition=0.1", seed))
		var out []ShipDecision
		for batch := uint64(0); batch < 200; batch++ {
			// Two attempts per batch: retried deliveries must re-roll under
			// the attempt counter, not repeat the first verdict.
			out = append(out, inj.OnBatch(0, 1, batch), inj.OnBatch(0, 1, batch))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged under the same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
	// Retries must be able to change the verdict: some batch must differ
	// between its first and second attempt.
	differs := false
	for i := 0; i < len(a); i += 2 {
		if a[i] != a[i+1] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("no batch's retry re-rolled to a different verdict")
	}
}

// TestShipPairIndependence checks that decisions hash over the (from, to)
// pair: the same batch ordinal on different links sees an independent
// schedule, so ship faults stay placement-invariant.
func TestShipPairIndependence(t *testing.T) {
	a, b := mustParse(t, "seed=7,ship-drop=0.5"), mustParse(t, "seed=7,ship-drop=0.5")
	same := true
	for batch := uint64(0); batch < 100; batch++ {
		if a.OnBatch(0, 1, batch) != b.OnBatch(2, 1, batch) {
			same = false
		}
	}
	if same {
		t.Fatal("links (0,1) and (2,1) share a fault schedule")
	}
}

// TestShipPrecedence checks the decision shape invariants: a partitioned or
// dropped batch carries no other fault, and a reordered batch is never also
// a dup.
func TestShipPrecedence(t *testing.T) {
	inj := mustParse(t, "seed=1,ship-drop=0.3,ship-dup=0.3,ship-reorder=0.3,ship-delay=0.3,ship-partition=0.3")
	for batch := uint64(0); batch < 500; batch++ {
		d := inj.OnBatch(0, 1, batch)
		if (d.Partitioned || d.Drop) && (d.Dup || d.Reorder || d.Delay > 0) {
			t.Fatalf("batch %d: lost batch carries extra faults: %+v", batch, d)
		}
		if d.Partitioned && d.Drop {
			t.Fatalf("batch %d: both partitioned and dropped", batch)
		}
		if d.Reorder && d.Dup {
			t.Fatalf("batch %d: both reordered and duped", batch)
		}
	}
	st := inj.Stats()
	if st.Offered[ShipPlane] != 500 {
		t.Fatalf("Offered = %d", st.Offered[ShipPlane])
	}
	for _, k := range []Kind{ShipDrop, ShipPartition, ShipDup, ShipReorder, ShipDelay} {
		if st.Fired[k] == 0 {
			t.Errorf("no %s in 500 batches at p=0.3", kinds[k].key)
		}
	}
}

// TestShipHealAfter checks the heal-after episode machine: the first rolled
// partition opens an outage during which every attempt fails, and once the
// window elapses the pair is healed for good.
func TestShipHealAfter(t *testing.T) {
	inj := mustParse(t, "seed=9,ship-partition=1,heal-after=40ms")
	if !inj.OnBatch(0, 1, 0).Partitioned {
		t.Fatal("p=1 schedule did not open an outage")
	}
	// Inside the window, even attempts whose own roll would pass fail: the
	// link is down, not lossy.
	for i := uint64(1); i < 5; i++ {
		if !inj.OnBatch(0, 1, i).Partitioned {
			t.Fatalf("batch %d delivered during the outage", i)
		}
	}
	// An independent pair runs its own episode.
	if !inj.OnBatch(1, 2, 0).Partitioned {
		t.Fatal("second pair did not open its own outage")
	}
	time.Sleep(60 * time.Millisecond)
	for i := uint64(5); i < 10; i++ {
		if inj.OnBatch(0, 1, i).Partitioned {
			t.Fatalf("batch %d partitioned after the pair healed", i)
		}
	}
	if _, err := Parse("ship-partition=0.5,heal-after=-1s"); err == nil {
		t.Fatal("accepted negative heal-after")
	}
}

// TestParseShipRoundTrip: the ship plane's keys parse to their events and
// round-trip through String.
func TestParseShipRoundTrip(t *testing.T) {
	s := mustRoundTrip(t, "seed=42,ship-drop=0.05,ship-dup=0.1,ship-reorder=0.05,ship-delay=0.1,ship-delay-for=5ms,ship-partition=0.02,heal-after=500ms")
	want := []Event{
		{Kind: ShipDrop, P: 0.05},
		{Kind: ShipDup, P: 0.1},
		{Kind: ShipReorder, P: 0.05},
		{Kind: ShipDelay, P: 0.1, Dur: 5 * time.Millisecond},
		{Kind: ShipPartition, P: 0.02, Dur: 500 * time.Millisecond},
	}
	if s.Seed != 42 || !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("parsed seed %d, events %+v; want 42, %+v", s.Seed, s.Events, want)
	}
	if _, err := Parse("ship-drop=1.5"); err == nil {
		t.Fatal("accepted probability above 1")
	}
	if _, err := Parse("bogus=1"); err == nil {
		t.Fatal("accepted unknown key")
	}
	if empty := mustRoundTrip(t, "  "); empty.Arms(ShipPlane) {
		t.Fatalf("blank spec arms the ship plane: %+v", empty.Events)
	}
}
