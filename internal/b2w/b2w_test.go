package b2w

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"pstore/internal/store"
	"pstore/internal/workload"
)

func testEngine(t *testing.T) *store.Engine {
	t.Helper()
	cfg := store.Config{
		MaxMachines:          2,
		PartitionsPerMachine: 2,
		Buckets:              64,
		ServiceTime:          0,
		QueueCapacity:        4096,
		InitialMachines:      2,
	}
	e, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(e); err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	return e
}

func TestCartLifecycle(t *testing.T) {
	e := testEngine(t)
	const cart = "cart-0001"

	// Add two distinct items, then more of the first.
	if _, err := e.Execute(TxnAddLineToCart, cart, LineArgs{SKU: "sku-1", Quantity: 2, UnitPrice: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(TxnAddLineToCart, cart, LineArgs{SKU: "sku-2", Quantity: 1, UnitPrice: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(TxnAddLineToCart, cart, LineArgs{SKU: "sku-1", Quantity: 1, UnitPrice: 1000}); err != nil {
		t.Fatal(err)
	}
	v, err := e.Execute(TxnGetCart, cart, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := v.(*Cart)
	if len(c.Lines) != 2 {
		t.Fatalf("cart has %d lines, want 2", len(c.Lines))
	}
	if c.Lines[0].Quantity != 3 {
		t.Errorf("sku-1 quantity = %d, want 3", c.Lines[0].Quantity)
	}
	if c.Total != 3*1000+500 {
		t.Errorf("cart total = %d, want 3500", c.Total)
	}

	// Reserve the cart, then delete a line, then the whole cart.
	if _, err := e.Execute(TxnReserveCart, cart, nil); err != nil {
		t.Fatal(err)
	}
	v, _ = e.Execute(TxnGetCart, cart, nil)
	for _, l := range v.(*Cart).Lines {
		if !l.Reserved {
			t.Errorf("line %s not reserved", l.SKU)
		}
	}
	if _, err := e.Execute(TxnDeleteLineFromCart, cart, LineArgs{SKU: "sku-2"}); err != nil {
		t.Fatal(err)
	}
	v, _ = e.Execute(TxnGetCart, cart, nil)
	if got := v.(*Cart); len(got.Lines) != 1 || got.Total != 3000 {
		t.Errorf("after line delete: %d lines, total %d", len(got.Lines), got.Total)
	}
	if _, err := e.Execute(TxnDeleteCart, cart, nil); err != nil {
		t.Fatal(err)
	}
	v, err = e.Execute(TxnGetCart, cart, nil)
	if err != nil || v != nil {
		t.Errorf("cart still present after delete: %v, %v", v, err)
	}
}

func TestGetCartReturnsCopy(t *testing.T) {
	e := testEngine(t)
	const cart = "cart-0002"
	if _, err := e.Execute(TxnAddLineToCart, cart, LineArgs{SKU: "s", Quantity: 1, UnitPrice: 10}); err != nil {
		t.Fatal(err)
	}
	v, _ := e.Execute(TxnGetCart, cart, nil)
	v.(*Cart).Lines[0].Quantity = 999
	v2, _ := e.Execute(TxnGetCart, cart, nil)
	if v2.(*Cart).Lines[0].Quantity != 1 {
		t.Error("GetCart leaked internal state")
	}
}

func TestStockFlow(t *testing.T) {
	e := testEngine(t)
	const sku = "sku-0001"
	if _, err := e.Execute(txnLoadStock, sku, StockItem{Available: 10}); err != nil {
		t.Fatal(err)
	}
	q, err := e.Execute(TxnGetStockQuantity, sku, nil)
	if err != nil || q != 10 {
		t.Fatalf("quantity = %v, %v; want 10", q, err)
	}
	if _, err := e.Execute(TxnReserveStock, sku, QuantityArgs{Quantity: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(TxnReserveStock, sku, QuantityArgs{Quantity: 7}); !errors.Is(err, ErrInsufficientStock) {
		t.Fatalf("over-reserve err = %v, want ErrInsufficientStock", err)
	}
	if _, err := e.Execute(TxnPurchaseStock, sku, QuantityArgs{Quantity: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(TxnCancelStockReservation, sku, QuantityArgs{Quantity: 1}); err != nil {
		t.Fatal(err)
	}
	v, err := e.Execute(TxnGetStock, sku, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := v.(*StockItem)
	if s.Available != 7 || s.Reserved != 0 || s.Purchased != 3 {
		t.Errorf("stock = %+v, want avail 7, reserved 0, purchased 3", s)
	}
	// Conservation: units never created or destroyed.
	if s.Available+s.Reserved+s.Purchased != 10 {
		t.Errorf("stock units not conserved: %+v", s)
	}
}

func TestStockMissing(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Execute(TxnReserveStock, "sku-none", QuantityArgs{Quantity: 1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("reserve missing sku err = %v", err)
	}
	q, err := e.Execute(TxnGetStockQuantity, "sku-none", nil)
	if err != nil || q != 0 {
		t.Errorf("quantity of missing sku = %v, %v", q, err)
	}
}

func TestStockTransactionLifecycle(t *testing.T) {
	e := testEngine(t)
	const id = "stocktx-1"
	if _, err := e.Execute(TxnCreateStockTransaction, id, StockTxArgs{CartID: "cart-1", SKU: "sku-1", Quantity: 2}); err != nil {
		t.Fatal(err)
	}
	v, err := e.Execute(TxnGetStockTransaction, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := v.(*StockTransaction)
	if st.Status != StockTxReserved || st.Quantity != 2 {
		t.Errorf("stock tx = %+v", st)
	}
	if _, err := e.Execute(TxnUpdateStockTransaction, id, StatusArgs{Status: StockTxPurchased}); err != nil {
		t.Fatal(err)
	}
	v, _ = e.Execute(TxnGetStockTransaction, id, nil)
	if v.(*StockTransaction).Status != StockTxPurchased {
		t.Error("status not updated")
	}
	if _, err := e.Execute(TxnUpdateStockTransaction, id, StatusArgs{Status: "BOGUS"}); err == nil {
		t.Error("bogus status accepted")
	}
	if _, err := e.Execute(TxnUpdateStockTransaction, "stocktx-none", StatusArgs{Status: StockTxCancelled}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing tx err = %v", err)
	}
}

func TestCheckoutLifecycle(t *testing.T) {
	e := testEngine(t)
	const co = "checkout-1"
	lines := []CartLine{{SKU: "sku-1", Quantity: 2, UnitPrice: 100}}
	if _, err := e.Execute(TxnCreateCheckout, co, CheckoutArgs{CartID: "cart-1", Lines: lines}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(TxnCreateCheckoutPayment, co, Payment{Method: "credit", Amount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(TxnAddLineToCheckout, co, LineArgs{SKU: "sku-2", Quantity: 1, UnitPrice: 50}); err != nil {
		t.Fatal(err)
	}
	v, err := e.Execute(TxnGetCheckout, co, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := v.(*Checkout)
	if len(c.Lines) != 2 || len(c.Payments) != 1 || c.Total != 250 || c.CartID != "cart-1" {
		t.Errorf("checkout = %+v", c)
	}
	if _, err := e.Execute(TxnDeleteLineFromCheckout, co, LineArgs{SKU: "sku-1"}); err != nil {
		t.Fatal(err)
	}
	v, _ = e.Execute(TxnGetCheckout, co, nil)
	if got := v.(*Checkout); len(got.Lines) != 1 || got.Total != 50 {
		t.Errorf("after line delete: %+v", got)
	}
	if _, err := e.Execute(TxnDeleteCheckout, co, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Execute(TxnGetCheckout, co, nil); v != nil {
		t.Error("checkout still present after delete")
	}
	if _, err := e.Execute(TxnCreateCheckoutPayment, "checkout-none", Payment{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("payment on missing checkout err = %v", err)
	}
}

func TestBadArgsRejected(t *testing.T) {
	e := testEngine(t)
	cases := []struct{ txn, key string }{
		{TxnAddLineToCart, "cart-x"},
		{TxnDeleteLineFromCart, "cart-x"},
		{TxnReserveStock, "sku-x"},
		{TxnPurchaseStock, "sku-x"},
		{TxnCancelStockReservation, "sku-x"},
		{TxnCreateStockTransaction, "stocktx-x"},
		{TxnUpdateStockTransaction, "stocktx-x"},
		{TxnCreateCheckout, "checkout-x"},
		{TxnCreateCheckoutPayment, "checkout-x"},
		{TxnAddLineToCheckout, "checkout-x"},
		{TxnDeleteLineFromCheckout, "checkout-x"},
		{txnLoadStock, "sku-x"},
	}
	for _, c := range cases {
		if _, err := e.Execute(c.txn, c.key, struct{ X int }{}); err == nil {
			t.Errorf("%s accepted bogus args", c.txn)
		}
	}
}

func TestLoadPopulates(t *testing.T) {
	e := testEngine(t)
	spec := LoadSpec{Carts: 50, Checkouts: 20, Stocks: 30, LinesPerCart: 2, Seed: 1}
	if err := Load(e, spec); err != nil {
		t.Fatal(err)
	}
	rows := e.TotalRows()
	want := spec.Carts + spec.Checkouts + spec.Stocks
	if rows != want {
		t.Fatalf("TotalRows = %d, want %d", rows, want)
	}
	// Spot-check entities exist.
	if v, err := e.Execute(TxnGetCart, CartKey(0), nil); err != nil || v == nil {
		t.Errorf("cart 0 missing: %v, %v", v, err)
	}
	if v, err := e.Execute(TxnGetStock, StockKey(0), nil); err != nil || v == nil {
		t.Errorf("stock 0 missing: %v, %v", v, err)
	}
	if v, err := e.Execute(TxnGetCheckout, CheckoutKey(0), nil); err != nil || v == nil {
		t.Errorf("checkout 0 missing: %v, %v", v, err)
	}
}

func TestDriverRunsTrace(t *testing.T) {
	e := testEngine(t)
	spec := LoadSpec{Carts: 40, Checkouts: 15, Stocks: 25, LinesPerCart: 2, Seed: 2}
	if err := Load(e, spec); err != nil {
		t.Fatal(err)
	}
	// 20 slots of 50 requests each, 10ms per slot -> ~1000 transactions in
	// about 200 ms of wall time.
	vals := make([]float64, 20)
	for i := range vals {
		vals[i] = 50
	}
	series := workload.NewSeries(time.Now(), time.Minute, vals)
	d := &Driver{Eng: e, Spec: spec, Seed: 3}
	stats, err := d.Run(context.Background(), series, 10*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := stats.Executed + stats.Failed
	if total < 800 || total > 1200 {
		t.Fatalf("driver executed %d transactions, want ~1000", total)
	}
	// Business errors (insufficient stock, missing stock-tx) are expected
	// but should be a small minority.
	if stats.Failed > total/4 {
		t.Errorf("%d/%d transactions failed", stats.Failed, total)
	}
}

// TestDriverShedsUnderOverload caps in-flight submissions at one while
// arrivals far outpace the (slowed) engine: the driver must shed the excess
// and report it rather than spawning unbounded goroutines.
func TestDriverShedsUnderOverload(t *testing.T) {
	cfg := store.Config{
		MaxMachines:          2,
		PartitionsPerMachine: 2,
		Buckets:              64,
		ServiceTime:          2 * time.Millisecond,
		QueueCapacity:        4096,
		InitialMachines:      2,
	}
	e, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(e); err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	spec := LoadSpec{Carts: 40, Checkouts: 15, Stocks: 25, LinesPerCart: 2, Seed: 5}
	if err := Load(e, spec); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = 100
	}
	series := workload.NewSeries(time.Now(), time.Minute, vals)
	d := &Driver{Exec: oneInFlight{EngineExecutor{Eng: e}}, Spec: spec, Seed: 6}
	stats, err := d.Run(context.Background(), series, 10*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed == 0 {
		t.Error("overloaded driver shed no arrivals")
	}
	if stats.Executed+stats.Failed == 0 {
		t.Error("driver executed nothing")
	}
}

// oneInFlight is an engine executor that lets the driver keep one submission
// outstanding.
type oneInFlight struct{ EngineExecutor }

func (oneInFlight) InFlightLimit() int { return 1 }

func TestDriverContextCancel(t *testing.T) {
	e := testEngine(t)
	spec := DefaultLoadSpec()
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 100
	}
	series := workload.NewSeries(time.Now(), time.Minute, vals)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	d := &Driver{Eng: e, Spec: spec, Seed: 4}
	start := time.Now()
	_, err := d.Run(ctx, series, 20*time.Millisecond, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("driver did not stop promptly on cancellation")
	}
}

func TestChooserDistribution(t *testing.T) {
	if _, err := newChooser(Mix{}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := newChooser(Mix{TxnGetCart: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	c, err := newChooser(Mix{TxnGetCart: 3, TxnAddLineToCart: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand()
	counts := map[string]int{}
	for i := 0; i < 40000; i++ {
		counts[c.names[c.pick(rng)]]++
	}
	ratio := float64(counts[TxnGetCart]) / float64(counts[TxnAddLineToCart])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("weight ratio = %.2f, want ~3", ratio)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(11)) }
