package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/workload"
)

// nodeSpec is the dataset `pstore serve -node` hard-codes (4 200 rows at the
// node's default -seed 1). The key pools below and the in-process oracle are
// sized from it.
var nodeSpec = b2w.LoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: 1}

// readTxns are the procedures of b2w.DefaultMix that never write a row
// (47 of its 100 weight points). The node logs them all the same.
var readTxns = map[string]bool{
	b2w.TxnGetCart: true, b2w.TxnGetStock: true, b2w.TxnGetStockQuantity: true,
	b2w.TxnGetStockTransaction: true, b2w.TxnGetCheckout: true,
}

// uniqueKeyBase starts the bench-unique stock-transaction keys far above the
// 4·Stocks pool the mix draws from, so each is created exactly once.
const uniqueKeyBase = 10_000_000

// mixer draws transactions from a weighted mix with its own seeded source.
type mixer struct {
	rng    *rand.Rand
	names  []string
	cumul  []float64
	unique bool // give CreateStockTransaction bench-unique keys
	nextID int
}

// newMixer builds the chooser over b2w.DefaultMix, or over its mutating
// procedures only (renormalised by dropping the reads).
func newMixer(seed int64, writesOnly bool) *mixer {
	m := &mixer{rng: rand.New(rand.NewSource(seed)), unique: writesOnly}
	mix := b2w.DefaultMix()
	total := 0.0
	for _, name := range b2w.AllTxns { // canonical order: map order is random
		w := mix[name]
		if w <= 0 || (writesOnly && readTxns[name]) {
			continue
		}
		total += w
		m.names = append(m.names, name)
		m.cumul = append(m.cumul, total)
	}
	return m
}

// next draws one request due at the given offset.
func (m *mixer) next(due time.Duration) (*request, error) {
	x := m.rng.Float64() * m.cumul[len(m.cumul)-1]
	name := m.names[sort.SearchFloat64s(m.cumul, x)]
	rng := m.rng
	cart := b2w.CartKey(rng.Intn(nodeSpec.Carts))
	checkout := b2w.CheckoutKey(rng.Intn(nodeSpec.Checkouts))
	sku := b2w.StockKey(rng.Intn(nodeSpec.Stocks))
	stockTx := b2w.StockTxKey(rng.Intn(nodeSpec.Stocks * 4))
	line := b2w.LineArgs{
		SKU:       sku,
		Quantity:  1 + rng.Intn(3),
		UnitPrice: int64(500 + rng.Intn(100000)),
		Customer:  fmt.Sprintf("customer-%06d", rng.Intn(1_000_000)),
	}
	r := &request{due: due, txn: name, write: !readTxns[name]}
	switch name {
	case b2w.TxnAddLineToCart, b2w.TxnDeleteLineFromCart:
		r.key, r.args = cart, line
	case b2w.TxnGetCart, b2w.TxnDeleteCart, b2w.TxnReserveCart:
		r.key = cart
	case b2w.TxnGetStock, b2w.TxnGetStockQuantity:
		r.key = sku
	case b2w.TxnReserveStock, b2w.TxnPurchaseStock, b2w.TxnCancelStockReservation:
		r.key, r.args = sku, b2w.QuantityArgs{Quantity: 1 + rng.Intn(2)}
	case b2w.TxnCreateStockTransaction:
		r.key, r.args = stockTx, b2w.StockTxArgs{CartID: cart, SKU: sku, Quantity: 1}
		if m.unique {
			r.key, r.unique = b2w.StockTxKey(uniqueKeyBase+m.nextID), true
			m.nextID++
		}
	case b2w.TxnGetStockTransaction:
		r.key = stockTx
	case b2w.TxnUpdateStockTransaction:
		status := b2w.StockTxPurchased
		if rng.Intn(3) == 0 {
			status = b2w.StockTxCancelled
		}
		r.key, r.args = stockTx, b2w.StatusArgs{Status: status}
	case b2w.TxnCreateCheckout:
		r.key, r.args = checkout, b2w.CheckoutArgs{CartID: cart,
			Lines: []b2w.CartLine{{SKU: sku, Quantity: 1, UnitPrice: line.UnitPrice}}}
	case b2w.TxnCreateCheckoutPayment:
		r.key, r.args = checkout, b2w.Payment{Method: "credit", Amount: line.UnitPrice}
	case b2w.TxnAddLineToCheckout, b2w.TxnDeleteLineFromCheckout:
		r.key, r.args = checkout, line
	case b2w.TxnGetCheckout, b2w.TxnDeleteCheckout:
		r.key = checkout
	default:
		return nil, fmt.Errorf("mix: no key rule for %s", name)
	}
	if r.args != nil {
		raw, err := json.Marshal(r.args)
		if err != nil {
			return nil, fmt.Errorf("mix: encoding %s args: %w", name, err)
		}
		r.raw = raw
	}
	return r, nil
}

// schedule turns a rate series into the run's requests: seeded Poisson
// arrival times from workload.NewArrivals, each given a transaction by the
// mixer. series holds requests per second for consecutive slots of slot
// wall time each.
func schedule(series workload.Series, slot time.Duration, seed int64, writesOnly bool) ([]*request, error) {
	arrivals, err := workload.NewArrivals(series, slot, slot.Seconds(), seed)
	if err != nil {
		return nil, err
	}
	m := newMixer(seed+1, writesOnly)
	var reqs []*request
	for {
		at, ok := arrivals.Next()
		if !ok {
			return reqs, nil
		}
		r, err := m.next(at)
		if err != nil {
			return nil, err
		}
		r.id = len(reqs)
		reqs = append(reqs, r)
	}
}

// constantRate is a series of one-second slots at tps requests per second.
func constantRate(tps float64, seconds int) workload.Series {
	values := make([]float64, seconds)
	for i := range values {
		values[i] = tps
	}
	return workload.NewSeries(time.Time{}, time.Second, values)
}
