package b2w

import (
	"fmt"
	"math/rand"

	"pstore/internal/store"
)

// LoadSpec sizes the initial database. The paper's experiments run against
// roughly 1.1 GB of active carts and checkouts (Section 8.1); here sizes are
// row counts on the scaled substrate.
type LoadSpec struct {
	// Carts is the number of pre-created shopping carts.
	Carts int
	// Checkouts is the number of pre-created checkout objects.
	Checkouts int
	// Stocks is the number of SKUs in inventory.
	Stocks int
	// LinesPerCart is the mean number of lines per pre-created cart.
	LinesPerCart int
	// Seed makes loading reproducible.
	Seed int64
}

// DefaultLoadSpec returns a small database suitable for scaled experiments.
func DefaultLoadSpec() LoadSpec {
	return LoadSpec{Carts: 4000, Checkouts: 1000, Stocks: 2000, LinesPerCart: 3, Seed: 1}
}

// CartKey returns the cart id for index i.
func CartKey(i int) string { return paddedKey("cart-", i, 8) }

// CheckoutKey returns the checkout id for index i.
func CheckoutKey(i int) string { return paddedKey("checkout-", i, 8) }

// StockKey returns the SKU for index i.
func StockKey(i int) string { return paddedKey("sku-", i, 8) }

// StockTxKey returns the stock-transaction id for index i.
func StockTxKey(i int) string { return paddedKey("stocktx-", i, 8) }

// paddedKey is prefix+fmt.Sprintf("%0*d", width, i) without fmt, which took
// about a quarter of BenchmarkLoad: width counts a minus sign, at most 8.
func paddedKey(prefix string, i, width int) string {
	var buf [24]byte // 20 digits and a sign
	d, u := len(buf), uint64(i)
	if i < 0 {
		u, width = -u, width-1
	}
	for ; u > 0 || d == len(buf) || len(buf)-d < width; u /= 10 {
		d--
		buf[d] = byte('0' + u%10)
	}
	if i < 0 {
		d--
		buf[d] = '-'
	}
	return prefix + string(buf[d:])
}

// Dataset generates spec's rows in load order — stock, then carts, then
// checkouts, from one RNG seeded with spec.Seed — and hands each to emit as
// the bootstrap procedure that installs it, its key and its argument.
func Dataset(spec LoadSpec, emit func(txn, key string, args any)) {
	lines := max(spec.LinesPerCart, 1)
	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < spec.Stocks; i++ {
		sku := StockKey(i)
		emit(txnLoadStock, sku, StockItem{SKU: sku, Available: 50 + rng.Intn(200)})
	}
	for i := 0; i < spec.Carts; i++ {
		n := 1 + rng.Intn(2*lines-1)
		cart := Cart{Customer: paddedKey("customer-", rng.Intn(1_000_000), 6)}
		for l := 0; l < n; l++ {
			line := CartLine{
				SKU:       StockKey(rng.Intn(max(spec.Stocks, 1))),
				Quantity:  1 + rng.Intn(3),
				UnitPrice: int64(500 + rng.Intn(100000)),
			}
			cart.Lines = append(cart.Lines, line)
			cart.Total += int64(line.Quantity) * line.UnitPrice
		}
		emit(txnLoadCart, CartKey(i), cart)
	}
	for i := 0; i < spec.Checkouts; i++ {
		line := CartLine{
			SKU:       StockKey(rng.Intn(max(spec.Stocks, 1))),
			Quantity:  1,
			UnitPrice: int64(500 + rng.Intn(100000)),
		}
		emit(txnLoadCheckout, CheckoutKey(i), Checkout{
			CartID: CartKey(rng.Intn(max(spec.Carts, 1))),
			Lines:  []CartLine{line},
			Total:  int64(line.Quantity) * line.UnitPrice,
		})
	}
}

// Load populates the engine with spec's Dataset in one ExecuteBatch: each
// hosted partition gets its share as one request, and rows another node hosts
// are left to its own load. The engine must be started.
func Load(eng *store.Engine, spec LoadSpec) error {
	if spec.Carts < 0 || spec.Checkouts < 0 || spec.Stocks < 0 {
		return fmt.Errorf("b2w: negative load sizes")
	}
	handles := make(map[string]store.TxnID, 3)
	for _, name := range []string{txnLoadStock, txnLoadCart, txnLoadCheckout} {
		id, ok := eng.Handle(name)
		if !ok {
			return fmt.Errorf("b2w: bootstrap transaction %s not registered", name)
		}
		handles[name] = id
	}
	cmds := make([]store.Command, 0, spec.Stocks+spec.Carts+spec.Checkouts)
	Dataset(spec, func(txn, key string, args any) {
		cmds = append(cmds, store.Command{ID: handles[txn], Key: key, Args: args})
	})
	if err := eng.ExecuteBatch(cmds); err != nil {
		return fmt.Errorf("b2w: loading: %w", err)
	}
	return nil
}

// Internal bootstrap procedures that install complete rows directly during
// bulk loading; registered by Register alongside the public transactions
// and configured with zero service time.
const (
	txnLoadStock    = "loadStock"
	txnLoadCart     = "loadCart"
	txnLoadCheckout = "loadCheckout"
)
