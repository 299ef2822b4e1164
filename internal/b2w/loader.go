package b2w

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

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
	// Loaders is the number of concurrent loading clients (defaults to
	// defaultLoaders).
	Loaders int
}

// defaultLoaders is how many loads are in flight when the spec does not say.
// A node's load is not logged (recovery.Manager.Bootstrap), so a loader waits
// for an executor's few-µs hand-off, not for an fsync, and needs no group
// commit to fill: one load in flight per partition of the deployed 16-partition
// engine keeps every executor busy wherever there is a core for each. On 2
// cores BenchmarkLoad puts 4 to 64 loaders within noise of each other (≈ 10 ms
// for 4 200 rows, 1 loader ≈ 13 ms), and timed node starts read 16 at ≈ 25 ms
// against ≈ 28 ms for 4 and for 64.
const defaultLoaders = 16

// DefaultLoadSpec returns a small database suitable for scaled experiments.
func DefaultLoadSpec() LoadSpec {
	return LoadSpec{Carts: 4000, Checkouts: 1000, Stocks: 2000, LinesPerCart: 3, Seed: 1, Loaders: defaultLoaders}
}

// CartKey returns the cart id for index i.
func CartKey(i int) string { return fmt.Sprintf("cart-%08d", i) }

// CheckoutKey returns the checkout id for index i.
func CheckoutKey(i int) string { return fmt.Sprintf("checkout-%08d", i) }

// StockKey returns the SKU for index i.
func StockKey(i int) string { return fmt.Sprintf("sku-%08d", i) }

// StockTxKey returns the stock-transaction id for index i.
func StockTxKey(i int) string { return fmt.Sprintf("stocktx-%08d", i) }

// Load populates the engine with the initial carts, checkouts and stock
// through the regular transaction API. The engine must be started.
func Load(eng *store.Engine, spec LoadSpec) error {
	if spec.Carts < 0 || spec.Checkouts < 0 || spec.Stocks < 0 {
		return fmt.Errorf("b2w: negative load sizes")
	}
	loaders := spec.Loaders
	if loaders < 1 {
		loaders = defaultLoaders
	}
	lines := max(spec.LinesPerCart, 1)

	// Resolve the bootstrap procedures' handles once up front.
	handles := make(map[string]store.TxnID, 3)
	for _, name := range []string{txnLoadStock, txnLoadCart, txnLoadCheckout} {
		id, ok := eng.Handle(name)
		if !ok {
			return fmt.Errorf("b2w: bootstrap transaction %s not registered", name)
		}
		handles[name] = id
	}

	type job struct {
		txn  store.TxnID
		name string
		key  string
		args any
	}
	jobs := make(chan job, 1024)
	var wg sync.WaitGroup
	errCh := make(chan error, loaders)
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if _, err := eng.ExecuteID(j.txn, j.key, j.args); err != nil {
					if errors.Is(err, store.ErrNotOwned) {
						// Multi-process loading: every node runs the same
						// deterministic load; a key hosted elsewhere is that
						// node's to load.
						continue
					}
					select {
					case errCh <- fmt.Errorf("b2w: loading %s %s: %w", j.name, j.key, err):
					default:
					}
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < spec.Stocks; i++ {
		jobs <- job{txn: handles[txnLoadStock], name: txnLoadStock, key: StockKey(i), args: StockItem{
			SKU:       StockKey(i),
			Available: 50 + rng.Intn(200),
		}}
	}
	for i := 0; i < spec.Carts; i++ {
		n := 1 + rng.Intn(2*lines-1)
		cart := Cart{Customer: fmt.Sprintf("customer-%06d", rng.Intn(1_000_000))}
		for l := 0; l < n; l++ {
			line := CartLine{
				SKU:       StockKey(rng.Intn(max(spec.Stocks, 1))),
				Quantity:  1 + rng.Intn(3),
				UnitPrice: int64(500 + rng.Intn(100000)),
			}
			cart.Lines = append(cart.Lines, line)
			cart.Total += int64(line.Quantity) * line.UnitPrice
		}
		jobs <- job{txn: handles[txnLoadCart], name: txnLoadCart, key: CartKey(i), args: cart}
	}
	for i := 0; i < spec.Checkouts; i++ {
		line := CartLine{
			SKU:       StockKey(rng.Intn(max(spec.Stocks, 1))),
			Quantity:  1,
			UnitPrice: int64(500 + rng.Intn(100000)),
		}
		jobs <- job{txn: handles[txnLoadCheckout], name: txnLoadCheckout, key: CheckoutKey(i), args: Checkout{
			CartID: CartKey(rng.Intn(max(spec.Carts, 1))),
			Lines:  []CartLine{line},
			Total:  int64(line.Quantity) * line.UnitPrice,
		}}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// Internal bootstrap procedures that install complete rows directly during
// bulk loading; registered by Register alongside the public transactions
// and configured with zero service time.
const (
	txnLoadStock    = "loadStock"
	txnLoadCart     = "loadCart"
	txnLoadCheckout = "loadCheckout"
)
