package b2w

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/store"
	"pstore/internal/workload"
)

// Mix assigns a relative weight to every transaction type; the driver draws
// each arrival's type proportionally. DefaultMix approximates an online
// retail flow: browsing and cart edits dominate, a fraction of sessions
// proceed through reservation and checkout.
type Mix map[string]float64

// DefaultMix returns the standard benchmark mix.
func DefaultMix() Mix {
	return Mix{
		TxnGetCart:                22,
		TxnAddLineToCart:          16,
		TxnDeleteLineFromCart:     3,
		TxnDeleteCart:             2,
		TxnReserveCart:            3,
		TxnGetStockQuantity:       14,
		TxnGetStock:               5,
		TxnReserveStock:           5,
		TxnPurchaseStock:          3,
		TxnCancelStockReservation: 1,
		TxnCreateStockTransaction: 3,
		TxnGetStockTransaction:    2,
		TxnUpdateStockTransaction: 2,
		TxnCreateCheckout:         4,
		TxnCreateCheckoutPayment:  3,
		TxnAddLineToCheckout:      4,
		TxnGetCheckout:            4,
		TxnDeleteLineFromCheckout: 2,
		TxnDeleteCheckout:         2,
	}
}

// Executor is the submission boundary the driver replays against. The
// in-process implementation (EngineExecutor) is a direct engine call; the
// remote implementation (RemoteExecutor) serializes the same submissions
// over the network front end — so one driver binary is both the reference
// oracle and a separate-process load generator.
type Executor interface {
	// Resolve maps a transaction name to the dense handle ExecuteID takes.
	Resolve(name string) (store.TxnID, bool)
	// ExecuteID submits one transaction and blocks until it completes.
	// Refusals must surface as errors matching store.ErrOverload /
	// store.ErrDeadlineExceeded so the driver's refusal accounting works
	// for every transport.
	ExecuteID(id store.TxnID, key string, args any) (any, error)
	// InFlightLimit caps the driver's concurrent submissions so overload
	// cannot grow goroutines without bound; arrivals beyond it are shed and
	// counted.
	InFlightLimit() int
}

// EngineExecutor is the in-process Executor: submissions are direct engine
// calls, byte-identical to the pre-wire driver.
type EngineExecutor struct {
	// Eng is the target engine.
	Eng *store.Engine
}

// Resolve maps the name through the engine's handle table.
func (e EngineExecutor) Resolve(name string) (store.TxnID, bool) { return e.Eng.Handle(name) }

// ExecuteID submits through the engine's allocation-free hot path.
func (e EngineExecutor) ExecuteID(id store.TxnID, key string, args any) (any, error) {
	return e.Eng.ExecuteID(id, key, args)
}

// InFlightLimit mirrors one partition queue's capacity.
func (e EngineExecutor) InFlightLimit() int { return e.Eng.Config().QueueCapacity }

// Driver replays a load trace against an Executor, converting each slot's
// request count into Poisson transaction arrivals (Section 7: the paper
// replays B2W's production logs; here the trace is synthetic but the
// request mix and keys mimic the production flow).
type Driver struct {
	// Eng is the target engine for in-process replay. Ignored when Exec is
	// set.
	Eng *store.Engine
	// Exec overrides the submission boundary, e.g. with a RemoteExecutor
	// hammering a network front end from a separate process. Nil wraps Eng
	// in an EngineExecutor.
	Exec Executor
	// Spec sizes the key pools (must match what Load created).
	Spec LoadSpec
	// Seed makes the replay reproducible. Transaction types are drawn from
	// DefaultMix.
	Seed int64

	inFlight sync.WaitGroup
	executed atomic.Int64
	failed   atomic.Int64
	refused  atomic.Int64
	shed     atomic.Int64
}

// Stats reports what the driver executed.
type Stats struct {
	// Executed is the number of completed transactions.
	Executed int64
	// Failed is the number of transactions that returned an error
	// (including expected business errors like insufficient stock).
	// Refusals by the engine's overload plane are counted in Refused, not
	// here.
	Failed int64
	// Refused is the number of submissions the engine's overload plane
	// turned away (store.ErrOverload / store.ErrDeadlineExceeded): work the
	// server declined under backpressure, distinct from work that failed.
	Refused int64
	// Shed is the number of Poisson arrivals dropped because the executor's
	// InFlightLimit submissions were already outstanding — the driver's
	// client-side admission control under overload.
	Shed int64
}

// Run replays the trace: slot i of series lasts slotDur of wall time and
// produces series[i]*rateScale Poisson arrivals. It blocks until the trace
// and all in-flight transactions finish, or ctx is cancelled.
func (d *Driver) Run(ctx context.Context, series workload.Series, slotDur time.Duration, rateScale float64) (Stats, error) {
	exec := d.Exec
	if exec == nil {
		if d.Eng == nil {
			return Stats{}, errors.New("b2w: driver has no engine or executor")
		}
		exec = EngineExecutor{Eng: d.Eng}
	}
	arrivals, err := workload.NewArrivals(series, slotDur, rateScale, d.Seed)
	if err != nil {
		return Stats{}, err
	}
	chooser, err := newChooser(DefaultMix())
	if err != nil {
		return Stats{}, err
	}
	// Resolve every mixed transaction name to its dense handle once; the
	// per-arrival hot path then never touches the executor's name map.
	ids := make([]store.TxnID, len(chooser.names))
	for i, name := range chooser.names {
		id, ok := exec.Resolve(name)
		if !ok {
			return Stats{}, fmt.Errorf("b2w: transaction %s not registered", name)
		}
		ids[i] = id
	}
	rng := rand.New(rand.NewSource(d.Seed + 1))

	cap := exec.InFlightLimit()
	if cap <= 0 {
		cap = 1
	}
	sem := make(chan struct{}, cap)

	start := time.Now()
	for {
		at, ok := arrivals.Next()
		if !ok {
			break
		}
		if err := sleepUntil(ctx, start.Add(at)); err != nil {
			break // context cancelled: stop issuing, wait for in-flight
		}
		pick := chooser.pick(rng)
		key, args := d.keyAndArgs(rng, chooser.names[pick])
		select {
		case sem <- struct{}{}:
		default:
			d.shed.Add(1)
			continue
		}
		d.inFlight.Add(1)
		go func(id store.TxnID, key string, args any) {
			defer func() {
				<-sem
				d.inFlight.Done()
			}()
			_, err := exec.ExecuteID(id, key, args)
			switch {
			case err == nil:
				d.executed.Add(1)
			case errors.Is(err, store.ErrOverload) || errors.Is(err, store.ErrDeadlineExceeded):
				d.refused.Add(1)
			default:
				d.failed.Add(1)
			}
		}(ids[pick], key, args)
	}
	d.inFlight.Wait()
	return Stats{Executed: d.executed.Load(), Failed: d.failed.Load(),
		Refused: d.refused.Load(), Shed: d.shed.Load()}, ctx.Err()
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// keyAndArgs draws the routing key and arguments for one transaction.
func (d *Driver) keyAndArgs(rng *rand.Rand, name string) (string, any) {
	carts := max(d.Spec.Carts, 1)
	checkouts := max(d.Spec.Checkouts, 1)
	stocks := max(d.Spec.Stocks, 1)
	cart := CartKey(rng.Intn(carts))
	checkout := CheckoutKey(rng.Intn(checkouts))
	sku := StockKey(rng.Intn(stocks))
	line := LineArgs{
		SKU:       sku,
		Quantity:  1 + rng.Intn(3),
		UnitPrice: int64(500 + rng.Intn(100000)),
		Customer:  fmt.Sprintf("customer-%06d", rng.Intn(1_000_000)),
	}
	switch name {
	case TxnAddLineToCart, TxnDeleteLineFromCart:
		return cart, line
	case TxnGetCart, TxnDeleteCart, TxnReserveCart:
		return cart, nil
	case TxnGetStock, TxnGetStockQuantity:
		return sku, nil
	case TxnReserveStock, TxnPurchaseStock, TxnCancelStockReservation:
		return sku, QuantityArgs{Quantity: 1 + rng.Intn(2)}
	case TxnCreateStockTransaction:
		return StockTxKey(rng.Intn(stocks * 4)), StockTxArgs{CartID: cart, SKU: sku, Quantity: 1}
	case TxnGetStockTransaction:
		return StockTxKey(rng.Intn(stocks * 4)), nil
	case TxnUpdateStockTransaction:
		status := StockTxPurchased
		if rng.Intn(3) == 0 {
			status = StockTxCancelled
		}
		return StockTxKey(rng.Intn(stocks * 4)), StatusArgs{Status: status}
	case TxnCreateCheckout:
		return checkout, CheckoutArgs{CartID: cart, Lines: []CartLine{{SKU: sku, Quantity: 1, UnitPrice: line.UnitPrice}}}
	case TxnCreateCheckoutPayment:
		return checkout, Payment{Method: "credit", Amount: line.UnitPrice}
	case TxnAddLineToCheckout, TxnDeleteLineFromCheckout:
		return checkout, line
	case TxnGetCheckout, TxnDeleteCheckout:
		return checkout, nil
	default:
		return cart, nil
	}
}

// chooser draws transaction names proportionally to their weights.
type chooser struct {
	names []string
	cumul []float64
	total float64
}

func newChooser(mix Mix) (*chooser, error) {
	c := &chooser{}
	// Deterministic order: iterate the canonical name list.
	for _, name := range AllTxns {
		w, ok := mix[name]
		if !ok {
			continue
		}
		if w < 0 {
			return nil, fmt.Errorf("b2w: negative weight for %s", name)
		}
		if w == 0 {
			continue
		}
		c.total += w
		c.names = append(c.names, name)
		c.cumul = append(c.cumul, c.total)
	}
	if c.total <= 0 {
		return nil, errors.New("b2w: mix has no positive weights")
	}
	return c, nil
}

// pick draws one transaction and returns its index into names.
func (c *chooser) pick(rng *rand.Rand) int {
	x := rng.Float64() * c.total
	for i, cm := range c.cumul {
		if x < cm {
			return i
		}
	}
	return len(c.names) - 1
}
