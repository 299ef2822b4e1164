package b2w

import (
	"errors"
	"fmt"

	"pstore/internal/store"
)

// Transaction names (Table 4 of the paper).
const (
	TxnAddLineToCart          = "AddLineToCart"
	TxnDeleteLineFromCart     = "DeleteLineFromCart"
	TxnGetCart                = "GetCart"
	TxnDeleteCart             = "DeleteCart"
	TxnReserveCart            = "ReserveCart"
	TxnGetStock               = "GetStock"
	TxnGetStockQuantity       = "GetStockQuantity"
	TxnReserveStock           = "ReserveStock"
	TxnPurchaseStock          = "PurchaseStock"
	TxnCancelStockReservation = "CancelStockReservation"
	TxnCreateStockTransaction = "CreateStockTransaction"
	TxnGetStockTransaction    = "GetStockTransaction"
	TxnUpdateStockTransaction = "UpdateStockTransaction"
	TxnCreateCheckout         = "CreateCheckout"
	TxnCreateCheckoutPayment  = "CreateCheckoutPayment"
	TxnAddLineToCheckout      = "AddLineToCheckout"
	TxnDeleteLineFromCheckout = "DeleteLineFromCheckout"
	TxnGetCheckout            = "GetCheckout"
	TxnDeleteCheckout         = "DeleteCheckout"
)

// AllTxns lists every benchmark transaction name.
var AllTxns = []string{
	TxnAddLineToCart, TxnDeleteLineFromCart, TxnGetCart, TxnDeleteCart,
	TxnReserveCart, TxnGetStock, TxnGetStockQuantity, TxnReserveStock,
	TxnPurchaseStock, TxnCancelStockReservation, TxnCreateStockTransaction,
	TxnGetStockTransaction, TxnUpdateStockTransaction, TxnCreateCheckout,
	TxnCreateCheckoutPayment, TxnAddLineToCheckout, TxnDeleteLineFromCheckout,
	TxnGetCheckout, TxnDeleteCheckout,
}

// ErrInsufficientStock is returned by ReserveStock when availability is too
// low; the benchmark driver removes the item from the cart, like the B2W
// checkout flow.
var ErrInsufficientStock = errors.New("b2w: insufficient stock")

// ErrNotFound is returned when a referenced entity does not exist.
var ErrNotFound = errors.New("b2w: not found")

// LineArgs are the arguments of cart/checkout line operations.
type LineArgs struct {
	SKU       string
	Quantity  int
	UnitPrice int64
	Customer  string
}

// QuantityArgs carry a quantity for stock operations.
type QuantityArgs struct {
	Quantity int
}

// StockTxArgs describe a new stock transaction.
type StockTxArgs struct {
	CartID   string
	SKU      string
	Quantity int
}

// StatusArgs carry a stock-transaction status update.
type StatusArgs struct {
	Status string
}

// CheckoutArgs describe a new checkout.
type CheckoutArgs struct {
	CartID string
	Lines  []CartLine
}

// Register installs all nineteen stored procedures into the engine, and
// DecodeArgs as the decoder of their arguments. Call it before Engine.Start.
func Register(eng *store.Engine) error {
	if err := eng.SetArgsDecoder(DecodeArgs); err != nil {
		return err
	}
	procs := map[string]store.TxnFunc{
		TxnAddLineToCart:          addLineToCart,
		TxnDeleteLineFromCart:     deleteLineFromCart,
		TxnGetCart:                getCart,
		TxnDeleteCart:             deleteCart,
		TxnReserveCart:            reserveCart,
		TxnGetStock:               getStock,
		TxnGetStockQuantity:       getStockQuantity,
		TxnReserveStock:           reserveStock,
		TxnPurchaseStock:          purchaseStock,
		TxnCancelStockReservation: cancelStockReservation,
		TxnCreateStockTransaction: createStockTransaction,
		TxnGetStockTransaction:    getStockTransaction,
		TxnUpdateStockTransaction: updateStockTransaction,
		TxnCreateCheckout:         createCheckout,
		TxnCreateCheckoutPayment:  createCheckoutPayment,
		TxnAddLineToCheckout:      addLineToCheckout,
		TxnDeleteLineFromCheckout: deleteLineFromCheckout,
		TxnGetCheckout:            getCheckout,
		TxnDeleteCheckout:         deleteCheckout,
		txnLoadStock:              loadStockRow,
		txnLoadCart:               loadCartRow,
		txnLoadCheckout:           loadCheckoutRow,
	}
	for name, fn := range procs {
		if err := eng.Register(name, fn); err != nil {
			return fmt.Errorf("b2w: registering %s: %w", name, err)
		}
	}
	// Bulk loading bypasses the simulated per-transaction service time so
	// experiments spend their wall-clock budget on the measured workload.
	for _, name := range []string{txnLoadStock, txnLoadCart, txnLoadCheckout} {
		if err := eng.SetServiceTime(name, 0); err != nil {
			return fmt.Errorf("b2w: configuring %s: %w", name, err)
		}
	}
	return nil
}

// loadCartRow installs a complete cart during bulk loading.
func loadCartRow(tx *store.Tx) (any, error) {
	// The row arrives by value, so what is installed is a private copy.
	c, ok := tx.Args.(Cart)
	if !ok {
		return nil, fmt.Errorf("b2w: loadCart wants Cart, got %T", tx.Args)
	}
	c.ID = tx.Key
	return nil, tx.Put(TableCart, tx.Key, &c)
}

// loadCheckoutRow installs a complete checkout during bulk loading.
func loadCheckoutRow(tx *store.Tx) (any, error) {
	c, ok := tx.Args.(Checkout)
	if !ok {
		return nil, fmt.Errorf("b2w: loadCheckout wants Checkout, got %T", tx.Args)
	}
	c.ID = tx.Key
	return nil, tx.Put(TableCheckout, tx.Key, &c)
}

func loadCart(tx *store.Tx) (*Cart, error) {
	v, ok, err := tx.Get(TableCart, tx.Key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	c, ok := v.(*Cart)
	if !ok {
		return nil, fmt.Errorf("b2w: row %q is not a cart", tx.Key)
	}
	return c, nil
}

// addLineToCart adds an item to the shopping cart, creating the cart if it
// does not exist yet.
func addLineToCart(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(LineArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: AddLineToCart wants LineArgs, got %T", tx.Args)
	}
	c, err := loadCart(tx)
	if err != nil {
		return nil, err
	}
	if c == nil {
		c = &Cart{ID: tx.Key, Customer: args.Customer}
	} else {
		c = c.clone()
	}
	for i := range c.Lines {
		if c.Lines[i].SKU == args.SKU {
			c.Lines[i].Quantity += args.Quantity
			c.Total += int64(args.Quantity) * args.UnitPrice
			return len(c.Lines), tx.Put(TableCart, tx.Key, c)
		}
	}
	c.Lines = append(c.Lines, CartLine{SKU: args.SKU, Quantity: args.Quantity, UnitPrice: args.UnitPrice})
	c.Total += int64(args.Quantity) * args.UnitPrice
	return len(c.Lines), tx.Put(TableCart, tx.Key, c)
}

// deleteLineFromCart removes an item from the cart if present.
func deleteLineFromCart(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(LineArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: DeleteLineFromCart wants LineArgs, got %T", tx.Args)
	}
	c, err := loadCart(tx)
	if err != nil || c == nil {
		return nil, err
	}
	c = c.clone()
	for i := range c.Lines {
		if c.Lines[i].SKU == args.SKU {
			c.Total -= int64(c.Lines[i].Quantity) * c.Lines[i].UnitPrice
			c.Lines = append(c.Lines[:i], c.Lines[i+1:]...)
			break
		}
	}
	return len(c.Lines), tx.Put(TableCart, tx.Key, c)
}

// getCart retrieves the items currently in the cart. It returns a copy so
// callers cannot mutate partition state.
func getCart(tx *store.Tx) (any, error) {
	c, err := loadCart(tx)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, nil
	}
	out := *c
	out.Lines = append([]CartLine(nil), c.Lines...)
	return &out, nil
}

// deleteCart removes the shopping cart.
func deleteCart(tx *store.Tx) (any, error) {
	return nil, tx.Delete(TableCart, tx.Key)
}

// reserveCart marks every line of the cart as reserved (called once the
// checkout flow has reserved the underlying stock).
func reserveCart(tx *store.Tx) (any, error) {
	c, err := loadCart(tx)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, ErrNotFound
	}
	c = c.clone()
	for i := range c.Lines {
		c.Lines[i].Reserved = true
	}
	return len(c.Lines), tx.Put(TableCart, tx.Key, c)
}

// loadStockRow is the loader's bootstrap procedure: it installs a complete
// inventory record for a SKU.
func loadStockRow(tx *store.Tx) (any, error) {
	item, ok := tx.Args.(StockItem)
	if !ok {
		return nil, fmt.Errorf("b2w: loadStock wants StockItem, got %T", tx.Args)
	}
	item.SKU = tx.Key
	return nil, tx.Put(TableStock, tx.Key, &item)
}

func loadStock(tx *store.Tx) (*StockItem, error) {
	v, ok, err := tx.Get(TableStock, tx.Key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	s, ok := v.(*StockItem)
	if !ok {
		return nil, fmt.Errorf("b2w: row %q is not a stock item", tx.Key)
	}
	return s, nil
}

// getStock retrieves the full inventory record for a SKU.
func getStock(tx *store.Tx) (any, error) {
	s, err := loadStock(tx)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	out := *s
	return &out, nil
}

// getStockQuantity determines the availability of an item.
func getStockQuantity(tx *store.Tx) (any, error) {
	s, err := loadStock(tx)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return 0, nil
	}
	return s.Available, nil
}

// reserveStock moves quantity from available to reserved, failing if not
// enough units are available.
func reserveStock(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(QuantityArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: ReserveStock wants QuantityArgs, got %T", tx.Args)
	}
	s, err := loadStock(tx)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, ErrNotFound
	}
	if s.Available < args.Quantity {
		return nil, ErrInsufficientStock
	}
	s = s.clone()
	s.Available -= args.Quantity
	s.Reserved += args.Quantity
	return s.Available, tx.Put(TableStock, tx.Key, s)
}

// purchaseStock converts reserved units into purchased units.
func purchaseStock(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(QuantityArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: PurchaseStock wants QuantityArgs, got %T", tx.Args)
	}
	s, err := loadStock(tx)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, ErrNotFound
	}
	s = s.clone()
	n := min(args.Quantity, s.Reserved)
	s.Reserved -= n
	s.Purchased += n
	return n, tx.Put(TableStock, tx.Key, s)
}

// cancelStockReservation returns reserved units to availability.
func cancelStockReservation(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(QuantityArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: CancelStockReservation wants QuantityArgs, got %T", tx.Args)
	}
	s, err := loadStock(tx)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, ErrNotFound
	}
	s = s.clone()
	n := min(args.Quantity, s.Reserved)
	s.Reserved -= n
	s.Available += n
	return n, tx.Put(TableStock, tx.Key, s)
}

// createStockTransaction records that an item in a cart has been reserved.
func createStockTransaction(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(StockTxArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: CreateStockTransaction wants StockTxArgs, got %T", tx.Args)
	}
	st := &StockTransaction{
		ID:       tx.Key,
		CartID:   args.CartID,
		SKU:      args.SKU,
		Quantity: args.Quantity,
		Status:   StockTxReserved,
	}
	return st.ID, tx.Put(TableStockTx, tx.Key, st)
}

// getStockTransaction retrieves a stock transaction.
func getStockTransaction(tx *store.Tx) (any, error) {
	v, ok, err := tx.Get(TableStockTx, tx.Key)
	if err != nil || !ok {
		return nil, err
	}
	st := *(v.(*StockTransaction))
	return &st, nil
}

// updateStockTransaction changes the status of a stock transaction to mark
// it purchased or cancelled.
func updateStockTransaction(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(StatusArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: UpdateStockTransaction wants StatusArgs, got %T", tx.Args)
	}
	switch args.Status {
	case StockTxPurchased, StockTxCancelled, StockTxReserved:
	default:
		return nil, fmt.Errorf("b2w: invalid stock transaction status %q", args.Status)
	}
	v, ok, err := tx.Get(TableStockTx, tx.Key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	st := v.(*StockTransaction).clone()
	st.Status = args.Status
	return st.Status, tx.Put(TableStockTx, tx.Key, st)
}

func loadCheckout(tx *store.Tx) (*Checkout, error) {
	v, ok, err := tx.Get(TableCheckout, tx.Key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	c, ok := v.(*Checkout)
	if !ok {
		return nil, fmt.Errorf("b2w: row %q is not a checkout", tx.Key)
	}
	return c, nil
}

// createCheckout starts the checkout process from a cart snapshot.
func createCheckout(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(CheckoutArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: CreateCheckout wants CheckoutArgs, got %T", tx.Args)
	}
	var total int64
	for _, l := range args.Lines {
		total += int64(l.Quantity) * l.UnitPrice
	}
	c := &Checkout{
		ID:     tx.Key,
		CartID: args.CartID,
		Lines:  append([]CartLine(nil), args.Lines...),
		Total:  total,
	}
	return c.ID, tx.Put(TableCheckout, tx.Key, c)
}

// createCheckoutPayment adds payment information to the checkout.
func createCheckoutPayment(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(Payment)
	if !ok {
		return nil, fmt.Errorf("b2w: CreateCheckoutPayment wants Payment, got %T", tx.Args)
	}
	c, err := loadCheckout(tx)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, ErrNotFound
	}
	c = c.clone()
	c.Payments = append(c.Payments, args)
	return len(c.Payments), tx.Put(TableCheckout, tx.Key, c)
}

// addLineToCheckout adds an item to the checkout object.
func addLineToCheckout(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(LineArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: AddLineToCheckout wants LineArgs, got %T", tx.Args)
	}
	c, err := loadCheckout(tx)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, ErrNotFound
	}
	c = c.clone()
	c.Lines = append(c.Lines, CartLine{SKU: args.SKU, Quantity: args.Quantity, UnitPrice: args.UnitPrice})
	c.Total += int64(args.Quantity) * args.UnitPrice
	return len(c.Lines), tx.Put(TableCheckout, tx.Key, c)
}

// deleteLineFromCheckout removes an item from the checkout object.
func deleteLineFromCheckout(tx *store.Tx) (any, error) {
	args, ok := tx.Args.(LineArgs)
	if !ok {
		return nil, fmt.Errorf("b2w: DeleteLineFromCheckout wants LineArgs, got %T", tx.Args)
	}
	c, err := loadCheckout(tx)
	if err != nil || c == nil {
		return nil, err
	}
	c = c.clone()
	for i := range c.Lines {
		if c.Lines[i].SKU == args.SKU {
			c.Total -= int64(c.Lines[i].Quantity) * c.Lines[i].UnitPrice
			c.Lines = append(c.Lines[:i], c.Lines[i+1:]...)
			break
		}
	}
	return len(c.Lines), tx.Put(TableCheckout, tx.Key, c)
}

// getCheckout retrieves the checkout object.
func getCheckout(tx *store.Tx) (any, error) {
	c, err := loadCheckout(tx)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, nil
	}
	out := *c
	out.Lines = append([]CartLine(nil), c.Lines...)
	out.Payments = append([]Payment(nil), c.Payments...)
	return &out, nil
}

// deleteCheckout removes the checkout object.
func deleteCheckout(tx *store.Tx) (any, error) {
	return nil, tx.Delete(TableCheckout, tx.Key)
}
