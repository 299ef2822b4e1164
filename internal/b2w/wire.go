package b2w

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// DecodeArgs is the args decoder Register installs on a b2w engine: it decodes
// a transaction's JSON arguments — from a client request, a command-log
// record or a shipped one — into the concrete value its stored procedure
// type-asserts (absent and null arguments never get here: the engine decodes
// them to nil itself). The bulk-loading procedures are covered too: a cold
// start replays the load from the log.
func DecodeArgs(txn string, raw json.RawMessage) (any, error) {
	switch txn {
	case TxnAddLineToCart, TxnDeleteLineFromCart, TxnAddLineToCheckout, TxnDeleteLineFromCheckout:
		return decodeInto[LineArgs](raw)
	case TxnReserveStock, TxnPurchaseStock, TxnCancelStockReservation:
		return decodeInto[QuantityArgs](raw)
	case TxnCreateStockTransaction:
		return decodeInto[StockTxArgs](raw)
	case TxnUpdateStockTransaction:
		return decodeInto[StatusArgs](raw)
	case TxnCreateCheckout:
		return decodeInto[CheckoutArgs](raw)
	case TxnCreateCheckoutPayment:
		return decodeInto[Payment](raw)
	case TxnGetCart, TxnDeleteCart, TxnReserveCart, TxnGetStock, TxnGetStockQuantity,
		TxnGetStockTransaction, TxnGetCheckout, TxnDeleteCheckout:
		// Argument-free transactions: tolerate an explicit empty object.
		return nil, nil
	case txnLoadCart:
		return decodeInto[Cart](raw)
	case txnLoadCheckout:
		return decodeInto[Checkout](raw)
	case txnLoadStock:
		return decodeInto[StockItem](raw)
	default:
		return nil, fmt.Errorf("b2w: no argument codec for transaction %q", txn)
	}
}

// decodeInto unmarshals raw into a value of T, rejecting unknown fields so
// a client/server schema drift fails loudly instead of zeroing arguments.
func decodeInto[T any](raw json.RawMessage) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}
