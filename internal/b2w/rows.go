package b2w

import "pstore/internal/wal"

// Row codecs. Every checkpoint image set, follower sync body and migrated
// chunk (internal/wal) carries the four row types, by pointer, encoded by the
// methods below: the fields in declaration order, a slice behind a flag that
// tells nil from empty, so a row decodes to what was encoded. Transaction
// arguments are JSON (wire.go): the command log and the wire carry them as
// submitted.
func init() {
	wal.RegisterRow("b2w.Cart", func() wal.Row { return new(Cart) })
	wal.RegisterRow("b2w.Checkout", func() wal.Row { return new(Checkout) })
	wal.RegisterRow("b2w.StockItem", func() wal.Row { return new(StockItem) })
	wal.RegisterRow("b2w.StockTransaction", func() wal.Row { return new(StockTransaction) })
}

// AppendBinary appends the cart's encoding to b.
func (c *Cart) AppendBinary(b []byte) ([]byte, error) {
	b = appendSlice(wal.AppendString(wal.AppendString(b, c.ID), c.Customer), c.Lines, appendLine)
	return wal.AppendInt(b, c.Total), nil
}

// UnmarshalBinary decodes what AppendBinary wrote.
func (c *Cart) UnmarshalBinary(data []byte) error {
	r := wal.NewRowReader(data)
	*c = Cart{ID: r.Str(), Customer: r.Str(), Lines: readSlice(&r, 4, readLine), Total: r.Int64()}
	return r.Close()
}

// AppendBinary appends the checkout's encoding to b.
func (c *Checkout) AppendBinary(b []byte) ([]byte, error) {
	b = appendSlice(wal.AppendString(wal.AppendString(b, c.ID), c.CartID), c.Lines, appendLine)
	b = appendSlice(b, c.Payments, func(b []byte, p Payment) []byte {
		return wal.AppendInt(wal.AppendString(b, p.Method), p.Amount)
	})
	return wal.AppendInt(b, c.Total), nil
}

// UnmarshalBinary decodes what AppendBinary wrote.
func (c *Checkout) UnmarshalBinary(data []byte) error {
	r := wal.NewRowReader(data)
	*c = Checkout{ID: r.Str(), CartID: r.Str(), Lines: readSlice(&r, 4, readLine),
		Payments: readSlice(&r, 2, func(r *wal.RowReader) Payment { return Payment{r.Str(), r.Int64()} }),
		Total:    r.Int64()}
	return r.Close()
}

// AppendBinary appends the stock item's encoding to b.
func (s *StockItem) AppendBinary(b []byte) ([]byte, error) {
	b = wal.AppendInt(wal.AppendInt(wal.AppendString(b, s.SKU), int64(s.Available)), int64(s.Reserved))
	return wal.AppendInt(b, int64(s.Purchased)), nil
}

// UnmarshalBinary decodes what AppendBinary wrote.
func (s *StockItem) UnmarshalBinary(data []byte) error {
	r := wal.NewRowReader(data)
	*s = StockItem{SKU: r.Str(), Available: int(r.Int64()), Reserved: int(r.Int64()), Purchased: int(r.Int64())}
	return r.Close()
}

// AppendBinary appends the stock transaction's encoding to b.
func (st *StockTransaction) AppendBinary(b []byte) ([]byte, error) {
	b = wal.AppendString(wal.AppendString(wal.AppendString(b, st.ID), st.CartID), st.SKU)
	return wal.AppendString(wal.AppendInt(b, int64(st.Quantity)), st.Status), nil
}

// UnmarshalBinary decodes what AppendBinary wrote.
func (st *StockTransaction) UnmarshalBinary(data []byte) error {
	r := wal.NewRowReader(data)
	*st = StockTransaction{ID: r.Str(), CartID: r.Str(), SKU: r.Str(), Quantity: int(r.Int64()), Status: r.Str()}
	return r.Close()
}

func appendLine(b []byte, l CartLine) []byte {
	b = wal.AppendInt(wal.AppendInt(wal.AppendString(b, l.SKU), int64(l.Quantity)), l.UnitPrice)
	return wal.AppendBool(b, l.Reserved)
}

func readLine(r *wal.RowReader) CartLine {
	return CartLine{SKU: r.Str(), Quantity: int(r.Int64()), UnitPrice: r.Int64(), Reserved: r.Bool()}
}

// appendSlice appends whether s is nil and, if not, its length and elements.
func appendSlice[T any](b []byte, s []T, elem func([]byte, T) []byte) []byte {
	if b = wal.AppendBool(b, s != nil); s != nil {
		b = wal.AppendUint(b, uint64(len(s)))
		for _, v := range s {
			b = elem(b, v)
		}
	}
	return b
}

// readSlice reads what appendSlice wrote, of elements of at least min bytes.
func readSlice[T any](r *wal.RowReader, min int, elem func(*wal.RowReader) T) []T {
	if !r.Bool() {
		return nil
	}
	s := make([]T, r.Count(min))
	for i := range s {
		s[i] = elem(r)
	}
	return s
}
