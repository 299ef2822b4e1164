package b2w

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pstore/internal/wal"
)

// codecRows are rows of all four types at their corners: zero values, nil and
// empty slices, extreme integers and strings that are not ASCII (or UTF-8).
func codecRows() []wal.Row {
	line := CartLine{SKU: "sku-ü", Quantity: math.MinInt64, UnitPrice: math.MaxInt64, Reserved: true}
	return []wal.Row{
		&Cart{},
		&Cart{ID: "cart-00000001", Customer: "cliente-ação", Lines: []CartLine{}, Total: -1},
		&Cart{Lines: []CartLine{line, {}}, Total: math.MinInt64},
		&Checkout{},
		&Checkout{Lines: []CartLine{}, Payments: []Payment{}},
		&Checkout{ID: "checkout-1", CartID: "cart-日本", Lines: []CartLine{line}, Payments: []Payment{{Method: "boleto", Amount: math.MaxInt64}, {}}, Total: math.MinInt64},
		&Checkout{Payments: []Payment{{Method: "\xff\xfe"}}},
		&StockItem{},
		&StockItem{SKU: "sku-€", Available: math.MaxInt, Reserved: math.MinInt, Purchased: -1},
		&StockTransaction{},
		&StockTransaction{ID: "stocktx-1", CartID: "\x00", SKU: "sku-ø", Quantity: math.MinInt, Status: StockTxCancelled},
	}
}

// TestRowCodecRoundTrip: every row type decodes to exactly what it encoded —
// nil and empty slices apart, integers at their extremes, strings byte for
// byte — refuses its encoding cut short or with a byte over, and comes back
// typed from an image set.
func TestRowCodecRoundTrip(t *testing.T) {
	tables := map[string]any{}
	for i, row := range codecRows() {
		enc, err := row.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%T %+v: %v", row, row, err)
		}
		got := reflect.New(reflect.TypeOf(row).Elem()).Interface().(wal.Row)
		if err := got.UnmarshalBinary(enc); err != nil || !reflect.DeepEqual(got, row) {
			t.Fatalf("%T %+v decodes as %+v (err %v)", row, row, got, err)
		}
		for n := 0; n < len(enc); n++ {
			if got.UnmarshalBinary(enc[:n]) == nil {
				t.Fatalf("%T %+v: its encoding cut at %d of %d bytes decoded", row, row, n, len(enc))
			}
		}
		if got.UnmarshalBinary(append(enc, 0)) == nil {
			t.Fatalf("%T %+v: its encoding with a trailing byte decoded", row, row)
		}
		tables[fmt.Sprint(i)] = row
	}
	set, err := wal.EncodeImageSet(nil, []*wal.Image{{Bucket: 1, Rows: len(tables), Tables: map[string]map[string]any{TableCart: tables}}})
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := wal.DecodeImages(set)
	if err != nil || len(imgs) != 1 || !reflect.DeepEqual(imgs[0].Tables[TableCart], tables) {
		t.Fatalf("image of every row type decodes as %+v (err %v)", imgs, err)
	}
}

// FuzzRowDecode: UnmarshalBinary never panics on any bytes, and a row that
// decodes re-encodes to exactly those bytes.
func FuzzRowDecode(f *testing.F) {
	for _, row := range codecRows() {
		enc, _ := row.AppendBinary(nil)
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00}) // zero, not in its shortest form
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, row := range []wal.Row{new(Cart), new(Checkout), new(StockItem), new(StockTransaction)} {
			if row.UnmarshalBinary(data) != nil {
				continue
			}
			if again, err := row.AppendBinary(nil); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("%T decoded from %x re-encodes as %x (err %v)", row, data, again, err)
			}
		}
	})
}

// TestKeysMatchFmt: the keys are what fmt's zero padding printed, for every
// int — wider than the padding, negative, at the extremes.
func TestKeysMatchFmt(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 42, 1234567, 12345678, 99999999, 100000000, 123456789,
		-1, -9, -12, -123456, -1234567, -12345678, -123456789, math.MaxInt, math.MinInt, math.MinInt + 1} {
		for _, c := range []struct{ got, want string }{
			{CartKey(i), fmt.Sprintf("cart-%08d", i)},
			{CheckoutKey(i), fmt.Sprintf("checkout-%08d", i)},
			{StockKey(i), fmt.Sprintf("sku-%08d", i)},
			{StockTxKey(i), fmt.Sprintf("stocktx-%08d", i)},
			{paddedKey("customer-", i, 6), fmt.Sprintf("customer-%06d", i)},
		} {
			if c.got != c.want {
				t.Errorf("key of %d is %q, fmt prints %q", i, c.got, c.want)
			}
		}
	}
}
