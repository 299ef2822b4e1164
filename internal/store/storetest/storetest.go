// Package storetest holds what the tests of the packages around store share.
package storetest

import "encoding/json"

// Args is the args decoder (store.ArgsDecoder) of a test workload whose every
// procedure takes a T: Args[int] for the key-value fixtures that put ints.
// Passing the typed value in-process and decoding it from a log record or a
// wire request then hand a procedure the same thing.
func Args[T any](_ string, raw json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}
