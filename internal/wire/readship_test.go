package wire

import "io"

// ReadShipBatch reads and validates one ship-batch frame, as a follower's
// handler takes it: ReadFrame, then DecodeShipBatch. A clean EOF before any
// byte returns io.EOF.
func ReadShipBatch(r io.Reader) (*ShipBatch, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return DecodeShipBatch(payload)
}
