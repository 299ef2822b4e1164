package transport

import "context"

// FollowerHolds reports whether the follower's /v1/repl/status shows it has
// received every record the primary's log has made durable: the transport
// tests' barrier for a drained shipper, the same comparison of cursors an
// operator makes.
func (s *Shipper) FollowerHolds(ctx context.Context) (bool, error) {
	end, err := s.cfg.RM.ShipEnd()
	if err != nil {
		return false, err
	}
	st, err := s.cfg.Follower.ReplStatus(ctx)
	if err != nil {
		return false, err
	}
	return st.Received.Seg == end.Seg && st.Received.Rec == end.Rec, nil
}

// Shipped returns the count of successfully acknowledged batches.
func (s *Shipper) Shipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}

// ShipOnce is shipOnce without the wake channel: the deterministic stepping
// primitive the chaos suite drives directly.
func (s *Shipper) ShipOnce(ctx context.Context) (int, error) {
	n, _, err := s.shipOnce(ctx)
	return n, err
}
