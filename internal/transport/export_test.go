package transport

// Lag returns the primary's durable bytes the follower has not acked: the
// transport tests' barrier for a drained shipper.
func (s *Shipper) Lag() int64 {
	s.mu.Lock()
	cur := s.acked
	s.mu.Unlock()
	return s.cfg.RM.ShipLag(cur)
}
