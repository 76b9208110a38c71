package series

// Offered reports the total samples offered via Append, stored or not.
func (s *Series) Offered() int64 { return s.offered }
