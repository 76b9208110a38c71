package series

// Offered reports the total samples offered via Append, stored or not.
func (s *Series) Offered() int64 { return s.offered }

// Stride reports how many offered samples one stored sample stands
// for (1 until the first overflow, then 2, 4, ...).
func (s *Series) Stride() int { return s.stride }
