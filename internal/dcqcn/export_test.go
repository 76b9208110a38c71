package dcqcn

// TargetRate reports the target rate in bps.
func (rp *RP) TargetRate() float64 { return rp.rt }

// Running reports whether the RP is started.
func (rp *RP) Running() bool { return rp.running }
