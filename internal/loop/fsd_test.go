package loop

import "testing"

// TestRuntimeSumsSample pins the one sums-to-sample formula: a scope with
// no traffic, no probe and no device reads as uncongested, and summed
// scopes divide by their summed counts.
func TestRuntimeSumsSample(t *testing.T) {
	if got, want := (RuntimeSums{}).Sample(), (RuntimeSample{ORTT: 1, OPFC: 1}); got != want {
		t.Errorf("idle sample %+v, want %+v", got, want)
	}
	var s RuntimeSums
	s.Add(RuntimeSums{UtilSum: 0.5, ActiveLinks: 1, RTTNormSum: 1.5, RTTCount: 2, PauseFracSum: 0.25, Devices: 2})
	s.Add(RuntimeSums{UtilSum: 1, ActiveLinks: 1, RTTNormSum: 0.5, RTTCount: 2, Devices: 3})
	want := RuntimeSample{OTP: 0.75, ORTT: 0.5, OPFC: 0.95, ActiveLinks: 2, RTTSamples: 4}
	if got := s.Sample(); got != want {
		t.Errorf("sample %+v, want %+v", got, want)
	}
}
