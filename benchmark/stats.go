package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is a host-time metric over repetitions: median, quartiles as
// Python's statistics.quantiles(values, n=4) gives them, and the samples.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles uses the exclusive method (position p·(n+1), linear
// interpolation, clamped to the sample range), the default of Python's
// statistics.quantiles. With one sample all three are that sample.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(p float64) float64 {
		n := len(v)
		if n == 1 {
			return v[0]
		}
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's peak resident set. It reads VmHWM, which
// belongs to the address space exec created; ru_maxrss also remembers the
// peak of the process that spawned this one (measured: a 7 MB child of a
// 400 MB parent reports 411 MB), so a repetition would inherit its parent's
// size. Without /proc it falls back to ru_maxrss (KB on Linux).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// fnv64 is FNV-1a over 64-bit words, the digest of simulated results.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 1099511628211
		v >>= 8
	}
	*h = fnv64(x)
}

func (h *fnv64) float(f float64) { h.word(math.Float64bits(f)) }
