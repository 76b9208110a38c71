package metrics

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/eventsim"
	"repro/internal/telemetry/series"
)

// Sentinel errors for WriteSeriesCSV input validation; wrapped errors
// carry the offending series, so callers branch with errors.Is.
var (
	// ErrNoSeries means WriteSeriesCSV was called with nothing to write.
	ErrNoSeries = errors.New("metrics: no series")
	// ErrMisaligned means the series disagree on length or sample times
	// and cannot share one time column.
	ErrMisaligned = errors.New("metrics: series misaligned")
)

// WriteSeriesCSV exports one or more time series as CSV with a shared
// time column (milliseconds). Series must be aligned: same length and
// sample times (which the harness guarantees for series from one run);
// violations are reported as errors wrapping ErrMisaligned.
func WriteSeriesCSV(w io.Writer, ss ...*series.Series) error {
	if len(ss) == 0 {
		return ErrNoSeries
	}
	n := ss[0].Len()
	for _, s := range ss[1:] {
		if s.Len() != n {
			return fmt.Errorf("%w: series %q has %d samples, want %d", ErrMisaligned, s.Name(), s.Len(), n)
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(ss)+1)
	header = append(header, "t_ms")
	for i, s := range ss {
		name := s.Name()
		if name == "" {
			name = fmt.Sprintf("series%d", i)
		}
		header = append(header, name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < n; i++ {
		t0, _ := ss[0].At(i)
		row[0] = strconv.FormatFloat(eventsim.Time(t0).Millis(), 'f', 3, 64)
		for j, s := range ss {
			t, v := s.At(i)
			if t != t0 {
				return fmt.Errorf("%w: series %q at sample %d", ErrMisaligned, s.Name(), i)
			}
			row[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCDFCSV exports an empirical CDF.
func WriteCDFCSV(w io.Writer, points []CDFPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "p"}); err != nil {
		return err
	}
	for _, pt := range points {
		if err := cw.Write([]string{
			strconv.FormatFloat(pt.X, 'g', -1, 64),
			strconv.FormatFloat(pt.P, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
