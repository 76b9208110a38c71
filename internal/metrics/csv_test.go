package metrics

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/telemetry/series"
)

// failAfter errors once limit bytes have been written — a disk-full
// stand-in to verify flush errors propagate to the caller.
type failAfter struct {
	limit   int
	written int
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		return 0, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteSeriesCSVPropagatesWriteError(t *testing.T) {
	s := series.New("tp", "", 1000)
	for i := 1; i <= 1000; i++ {
		s.Append(int64(eventsim.Time(i)*eventsim.Millisecond), float64(i))
	}
	// Fail at various depths: header, mid-body, and at the final flush.
	for _, limit := range []int{0, 64, 4096} {
		if err := WriteSeriesCSV(&failAfter{limit: limit}, s); !errors.Is(err, errDiskFull) {
			t.Errorf("limit %d: err=%v, want errDiskFull", limit, err)
		}
	}
}

func TestWriteCDFCSVPropagatesWriteError(t *testing.T) {
	points := make([]CDFPoint, 1000)
	for i := range points {
		points[i] = CDFPoint{X: float64(i), P: float64(i) / 1000}
	}
	for _, limit := range []int{0, 64, 4096} {
		if err := WriteCDFCSV(&failAfter{limit: limit}, points); !errors.Is(err, errDiskFull) {
			t.Errorf("limit %d: err=%v, want errDiskFull", limit, err)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a := series.New("tp", "", 3)
	b := series.New("rtt", "", 3)
	for i := 1; i <= 3; i++ {
		at := int64(eventsim.Time(i) * eventsim.Millisecond)
		a.Append(at, float64(i)/10)
		b.Append(at, 1-float64(i)/10)
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header+3", len(lines))
	}
	if lines[0] != "t_ms,tp,rtt" {
		t.Errorf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.000,0.1,0.9") {
		t.Errorf("row 1 %q", lines[1])
	}
}

func TestWriteSeriesCSVValidation(t *testing.T) {
	if err := WriteSeriesCSV(&bytes.Buffer{}); !errors.Is(err, ErrNoSeries) {
		t.Errorf("no series: err=%v, want ErrNoSeries", err)
	}
	a := series.New("a", "", 2)
	a.Append(int64(eventsim.Millisecond), 1)
	b := series.New("b", "", 2)
	if err := WriteSeriesCSV(&bytes.Buffer{}, a, b); !errors.Is(err, ErrMisaligned) {
		t.Errorf("length mismatch: err=%v, want ErrMisaligned", err)
	} else if !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("length mismatch error %v does not name the offending series", err)
	}
	c := series.New("c", "", 2)
	c.Append(int64(2*eventsim.Millisecond), 1)
	if err := WriteSeriesCSV(&bytes.Buffer{}, a, c); !errors.Is(err, ErrMisaligned) {
		t.Errorf("time misalignment: err=%v, want ErrMisaligned", err)
	}
	// Sentinels must stay distinguishable from each other and from
	// unrelated errors.
	if errors.Is(ErrMisaligned, ErrNoSeries) || errors.Is(ErrNoSeries, ErrMisaligned) {
		t.Error("sentinel errors alias each other")
	}
}

func TestWriteCDFCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCDFCSV(&buf, []CDFPoint{{X: 1.5, P: 0.5}, {X: 2, P: 1}}); err != nil {
		t.Fatal(err)
	}
	want := "x,p\n1.5,0.5\n2,1\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}
