package harness

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry/series"
)

// An Experiment is one entry of the experiment table (Experiments): a set
// of arms, each run once per seed and measured into the cells of a Table.
type Experiment struct {
	Name, Desc string
	// Ref names the row every other row is paired with, seed by seed,
	// when the experiment runs more than one seed ("" pairs nothing).
	Ref string
	// Arms lays the experiment out for one setup.
	Arms func(x Setup) []Arm
}

// Setup is what one invocation fixes for every arm of an experiment.
type Setup struct {
	Scale Scale
	// Horizon is the measurement horizon of the experiments that take one.
	Horizon eventsim.Time
	// Seeds are the fabric seeds every arm runs at, all schemes of one seed
	// under the same seed; none means Scale.Net.Seed alone.
	Seeds []int64
	// ChaosSeed seeds the chaos experiments' fault scenarios.
	ChaosSeed int64
	// Trace and Blackbox, when set, receive the in-simulation chaos
	// experiments' JSONL event trace and flight-recorder artifact;
	// ScaleLabel names the scale in the artifact.
	Trace, Blackbox io.Writer
	ScaleLabel      string
	// CSVDir, when set, receives every arm's throughput and normalized-RTT
	// timeline as <experiment>_<row>[_<key>][_s<seed>].csv, and each Fig
	// 7(c,d) arm's FCT CDF beside it with the suffix _cdf.
	CSVDir string
	// Parallel spreads the arms × seeds over a worker pool.
	Parallel ParallelOptions

	exp string // the experiment being laid out: CSV names, one-arm rows
}

// An Arm is one simulation of an experiment; its cells land in row Row.
// Key tells apart the arms of one row in a sweep.
type Arm struct {
	Row, Key string
	Run      func(seed int64) ([]Cell, error)
}

// A Cell is one measured value: column Col of table section Section.
type Cell struct {
	Section, Col string
	V            float64
}

// Incomplete is the column of flows that started and had no completion
// record when a drained run ended. A section prints it last, summed over
// the row's arms, so a table whose drain was cut says so.
const Incomplete = "incomplete"

// Table is an experiment's result: sections of rows × columns with one
// value per seed in every cell.
type Table struct {
	// Ref is the row the others are paired with.
	Ref string
	// Seeds are the seeds every cell holds one value for, in order.
	Seeds    []int64
	sections []*section
	vals     map[[3]string][]float64 // section, row, col → per seed
}

type section struct {
	title      string
	rows, cols []string
	incomplete bool
}

// RunExperiment runs every arm of e at every seed of x through the worker
// pool and gathers the cells. They are gathered in arm and seed order, so
// the table does not depend on the worker count.
func RunExperiment(e Experiment, x Setup) (*Table, error) {
	seeds := x.Seeds
	if len(seeds) == 0 {
		seeds = []int64{x.Scale.Net.Seed}
	}
	x.exp = e.Name
	arms := e.Arms(x)
	ns := len(seeds)
	cells := make([][]Cell, len(arms)*ns)
	label := func(i int) string {
		a := arms[i/ns]
		if a.Key != "" {
			return a.Row + " " + a.Key
		}
		return a.Row
	}
	err := pool(len(cells), x.Parallel, label, func(i int) (err error) {
		cells[i], err = arms[i/ns].Run(seeds[i%ns])
		return err
	})
	if err != nil {
		return nil, err
	}
	t := &Table{Ref: e.Ref, Seeds: seeds, vals: map[[3]string][]float64{}}
	for i, cs := range cells {
		for _, c := range cs {
			t.add(arms[i/ns].Row, i%ns, c)
		}
	}
	return t, nil
}

// add files c under row at seed index seed; cells that meet in one place
// add up.
func (t *Table) add(row string, seed int, c Cell) {
	i := slices.IndexFunc(t.sections, func(s *section) bool { return s.title == c.Section })
	if i < 0 {
		i = len(t.sections)
		t.sections = append(t.sections, &section{title: c.Section})
	}
	s := t.sections[i]
	if !slices.Contains(s.rows, row) {
		s.rows = append(s.rows, row)
	}
	if c.Col == Incomplete {
		s.incomplete = true
	} else if !slices.Contains(s.cols, c.Col) {
		s.cols = append(s.cols, c.Col)
	}
	k := [3]string{c.Section, row, c.Col}
	if t.vals[k] == nil {
		t.vals[k] = make([]float64, len(t.Seeds))
	}
	t.vals[k][seed] += c.V
}

// Values returns a cell's value at every seed, nil if it was never
// measured.
func (t *Table) Values(section, row, col string) []float64 {
	return t.vals[[3]string{section, row, col}]
}

// Mean is a cell's mean over the seeds (NaN if it was never measured).
func (t *Table) Mean(section, row, col string) float64 {
	return metrics.Mean(t.Values(section, row, col))
}

// Paired summarizes one row's per-seed differences from the reference
// row in one column: their median and quartiles, and on how many seeds
// the row came out below and above the reference.
type Paired struct {
	Median, Q1, Q3 float64
	Below, Above   int
}

// Pair pairs row with the table's reference row, seed by seed.
func (t *Table) Pair(section, row, col string) Paired {
	a, b := t.Values(section, row, col), t.Values(section, t.Ref, col)
	var d []float64
	var p Paired
	for i := range a {
		if i >= len(b) || math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			continue
		}
		d = append(d, a[i]-b[i])
		switch {
		case a[i] < b[i]:
			p.Below++
		case a[i] > b[i]:
			p.Above++
		}
	}
	p.Median = metrics.Percentile(d, 0.5)
	p.Q1, p.Q3 = metrics.Percentile(d, 0.25), metrics.Percentile(d, 0.75)
	return p
}

func (s *section) columns() []string {
	if s.incomplete {
		return append(slices.Clip(s.cols), Incomplete)
	}
	return s.cols
}

// Fprint renders every section: a section with one row as a ledger of
// "column: value" lines (followed by each seed's value when there are
// several), any other as rows × columns of seed means. With
// several seeds and a reference row, each section is followed by every
// other row's paired comparison with the reference.
func (t *Table) Fprint(w io.Writer) {
	for _, s := range t.sections {
		cols := s.columns()
		title := s.title
		if len(t.Seeds) > 1 {
			title += fmt.Sprintf(" (mean of %d seeds)", len(t.Seeds))
		}
		fmt.Fprintf(w, " %s:\n", title)
		format := make([]func(float64) string, len(cols))
		for j, c := range cols {
			format[j] = t.formatter(s, c)
		}
		if len(s.rows) == 1 {
			for j, c := range cols {
				fmt.Fprintf(w, "  %s: %s", c, format[j](t.Mean(s.title, s.rows[0], c)))
				if len(t.Seeds) > 1 {
					fmt.Fprint(w, "  by seed:")
					for _, v := range t.Values(s.title, s.rows[0], c) {
						fmt.Fprint(w, " ", format[j](v))
					}
				}
				fmt.Fprintln(w)
			}
			continue
		}
		rw := 10
		for _, r := range s.rows {
			rw = max(rw, len(r))
		}
		fmt.Fprintf(w, "  %-*s", rw, "")
		for _, c := range cols {
			fmt.Fprintf(w, " %9s", c)
		}
		fmt.Fprintln(w)
		for _, r := range s.rows {
			fmt.Fprintf(w, "  %-*s", rw, r)
			for j, c := range cols {
				fmt.Fprintf(w, " %*s", max(9, len(c)), format[j](t.Mean(s.title, r, c)))
			}
			fmt.Fprintln(w)
		}
		t.fprintPaired(w, s, rw)
	}
}

func (t *Table) fprintPaired(w io.Writer, s *section, rw int) {
	if len(t.Seeds) < 2 || !slices.Contains(s.rows, t.Ref) {
		return
	}
	fmt.Fprintf(w, "  paired against %s over %d seeds: median difference [quartiles], seeds below / above:\n", t.Ref, len(t.Seeds))
	for _, r := range s.rows {
		if r == t.Ref {
			continue
		}
		for _, c := range s.cols {
			p := t.Pair(s.title, r, c)
			fmt.Fprintf(w, "  %-*s %-10s %+.3f [%+.3f, %+.3f]  %d / %d\n", rw, r, c, p.Median, p.Q1, p.Q3, p.Below, p.Above)
		}
	}
}

// formatter prints a column's integral values as integers when every
// seed's value in it is one, and everything else with three decimals.
func (t *Table) formatter(s *section, col string) func(float64) string {
	whole := true
	for _, r := range s.rows {
		for _, v := range t.Values(s.title, r, col) {
			whole = whole && (math.IsNaN(v) || v == math.Trunc(v))
		}
	}
	return func(v float64) string {
		switch {
		case math.IsNaN(v):
			return "-"
		case whole && v == math.Trunc(v):
			return strconv.FormatFloat(v, 'f', 0, 64)
		}
		return strconv.FormatFloat(v, 'f', 3, 64)
	}
}

// seeded is the setup's scale with the fabric seeded by seed.
func (x Setup) seeded(seed int64) Scale {
	s := x.Scale
	s.Net.Seed = seed
	return s
}

// network builds the setup's fabric at seed with every device on p.
func (x Setup) network(seed int64, p dcqcn.Params) (*sim.Network, error) {
	cfg := x.seeded(seed).Net
	cfg.Params = p
	return sim.New(cfg)
}

// sim is the arm that runs cfg at each seed, in row cfg.Scheme.Name, and
// measures the result.
func (x Setup) sim(key string, cfg RunConfig, measure func(*Result) []Cell) Arm {
	return Arm{Row: cfg.Scheme.Name, Key: key, Run: func(seed int64) ([]Cell, error) {
		r, err := x.run(cfg, key, seed)
		if err != nil {
			return nil, err
		}
		return measure(r), nil
	}}
}

// run runs cfg through Run at seed and writes its timeline.
func (x Setup) run(cfg RunConfig, key string, seed int64) (*Result, error) {
	cfg.Net.Seed = seed
	r, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	return r, x.timeline(cfg.Scheme.Name, key, seed, r.TP, r.RTT)
}

// timeline writes one arm's throughput and normalized-RTT series to
// CSVDir, when it is set.
func (x Setup) timeline(row, key string, seed int64, tp, rtt *series.Series) error {
	return x.csv(row, key, seed, "", func(w io.Writer) error { return metrics.WriteSeriesCSV(w, tp, rtt) })
}

// cdf writes the CDF of one arm's flow completion times (ms) to CSVDir,
// when it is set.
func (x Setup) cdf(row, key string, seed int64, fcts []float64) error {
	return x.csv(row, key, seed, "_cdf", func(w io.Writer) error { return metrics.WriteCDFCSV(w, metrics.CDF(fcts, 20)) })
}

// csv writes one arm's file <experiment>_<row>[_<key>][_s<seed>]<suffix>.csv
// to CSVDir through write, when CSVDir is set.
func (x Setup) csv(row, key string, seed int64, suffix string, write func(io.Writer) error) error {
	if x.CSVDir == "" {
		return nil
	}
	name := x.exp + "_" + row
	if key != "" {
		name += "_" + key
	}
	if len(x.Seeds) > 1 {
		name += fmt.Sprintf("_s%d", seed)
	}
	if err := os.MkdirAll(x.CSVDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(x.CSVDir, name+suffix+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("harness: write %s: %w", path, err)
	}
	return f.Close()
}
