// Command paraleon-sim regenerates the paper's tables and figures from
// the simulation harness.
//
// Usage:
//
//	paraleon-sim -exp table2          # one experiment
//	paraleon-sim -exp all             # everything (minutes)
//	paraleon-sim -exp fig7fb -scale medium -horizon 80ms
//	paraleon-sim -exp fig10 -workers 8 -progress
//	paraleon-sim -list
//
// Experiment arms (scheme × workload × setting combinations) are
// independent simulations; -workers spreads them over a worker pool
// (default: all CPUs). Results are bit-identical at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

type experiment struct {
	name string
	desc string
	run  func(scale harness.Scale, horizon eventsim.Time) error
}

// csvDir, when set via -csv, makes timeline/CDF experiments also write
// machine-readable series next to their printed tables.
var csvDir string

// chaosSeed drives the chaos-* experiments' fault scenarios; chaosTrace,
// when set via -chaos-trace, receives their JSON Lines event trace;
// blackboxPath, when set via -blackbox, receives their flight-recorder
// artifact. scaleLabel names the -scale choice for artifact meta.
var (
	chaosSeed    int64
	chaosTrace   string
	blackboxPath string
	scaleLabel   string
)

// chaosTraceWriter opens the -chaos-trace destination, or returns a nil
// writer when tracing is off.
func chaosTraceWriter() (io.Writer, func() error, error) {
	return optionalFile(chaosTrace)
}

// blackboxWriter opens the -blackbox destination, or returns a nil
// writer when the flight recorder is off.
func blackboxWriter() (io.Writer, func() error, error) {
	return optionalFile(blackboxPath)
}

func optionalFile(path string) (io.Writer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func experiments() []experiment {
	out := os.Stdout
	return []experiment{
		{"table2", "alltoall bandwidth: default vs expert (Table II)", func(s harness.Scale, _ eventsim.Time) error {
			r, err := harness.Table2(s, 6, []int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig5", "single-parameter impacts (Fig 5)", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.Fig5(s, h)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig6", "inter-parameter impacts (Fig 6)", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.Fig6(s, h)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig7fb", "FB_Hadoop FCT slowdowns, 5 schemes (Fig 7a,b)", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.Fig7FB(s, harness.AllSchemes(), 0.3, h)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig7llm", "LLM training FCT tails (Fig 7c,d)", func(s harness.Scale, _ eventsim.Time) error {
			r, err := harness.Fig7LLM(s, harness.AllSchemes(), []int{4, 6}, 1<<20, 4)
			if err != nil {
				return err
			}
			r.Fprint(out)
			if csvDir != "" {
				return r.WriteCDFCSVs(csvDir, "fig7llm")
			}
			return nil
		}},
		{"fig8", "workload influx timeline, 5 schemes (Fig 8)", func(s harness.Scale, _ eventsim.Time) error {
			r, err := harness.RunInflux(s, harness.AllSchemes(), harness.DefaultInfluxSpec())
			if err != nil {
				return err
			}
			r.Fprint(out)
			if csvDir != "" {
				return r.WriteCSVs(csvDir, "fig8")
			}
			return nil
		}},
		{"fig9", "pretrained statics vs adaptive Paraleon (Fig 9)", func(s harness.Scale, _ eventsim.Time) error {
			spec := harness.DefaultInfluxSpec()
			p1, p2, err := harness.PretrainedSchemes(s, spec)
			if err != nil {
				return err
			}
			r, err := harness.RunInflux(s, []harness.Scheme{p1, p2, harness.ParaleonScheme()}, spec)
			if err != nil {
				return err
			}
			r.Fprint(out)
			if csvDir != "" {
				return r.WriteCSVs(csvDir, "fig9")
			}
			return nil
		}},
		{"fig10", "monitoring designs: accuracy & FCT (Fig 10)", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.Fig10(s, []float64{0.3, 0.5, 0.7}, h)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig11", "monitor-interval sweep (Fig 11)", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.Fig11(s, []float64{1, 2, 4, 8}, 0.3, h)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig12", "SA convergence: guided+relaxed vs naive (Fig 12)", func(s harness.Scale, h eventsim.Time) error {
			horizon := h
			if horizon < 350*eventsim.Millisecond {
				// Long enough for the Table III session (~280 intervals)
				// to complete.
				horizon = 350 * eventsim.Millisecond
			}
			r, err := harness.Fig12(s, horizon)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig13", "testbed-mode alltoall bandwidth (Fig 13)", func(s harness.Scale, _ eventsim.Time) error {
			r, err := harness.Fig13(s, []int{4, 6, 8}, 1<<20, 100*eventsim.Millisecond)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"fig14", "testbed-mode influx with SolarRPC (Fig 14)", func(s harness.Scale, _ eventsim.Time) error {
			r, err := harness.Fig14(s, harness.TestbedInfluxSpec())
			if err != nil {
				return err
			}
			r.Fprint(out)
			if csvDir != "" {
				return r.WriteCSVs(csvDir, "fig14")
			}
			return nil
		}},
		{"table4", "control-plane overheads (Table IV)", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.Table4(s, h)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"chaos-linkflap", "fabric uplink flaps; utility regression rolls parameters back", func(s harness.Scale, h eventsim.Time) error {
			w, closeTrace, err := chaosTraceWriter()
			if err != nil {
				return err
			}
			bb, closeBB, err := blackboxWriter()
			if err != nil {
				return err
			}
			cfg := harness.ChaosLinkFlapConfig(s, h, chaosSeed, w)
			cfg.Blackbox, cfg.ScaleLabel = bb, scaleLabel
			r, err := harness.RunChaos(cfg)
			if err != nil {
				return err
			}
			r.Fprint(out)
			if err := closeTrace(); err != nil {
				return err
			}
			return closeBB()
		}},
		{"chaos-agentcrash", "agent crash+restart; quorum freeze spans the outage", func(s harness.Scale, h eventsim.Time) error {
			w, closeTrace, err := chaosTraceWriter()
			if err != nil {
				return err
			}
			bb, closeBB, err := blackboxWriter()
			if err != nil {
				return err
			}
			cfg := harness.ChaosAgentCrashConfig(s, h, chaosSeed, w)
			cfg.Blackbox, cfg.ScaleLabel = bb, scaleLabel
			r, err := harness.RunChaos(cfg)
			if err != nil {
				return err
			}
			r.Fprint(out)
			if err := closeTrace(); err != nil {
				return err
			}
			return closeBB()
		}},
		{"chaos-ctrlpartition", "TCP control plane under frame faults + controller restart", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.ChaosCtrlPartition(s, h, chaosSeed)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
		{"chaos-dispatch", "controller killed mid-canary; WAL replay converges the fabric to one epoch", func(s harness.Scale, h eventsim.Time) error {
			w, closeTrace, err := chaosTraceWriter()
			if err != nil {
				return err
			}
			bb, closeBB, err := blackboxWriter()
			if err != nil {
				return err
			}
			r, err := harness.ChaosDispatchCrashBlackbox(s, h, chaosSeed, w, bb)
			if err != nil {
				return err
			}
			r.Fprint(out)
			if err := closeTrace(); err != nil {
				return err
			}
			return closeBB()
		}},
		{"tuner-shootout", "every tuning strategy raced across alltoall, incast, and chaos-linkflap", func(s harness.Scale, h eventsim.Time) error {
			r, err := harness.TunerShootout(s, h, chaosSeed)
			if err != nil {
				return err
			}
			r.Fprint(out)
			return nil
		}},
	}
}

// validateFlags rejects meaningless flag combinations up front, before
// any experiment spends minutes of compute. set holds the names of flags
// the user passed explicitly.
func validateFlags(exp string, workers int, horizon time.Duration, set map[string]bool) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", workers)
	}
	if horizon <= 0 {
		return fmt.Errorf("-horizon must be positive, got %v", horizon)
	}
	if set["telemetry-hold"] && !set["telemetry-addr"] {
		return fmt.Errorf("-telemetry-hold requires -telemetry-addr (nothing would serve the held endpoints)")
	}
	if exp == "" {
		return nil // listing mode; experiment-specific flags are moot
	}
	isChaos := strings.HasPrefix(exp, "chaos-")
	if set["chaos-trace"] && exp == "all" {
		return fmt.Errorf("-chaos-trace cannot be combined with -exp all: each chaos experiment would overwrite the trace file; pick one chaos-* experiment")
	}
	if set["blackbox"] && exp == "all" {
		return fmt.Errorf("-blackbox cannot be combined with -exp all: each chaos experiment would overwrite the artifact; pick one chaos-* experiment")
	}
	if set["blackbox"] && (!isChaos || exp == "chaos-ctrlpartition") {
		return fmt.Errorf("-blackbox only applies to the in-simulation chaos-* experiments (chaos-linkflap, chaos-agentcrash, chaos-dispatch), not %q", exp)
	}
	// tuner-shootout embeds the chaos-linkflap scenario, so it accepts a
	// scenario seed too (but not a trace destination).
	if set["chaos-seed"] && exp != "all" && !isChaos && exp != "tuner-shootout" {
		return fmt.Errorf("-chaos-seed only applies to chaos-* experiments and tuner-shootout, not %q", exp)
	}
	if set["chaos-trace"] && exp != "all" && !isChaos {
		return fmt.Errorf("-chaos-trace only applies to chaos-* experiments, not %q", exp)
	}
	if set["tuner"] && exp == "tuner-shootout" {
		return fmt.Errorf("-tuner does not apply to tuner-shootout: it always races every registered strategy")
	}
	return nil
}

func main() {
	exp := flag.String("exp", "", "experiment to run (see -list), or 'all'")
	scaleName := flag.String("scale", "quick", "fabric scale: quick | medium | paper")
	horizon := flag.Duration("horizon", 40*time.Millisecond, "measurement horizon (virtual time)")
	list := flag.Bool("list", false, "list experiments and exit")
	csv := flag.String("csv", "", "directory for CSV series output (timeline/CDF experiments)")
	workers := flag.Int("workers", 0, "experiment arms run in parallel (0 = all CPUs, 1 = sequential)")
	progress := flag.Bool("progress", false, "print per-arm completion progress to stderr")
	tunerName := flag.String("tuner", "", "tuning strategy for Paraleon arms: "+strings.Join(tuner.Names(), " | ")+" (default sa)")
	seed := flag.Int64("chaos-seed", 1, "fault scenario seed for chaos-* experiments")
	ctrace := flag.String("chaos-trace", "", "file for the chaos experiments' JSONL event trace")
	blackbox := flag.String("blackbox", "", "file for the chaos experiments' flight-recorder artifact (read with paraleon-analyze)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /debug/status and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
	telemetryHold := flag.Duration("telemetry-hold", 0, "keep the telemetry server up this long after experiments finish (requires -telemetry-addr)")
	report := flag.Bool("report", false, "print a telemetry run summary after experiments finish")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(*exp, *workers, *horizon, set); err != nil {
		fmt.Fprintf(os.Stderr, "paraleon-sim: %v\n", err)
		os.Exit(2)
	}
	if *tunerName != "" {
		known := false
		for _, n := range tuner.Names() {
			known = known || n == *tunerName
		}
		if !known {
			fmt.Fprintf(os.Stderr, "paraleon-sim: -tuner: unknown strategy %q (have %s)\n",
				*tunerName, strings.Join(tuner.Names(), ", "))
			os.Exit(2)
		}
	}
	csvDir = *csv
	chaosSeed = *seed
	chaosTrace = *ctrace
	blackboxPath = *blackbox
	scaleLabel = *scaleName

	var telemetrySrv *telemetry.HTTPServer
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(nil, *telemetryAddr, telemetry.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "paraleon-sim: telemetry: %v\n", err)
			os.Exit(1)
		}
		telemetrySrv = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	// finish runs after the experiments on every successful path: emit
	// the -report summary, then hold the telemetry endpoints up for
	// scrapers before shutting down.
	finish := func() {
		if *report {
			telemetry.Default().BuildReport().Fprint(os.Stdout)
		}
		if telemetrySrv != nil {
			if *telemetryHold > 0 {
				fmt.Fprintf(os.Stderr, "telemetry: holding endpoints for %v\n", *telemetryHold)
				time.Sleep(*telemetryHold)
			}
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			telemetrySrv.Shutdown(shutCtx)
		}
	}

	exps := experiments()
	if *list || *exp == "" {
		fmt.Println("experiments:")
		names := make([]string, 0, len(exps))
		byName := map[string]experiment{}
		for _, e := range exps {
			names = append(names, e.name)
			byName[e.name] = e
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-10s %s\n", n, byName[n].desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var scale harness.Scale
	switch *scaleName {
	case "quick":
		scale = harness.QuickScale()
	case "medium":
		scale = harness.MediumScale()
	case "paper":
		scale = harness.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	scale.Workers = *workers
	scale.Net.Tuner = *tunerName
	scale.Progress = func(st harness.ArmStatus) {
		if !*progress {
			return
		}
		status := "ok"
		if st.Err != nil {
			status = "FAILED"
		}
		fmt.Fprintf(os.Stderr, "  arm %d/%d (%s) %s in %v\n",
			st.Done, st.Total, st.Scheme, status, st.Wall.Round(time.Millisecond))
	}
	h := eventsim.Time(horizon.Nanoseconds())

	run := func(e experiment) {
		fmt.Printf("== %s: %s (scale=%s)\n", e.name, e.desc, *scaleName)
		start := time.Now()
		if err := e.run(scale, h); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range exps {
			run(e)
		}
		finish()
		return
	}
	for _, e := range exps {
		if e.name == *exp {
			run(e)
			finish()
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
	os.Exit(2)
}
