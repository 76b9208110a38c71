// Command paraleon-sim regenerates the paper's tables and figures, and the
// ablation, extension and chaos runs beyond them, from the experiment
// table in the simulation harness (harness.Experiments).
//
// Usage:
//
//	paraleon-sim -exp table2          # one experiment
//	paraleon-sim -exp all             # everything (minutes)
//	paraleon-sim -exp fig7fb -scale medium -horizon 80ms
//	paraleon-sim -exp fig7fb -seeds 10 # ten seeds, paired against paraleon
//	paraleon-sim -exp fig10 -workers 8 -progress
//	paraleon-sim -list
//
// Experiment arms (scheme × workload × setting combinations, once per
// seed) are independent simulations; -workers spreads them over a worker
// pool (default: all CPUs). Results are bit-identical at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

// validateFlags rejects meaningless flag combinations up front, before
// any experiment spends minutes of compute. set holds the names of flags
// the user passed explicitly.
func validateFlags(exp string, workers, seeds int, horizon time.Duration, set map[string]bool) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", workers)
	}
	if seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", seeds)
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
	for _, f := range []string{"chaos-trace", "blackbox"} {
		if set[f] && exp == "all" {
			return fmt.Errorf("-%s cannot be combined with -exp all: each chaos experiment would overwrite the file; pick one chaos-* experiment", f)
		}
		if set[f] && seeds > 1 {
			return fmt.Errorf("-%s cannot be combined with -seeds %d: every seed would overwrite the file", f, seeds)
		}
	}
	if set["blackbox"] && (!isChaos || exp == "chaos-ctrlpartition") {
		return fmt.Errorf("-blackbox only applies to the in-simulation chaos-* experiments (chaos-linkflap, chaos-agentcrash, chaos-dispatch), not %q", exp)
	}
	// tuner-shootout embeds the chaos-linkflap scenario, so it accepts a
	// scenario seed too (but not a trace destination).
	if set["chaos-seed"] && exp != "all" && !isChaos && exp != "tuner-shootout" {
		return fmt.Errorf("-chaos-seed only applies to chaos-* experiments and tuner-shootout, not %q", exp)
	}
	if set["chaos-trace"] && !isChaos {
		return fmt.Errorf("-chaos-trace only applies to chaos-* experiments, not %q", exp)
	}
	if set["tuner"] && exp == "tuner-shootout" {
		return fmt.Errorf("-tuner does not apply to tuner-shootout: it always races every strategy")
	}
	return nil
}

// create opens path for writing; an empty path is a nil writer.
func create(path string) (io.Writer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func fail(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "paraleon-sim: "+format+"\n", a...)
	os.Exit(code)
}

func main() {
	exp := flag.String("exp", "", "experiment to run (see -list), or 'all'")
	scaleName := flag.String("scale", "quick", "fabric scale: quick | medium | paper")
	horizon := flag.Duration("horizon", 40*time.Millisecond, "measurement horizon (virtual time)")
	list := flag.Bool("list", false, "list experiments and exit")
	csv := flag.String("csv", "", "directory for every arm's throughput/RTT timeline (and fig7llm's FCT CDFs) as CSV")
	workers := flag.Int("workers", 0, "experiment arms run in parallel (0 = all CPUs, 1 = sequential)")
	progress := flag.Bool("progress", false, "print per-arm completion progress to stderr")
	tunerName := flag.String("tuner", "", "tuning strategy for Paraleon arms: "+strings.Join(tuner.Names(), " | ")+" (default sa)")
	seeds := flag.Int("seeds", 1, "run every arm at fabric seeds 1..K and pair each row with the experiment's reference row")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault scenario seed for chaos-* experiments")
	ctrace := flag.String("chaos-trace", "", "file for the chaos experiments' JSONL event trace")
	blackbox := flag.String("blackbox", "", "file for the chaos experiments' flight-recorder artifact (read with paraleon-analyze)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file when the run ends")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /debug/status and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
	telemetryHold := flag.Duration("telemetry-hold", 0, "keep the telemetry server up this long after experiments finish (requires -telemetry-addr)")
	report := flag.Bool("report", false, "print a telemetry run summary after experiments finish")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(*exp, *workers, *seeds, *horizon, set); err != nil {
		fail(2, "%v", err)
	}
	if *tunerName != "" && !strings.Contains(" "+strings.Join(tuner.Names(), " ")+" ", " "+*tunerName+" ") {
		fail(2, "-tuner: unknown strategy %q (have %s)", *tunerName, strings.Join(tuner.Names(), ", "))
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-19s %s\n", e.Name, e.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	exps := harness.Experiments()
	if *exp != "all" {
		e, ok := harness.Lookup(*exp)
		if !ok {
			fail(2, "unknown experiment %q (try -list)", *exp)
		}
		exps = []harness.Experiment{e}
	}
	scale, ok := harness.Scales[*scaleName]
	if !ok {
		fail(2, "unknown scale %q", *scaleName)
	}
	x := harness.Setup{
		Scale:      scale(),
		Horizon:    eventsim.Time(horizon.Nanoseconds()),
		ChaosSeed:  *chaosSeed,
		ScaleLabel: *scaleName,
		CSVDir:     *csv,
		Parallel: harness.ParallelOptions{Workers: *workers, Progress: func(st harness.ArmStatus) {
			if !*progress {
				return
			}
			status := "ok"
			if st.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "  arm %d/%d (%s) %s in %v\n",
				st.Done, st.Total, st.Scheme, status, st.Wall.Round(time.Millisecond))
		}},
	}
	x.Scale.Net.Tuner = *tunerName
	for s := range int64(*seeds) {
		x.Seeds = append(x.Seeds, s+1)
	}
	var closeTrace, closeBB func() error
	var err error
	if x.Trace, closeTrace, err = create(*ctrace); err != nil {
		fail(1, "%v", err)
	}
	if x.Blackbox, closeBB, err = create(*blackbox); err != nil {
		fail(1, "%v", err)
	}

	var telemetrySrv *telemetry.HTTPServer
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(nil, *telemetryAddr, telemetry.Default())
		if err != nil {
			fail(1, "telemetry: %v", err)
		}
		telemetrySrv = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	var cpuFile *os.File
	if *cpuProfile != "" {
		if cpuFile, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(cpuFile)
		}
		if err != nil {
			fail(1, "-cpuprofile: %v", err)
		}
	}

	for _, e := range exps {
		fmt.Printf("== %s: %s (scale=%s)\n", e.Name, e.Desc, *scaleName)
		start := time.Now()
		t, err := harness.RunExperiment(e, x)
		if err != nil {
			fail(1, "%s: %v", e.Name, err)
		}
		t.Fprint(os.Stdout)
		fmt.Printf("-- %s done in %v\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if err := closeTrace(); err != nil {
		fail(1, "%v", err)
	}
	if err := closeBB(); err != nil {
		fail(1, "%v", err)
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fail(1, "-cpuprofile: %v", err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fail(1, "-memprofile: %v", err)
		}
	}

	// Emit the -report summary, then hold the telemetry endpoints up for
	// scrapers before shutting down.
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
