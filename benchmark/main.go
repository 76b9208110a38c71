// Command benchmark is this repository's one benchmark: six named
// workloads, twelve end-to-end metrics, and per-layer metrics measured
// from outside the program (public functions and counters only). See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh                         every workload, full report
//	bash benchmark/run.sh -workload fb_paper      one workload
//	bash benchmark/run.sh -compare a.json b.json  compare two result files
//
// The driver calls it as
// run.sh --workload W --seed N --seconds S --trace 0|1 and reads the JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	size     size
	reps     int
	out      string
}

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only and end with the driver's JSON line (default: all workloads, full report)")
		seed     = flag.Int64("seed", 1, "every generated input derives from this seed")
		secs     = flag.Float64("seconds", 10, "with -reps 0: repeat a workload until set-up plus job time add up to this")
		trace    = flag.String("trace", "0", "0: end-to-end metrics only; 1: also the traced run, micro-drivers and per-layer metrics; any other value: as 1, and write the spans to this file")
		sizeName = flag.String("size", "driver", "job size: paper (ISSUE 12's sizing), driver (same fabrics, 2-4 s per repetition, fits the driver's run cap) or short (smoke tests)")
		reps     = flag.Int("reps", -1, "repetitions per workload, never below 3; 0 repeats until -seconds are filled (default: 0 with -workload, else 5)")
		out      = flag.String("out", "", "write the result file (-compare reads it) here")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: base, then new")
		child    = flag.Bool("child", false, "internal: run one repetition and print it as JSON")
		micro    = flag.Bool("micro", false, "internal, with -child: run the micro-drivers instead of a workload")
		spans    = flag.Bool("spans", false, "internal, with -child: record spans")
		spanFile = flag.String("spanfile", "", "internal, with -spans: append the spans to this file")
		hwm      = flag.Int("hwm", 0, "internal, with -micro: queue length for eventsim.hold_ns")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare wants two result files: base.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	sz, ok := sizes[*sizeName]
	if !ok {
		fatalf("unknown -size %q (have paper, driver, short)", *sizeName)
	}

	if *child {
		tmpDir, err := scratchDir()
		if err != nil {
			fatalf("%v", err)
		}
		// harness.RunAll parallelism for sweep_quick: min(nproc, 4).
		workers := runtime.NumCPU()
		if workers > 4 {
			workers = 4
		}
		var v any
		if *micro {
			v = runMicro(*hwm, tmpDir)
		} else {
			w := workloadByName(*workload)
			if w == nil {
				fatalf("unknown workload %q", *workload)
			}
			v = runRep(w, sz, *seed, *spans, *spanFile, tmpDir, workers, procStart)
		}
		if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
			fatalf("%v", err)
		}
		return
	}

	opt := options{workload: *workload, seed: *seed, seconds: *secs, trace: *trace, size: sz, reps: *reps, out: *out}
	if opt.reps < 0 {
		opt.reps = 5
		if opt.workload != "" {
			opt.reps = 0
		}
	}
	if opt.reps > 0 && opt.reps < 3 {
		opt.reps = 3
	}
	if opt.workload != "" && workloadByName(opt.workload) == nil {
		fatalf("unknown workload %q", opt.workload)
	}
	os.Exit(runBenchmark(opt))
}

// runBenchmark measures the selected workloads in child processes, prints
// the report, and returns the exit code.
func runBenchmark(opt options) int {
	file := resultFile{Meta: metaNow(opt)}
	if opt.trace != "0" && opt.trace != "1" {
		// Traced children append to the span file; start it empty.
		if err := os.WriteFile(opt.trace, nil, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for i := range workloads {
		w := &workloads[i]
		if opt.workload != "" && w.Name != opt.workload {
			continue
		}
		res, err := measure(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		printWorkload(os.Stdout, res)
		file.Workloads = append(file.Workloads, *res)
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, file); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	code := 0
	for i := range file.Workloads {
		if !file.Workloads[i].Correct {
			code = 1
		}
	}
	if opt.workload != "" {
		if err := printDriverLine(os.Stdout, &file.Workloads[0], opt.trace != "0"); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// scratchDir is where a run keeps temporary files (the daemon's WAL):
// .bench_build/tmp under the working directory, so that a driver run
// writes only inside its checkout.
func scratchDir() (string, error) {
	dir := ".bench_build/tmp"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	return dir, nil
}

func metaNow(opt options) resultMeta {
	return resultMeta{
		Size: opt.size.Name, Seed: opt.seed, Reps: opt.reps, Seconds: opt.seconds,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
