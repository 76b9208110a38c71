#!/usr/bin/env python3
"""Convert `go test -bench` output to JSON and enforce the perf gate.

Usage: benchjson.py [--require NAME[,NAME...]] BENCH_OUTPUT.txt BENCH.json
       benchjson.py --merge BENCH_trajectory.json BENCH_pr*.json
       benchjson.py --gate [--tol FRAC] BENCH_current.json BENCH_trajectory.json

Parses every benchmark result line into {name, iterations, metrics{unit:
value}} and writes the collection as JSON. The output path is free-form,
so independent gates can publish side by side (BENCH_pr5.json,
BENCH_pr6.json, ...) without clobbering each other. Exits non-zero when:

  * no benchmark lines were found (the bench run silently did nothing), or
  * any --require name has no matching result — a renamed or deleted
    benchmark must fail the gate loudly, not publish a JSON that silently
    stopped covering it, or
  * any benchmark in ZERO_ALLOC reports a non-zero allocs/op — these pin
    the zero-allocation hot path (pooled event engine, packet free-lists,
    sketch fast hashing) and a regression here is a build breaker.

--require names are substring matches against the result names (which may
carry a -<GOMAXPROCS> suffix), so "BenchmarkShardedThroughput" covers its
sub-benchmarks too.

--merge folds the per-PR gate files into one trajectory document keyed by
benchmark name: {benchmarks: {name: [{source, iterations, metrics}, ...]}},
inputs ordered by the numeric PR suffix when present (BENCH_pr5 before
BENCH_pr10) so each list reads as the metric's history across the stack.
Exits non-zero when an input is missing, unparsable, or empty.

--gate compares a current gate file against the merged trajectory: for
every benchmark name present in both, each directional metric (ns/op and
ns/event lower-better, events/sec higher-better, ...) is checked against
the BEST value any *prior* PR recorded (entries whose source label
matches the current file are skipped, since the trajectory is merged
before gating). A metric more than --tol (default 0.10, i.e. 10%) worse
than the historical best fails the gate: the perf trajectory across the
PR stack must never quietly slide backwards. Names with no prior entry
pass — a new benchmark founds its own trajectory.
"""

import json
import re
import sys

# Benchmarks whose steady state must not allocate. Substring match against
# the benchmark name (which may carry a -<GOMAXPROCS> suffix).
ZERO_ALLOC = [
    "BenchmarkSchedule/",      # never emitted; placeholder for subbenches
    "BenchmarkSchedule-",
    "BenchmarkSchedule ",
    "BenchmarkSketchInsert",
    "BenchmarkPortForward",
    "BenchmarkDispatchPlan",
    "BenchmarkTunerStep",
    "BenchmarkTimerWheel",
]

# Directional metrics for the --gate trajectory comparison. Anything not
# listed (experiment-specific readings like accuracies or GB/s tables) is
# informational only: those vary with scenario tuning, not code speed.
LOWER_BETTER = {"ns/op", "ns/event", "allocs/op", "B/op"}
HIGHER_BETTER = {"events/sec"}

# Additive slack for metrics whose baseline can be a handful of counts:
# 2 vs 4 allocs/op is testing-harness jitter, not a leak — a real alloc
# regression shows up orders of magnitude above this. The ZERO_ALLOC
# list, which demands exactly 0, is unaffected.
GATE_SLACK = {"allocs/op": 4.0, "B/op": 256.0}

LINE = re.compile(r"^(Benchmark\S+)\s+(\d+)\s+(.*)$")
METRIC = re.compile(r"([-+0-9.eE]+)\s+(\S+)")


def parse(path):
    results = []
    with open(path) as f:
        for line in f:
            m = LINE.match(line.strip())
            if not m:
                continue
            name, iters, rest = m.group(1), int(m.group(2)), m.group(3)
            metrics = {}
            for mm in METRIC.finditer(rest):
                try:
                    metrics[mm.group(2)] = float(mm.group(1))
                except ValueError:
                    continue
            results.append({"name": name, "iterations": iters, "metrics": metrics})
    return results


def source_key(path):
    """Sort key: numeric PR suffix when present, else lexical.

    BENCH_pr5.json sorts before BENCH_pr10.json; files without the
    suffix sort after the numbered ones, lexically.
    """
    m = re.search(r"pr(\d+)", path)
    if m:
        return (0, int(m.group(1)), path)
    return (1, 0, path)


def merge(dst, srcs):
    if not srcs:
        sys.exit("benchjson: --merge needs at least one input file")
    trajectory = {}
    for src in sorted(srcs, key=source_key):
        try:
            with open(src) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            sys.exit("benchjson: --merge: %s: %s" % (src, e))
        results = doc.get("benchmarks")
        if not isinstance(results, list) or not results:
            sys.exit("benchjson: --merge: %s has no benchmarks" % src)
        label = re.sub(r"^BENCH_|\.json$", "", src.rsplit("/", 1)[-1])
        for r in results:
            trajectory.setdefault(r["name"], []).append({
                "source": label,
                "iterations": r.get("iterations"),
                "metrics": r.get("metrics", {}),
            })
    with open(dst, "w") as f:
        json.dump({"benchmarks": trajectory}, f, indent=2, sort_keys=True)
        f.write("\n")
    print("benchjson: merged %d files (%d benchmark names) into %s"
          % (len(srcs), len(trajectory), dst))


def gate(current_path, trajectory_path, tol):
    try:
        with open(current_path) as f:
            current = json.load(f)
        with open(trajectory_path) as f:
            trajectory = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit("benchjson: --gate: %s" % e)
    results = current.get("benchmarks")
    if not isinstance(results, list) or not results:
        sys.exit("benchjson: --gate: %s has no benchmarks" % current_path)
    history = trajectory.get("benchmarks")
    if not isinstance(history, dict) or not history:
        sys.exit("benchjson: --gate: %s has no trajectory" % trajectory_path)

    own = re.sub(r"^BENCH_|\.json$", "", current_path.rsplit("/", 1)[-1])
    failures, checked = [], 0
    for r in results:
        prior = [e for e in history.get(r["name"], [])
                 if e.get("source") != own]
        if not prior:
            continue
        for metric, value in sorted(r["metrics"].items()):
            lower = metric in LOWER_BETTER
            if not lower and metric not in HIGHER_BETTER:
                continue
            vals = [e["metrics"][metric] for e in prior
                    if metric in e.get("metrics", {})]
            if not vals:
                continue
            best = min(vals) if lower else max(vals)
            checked += 1
            if lower and value > best * (1 + tol) + GATE_SLACK.get(metric, 0):
                failures.append("%s %s = %g, best prior %g (+%.1f%% > tol %.0f%%)"
                                % (r["name"], metric, value, best,
                                   100 * (value / best - 1), 100 * tol))
            elif not lower and best > 0 and value < best * (1 - tol):
                failures.append("%s %s = %g, best prior %g (-%.1f%% > tol %.0f%%)"
                                % (r["name"], metric, value, best,
                                   100 * (1 - value / best), 100 * tol))

    print("benchjson: gated %d metrics of %d benchmarks against %s"
          % (checked, len(results), trajectory_path))
    if failures:
        sys.exit("perf trajectory gate failed:\n  " + "\n  ".join(failures))
    print("benchjson: trajectory gate passed")


def main():
    args = sys.argv[1:]
    if args and args[0] == "--merge":
        if len(args) < 3:
            sys.exit(__doc__)
        merge(args[1], args[2:])
        return
    if args and args[0] == "--gate":
        args.pop(0)
        tol = 0.10
        while args and args[0].startswith("--tol"):
            opt = args.pop(0)
            if opt == "--tol":
                if not args:
                    sys.exit("benchjson: --tol needs a fraction")
                tol = float(args.pop(0))
            else:
                tol = float(opt.split("=", 1)[1])
        if len(args) != 2:
            sys.exit(__doc__)
        gate(args[0], args[1], tol)
        return
    required = []
    while args and args[0].startswith("--"):
        opt = args.pop(0)
        if opt == "--require":
            if not args:
                sys.exit("benchjson: --require needs a name list")
            required.extend(n for n in args.pop(0).split(",") if n)
        elif opt.startswith("--require="):
            required.extend(n for n in opt.split("=", 1)[1].split(",") if n)
        else:
            sys.exit("benchjson: unknown option %s\n%s" % (opt, __doc__))
    if len(args) != 2:
        sys.exit(__doc__)
    src, dst = args
    results = parse(src)
    if not results:
        sys.exit("benchjson: no benchmark result lines in %s" % src)

    missing = [n for n in required
               if not any(n in r["name"] for r in results)]
    if missing:
        sys.exit("benchjson: required benchmark(s) missing from %s: %s"
                 % (src, ", ".join(missing)))

    failures = []
    for r in results:
        padded = r["name"] + " "
        gated = any(z in padded for z in ZERO_ALLOC)
        allocs = r["metrics"].get("allocs/op")
        if gated and allocs is not None and allocs != 0:
            failures.append("%s: %g allocs/op, want 0" % (r["name"], allocs))

    with open(dst, "w") as f:
        json.dump({"benchmarks": results}, f, indent=2, sort_keys=True)
        f.write("\n")
    print("benchjson: wrote %d results to %s" % (len(results), dst))

    if failures:
        sys.exit("perf gate failed:\n  " + "\n  ".join(failures))


if __name__ == "__main__":
    main()
