#!/usr/bin/env python3
"""Convert `go test -bench` output to JSON and enforce the perf gate.

Usage: benchjson.py [--require NAME[,NAME...]] BENCH_OUTPUT.txt BENCH.json

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


def main():
    args = sys.argv[1:]
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
