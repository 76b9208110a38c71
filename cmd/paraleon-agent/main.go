// Command paraleon-agent drives a simulated RDMA cluster whose monitoring
// agents report to an external controller (cmd/paraleon-controller) over
// real TCP — the two binaries together mirror the paper's prototype
// deployment.
//
// Usage (two terminals):
//
//	paraleon-controller -addr 127.0.0.1:9419
//	paraleon-agent -controller 127.0.0.1:9419 -duration 100ms -load 0.4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/cmd/internal/telhttp"
	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	controller := flag.String("controller", "127.0.0.1:9419", "controller address")
	duration := flag.Duration("duration", 100*time.Millisecond, "virtual run length")
	load := flag.Float64("load", 0.4, "FB_Hadoop offered load")
	scaleName := flag.String("scale", "quick", "fabric scale: quick | medium | paper")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /debug/status and /debug/pprof on this address")
	report := flag.Bool("report", false, "print a telemetry run summary after the run")
	flag.Parse()

	var telemetrySrv *telhttp.HTTPServer
	if *telemetryAddr != "" {
		srv, err := telhttp.Serve(nil, *telemetryAddr, telemetry.Default())
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		telemetrySrv = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}

	scale, ok := harness.Scales[*scaleName]
	if !ok {
		log.Fatalf("unknown scale %q", *scaleName)
	}
	horizon := eventsim.Time(duration.Nanoseconds())
	cfg := scale().Config(harness.ParaleonScheme(), horizon, func(n *sim.Network) error {
		_, err := workload.InstallPoisson(n, workload.PoissonConfig{
			CDF: workload.FBHadoop(), Load: *load, Duration: horizon,
		})
		return err
	})
	// The drain keeps the loop ticking against the controller; give up
	// on it 10 s of virtual time after the run.
	cfg.DrainAfter, cfg.MaxTime = true, horizon+10*eventsim.Second
	cfg.Wire = &harness.Wire{Addr: *controller}
	res, err := harness.Run(cfg)
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	sum := res.Net.Completed
	fmt.Printf("ran %v of virtual time against controller %s\n", *duration, *controller)
	fmt.Printf("  flows completed:       %d\n", len(sum))
	if res.Incomplete > 0 {
		fmt.Fprintf(os.Stderr, "%d flows without a completion record when the drain hit its time limit\n", res.Incomplete)
	}
	fmt.Printf("  parameter dispatches:  %d\n", res.Dispatches)
	fmt.Printf("  report frame size:     %d B\n", res.Wire.ReportBytes)
	fmt.Printf("  params frame size:     %d B\n", res.Wire.ParamsBytes)
	fmt.Printf("  agent bytes uploaded:  %d B\n", res.Wire.AgentBytesOut)
	if res.TP.Len() > 0 {
		fmt.Printf("  final interval: TP=%.3f RTTnorm=%.3f\n",
			res.TP.Values()[res.TP.Len()-1], res.RTT.Values()[res.RTT.Len()-1])
	}
	if *report {
		telemetry.Default().BuildReport().Fprint(os.Stdout)
	}
	if telemetrySrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		telemetrySrv.Shutdown(shutCtx)
	}
}
