// Command paraleon-controller runs the centralized Paraleon controller as
// a standalone TCP service. Agents (cmd/paraleon-agent, or the testbed
// harness with -controller) connect to it, upload per-interval metrics,
// and receive DCQCN parameter updates.
//
// Usage:
//
//	paraleon-controller -addr 127.0.0.1:9419
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/telhttp"
	"repro/internal/ctrlrpc"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9419", "listen address")
	theta := flag.Float64("theta", 0.01, "KL trigger threshold")
	wTP := flag.Float64("w-tp", 0.2, "utility weight for throughput")
	wRTT := flag.Float64("w-rtt", 0.5, "utility weight for RTT")
	wPFC := flag.Float64("w-pfc", 0.3, "utility weight for PFC")
	seed := flag.Int64("seed", 1, "tuner randomness seed")
	tunerName := flag.String("tuner", "", "tuning strategy: sa | bandit (default sa)")
	statsEvery := flag.Duration("stats-every", 10*time.Second, "stats print period (0 disables)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /debug/status and /debug/pprof on this address")
	ioTimeout := flag.Duration("io-timeout", 0, "per-frame read/write deadline on agent connections (0 disables)")
	walPath := flag.String("wal", "", "write-ahead log file; a restarted controller resumes the last dispatched vector and epoch from it")
	maxRelStep := flag.Float64("max-rel-step", 0, "guardrail: max per-parameter relative step per dispatch (0 disables)")
	minGap := flag.Duration("min-gap", 0, "guardrail: minimum time between admitted dispatches (0 disables)")
	blackbox := flag.String("blackbox", "", "flight-recorder artifact written on shutdown (read with paraleon-analyze)")
	flag.Parse()

	var telemetrySrv *telhttp.HTTPServer
	if *telemetryAddr != "" {
		tsrv, err := telhttp.Serve(nil, *telemetryAddr, telemetry.Default())
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		telemetrySrv = tsrv
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", tsrv.Addr())
	}

	cfg := ctrlrpc.DefaultServerConfig()
	cfg.Theta = *theta
	cfg.Weights.TP, cfg.Weights.RTT, cfg.Weights.PFC = *wTP, *wRTT, *wPFC
	cfg.Seed = *seed
	cfg.Tuner = *tunerName
	cfg.Logger = log.New(os.Stderr, "controller: ", log.LstdFlags)
	cfg.IOTimeout = *ioTimeout
	cfg.Guard.MaxRelStep = *maxRelStep
	cfg.Guard.MinGap = eventsim.Time(minGap.Nanoseconds())
	if err := cfg.Weights.Validate(); err != nil {
		log.Fatalf("bad weights: %v", err)
	}
	if *walPath != "" {
		wal, err := dispatch.OpenFileWAL(*walPath)
		if err != nil {
			log.Fatalf("wal: %v", err)
		}
		defer wal.Close()
		cfg.WAL = wal
	}
	var flight *series.Recorder
	if *blackbox != "" {
		flight = series.NewRecorder(series.Meta{
			Experiment: "controller",
			Seed:       *seed,
		})
		cfg.Flight = flight
	}

	srv, err := ctrlrpc.Serve(*addr, cfg)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	fmt.Printf("paraleon controller listening on %s (theta=%.3g weights=%.2f/%.2f/%.2f)\n",
		srv.Addr(), *theta, *wTP, *wRTT, *wPFC)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-tick:
			st := srv.Stats()
			fmt.Printf("stats: reports=%d ticks=%d triggers=%d dispatches=%d rejects=%d epoch=%d acks=%d in=%dB out=%dB cpu=%v journal=%v\n",
				st.Reports, st.Ticks, st.Triggers, st.Dispatches, st.Rejects, srv.Epoch(), st.ApplyAcks,
				st.BytesIn, st.BytesOut, st.Processing.Round(time.Microsecond), st.Journal.Round(time.Microsecond))
		case <-stop:
			st := srv.Stats()
			fmt.Printf("\nfinal: reports=%d ticks=%d triggers=%d dispatches=%d rejects=%d epoch=%d acks=%d in=%dB out=%dB cpu=%v journal=%v\n",
				st.Reports, st.Ticks, st.Triggers, st.Dispatches, st.Rejects, srv.Epoch(), st.ApplyAcks,
				st.BytesIn, st.BytesOut, st.Processing.Round(time.Microsecond), st.Journal.Round(time.Microsecond))
			srv.Close()
			if flight != nil {
				// The daemon has no virtual clock; the artifact's time
				// axis is the tick index, so EndT is the final tick.
				f, err := os.Create(*blackbox)
				if err != nil {
					log.Printf("blackbox: %v", err)
				} else {
					if err := flight.WriteArtifact(f, st.Ticks, telemetry.Default()); err != nil {
						log.Printf("blackbox: %v", err)
					}
					f.Close()
					fmt.Printf("blackbox: wrote %s\n", *blackbox)
				}
			}
			if telemetrySrv != nil {
				shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				telemetrySrv.Shutdown(shutCtx)
				cancel()
			}
			return
		}
	}
}
