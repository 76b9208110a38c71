// Package telhttp serves a telemetry registry over HTTP for the
// binaries under cmd/: Prometheus text on /metrics, a JSON snapshot on
// /debug/status and net/http/pprof's profiles on /debug/pprof/.
//
// It lives under cmd/ rather than beside the registry in
// internal/telemetry so that Go's internal rule keeps net/http, its
// TLS and x509 stack, and net/http/pprof out of every library package
// and of everything built from them (the benchmark, test binaries,
// embedders): only code under cmd/ can import this package.
package telhttp

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// HTTPServer serves a registry's introspection endpoints:
//
//	/metrics        Prometheus text exposition
//	/debug/status   JSON snapshot (clocks + published status sections)
//	/debug/pprof/   net/http/pprof profiles
//
// The listener is guarded with a ReadHeaderTimeout so a stalled scraper
// cannot pin an accept slot, and shuts down gracefully — on Shutdown or
// on cancellation of the context passed to Serve — without leaking its
// serve goroutine.
type HTTPServer struct {
	reg *telemetry.Registry
	srv *http.Server
	ln  net.Listener

	shutOnce sync.Once
	shutErr  error
	done     chan struct{} // closed when the serve loop exits
}

// statusPayload is the /debug/status document.
type statusPayload struct {
	// WallTime is the scrape instant; UptimeSeconds counts from registry
	// creation.
	WallTime      time.Time `json:"wall_time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// VirtualTimeNs is the simulator clock at the last control-loop
	// tick (see telemetry.VirtualTimeGauge); zero when nothing has ticked.
	VirtualTimeNs int64 `json:"virtual_time_ns"`
	// Sections holds each registered section's current snapshot
	// (e.g. control_loop: current parameter vector, quorum state, last
	// trigger, SA progress).
	Sections map[string]any `json:"sections"`
	// Histograms summarizes every histogram family with at least one
	// observation: p50/p95/p99 interpolated from the fixed buckets
	// (see telemetry.Quantile), in name order.
	Histograms []histogramStatus `json:"histograms,omitempty"`
}

// histogramStatus is one /debug/status histogram summary line.
type histogramStatus struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Serve starts the introspection server on addr (use "127.0.0.1:0" for
// an ephemeral port). If ctx is non-nil, its cancellation triggers a
// graceful shutdown; Shutdown can also be called directly.
func Serve(ctx context.Context, addr string, reg *telemetry.Registry) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{reg: reg, ln: ln, done: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/status", s.handleStatus)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{
		Handler: mux,
		// Header read is bounded so half-open scrapers cannot hold
		// connections; no WriteTimeout, because pprof profile captures
		// legitimately stream for tens of seconds.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       time.Minute,
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				s.Shutdown(shutCtx)
			case <-s.done:
			}
		}()
	}
	return s, nil
}

// Addr reports the bound listen address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: the listener closes, in-flight
// requests get until ctx's deadline to finish, and the serve goroutine
// exits before Shutdown returns. Safe to call more than once.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.shutErr = s.srv.Shutdown(ctx)
		<-s.done
	})
	return s.shutErr
}

func (s *HTTPServer) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *HTTPServer) handleStatus(w http.ResponseWriter, req *http.Request) {
	now := time.Now()
	payload := statusPayload{
		WallTime:      now,
		UptimeSeconds: now.Sub(s.reg.Started()).Seconds(),
		VirtualTimeNs: int64(telemetry.VirtualTime(s.reg).Value()),
		Sections:      s.reg.Status(),
	}
	for _, h := range s.reg.Histograms() {
		payload.Histograms = append(payload.Histograms, histogramStatus{
			Name:  h.Name,
			Count: h.Count,
			Sum:   h.Sum,
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}
