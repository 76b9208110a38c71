package telhttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHTTPServerEndpoints(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("paraleon_test_total", "A test counter.").Add(3)
	telemetry.NewStatusCell[map[string]any](r, "control_loop").Set(map[string]any{"triggers": 2})
	telemetry.VirtualTime(r).Set(1.5e6)

	srv, err := Serve(nil, "127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + srv.Addr()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "paraleon_test_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	code, body, hdr = get(t, base+"/debug/status")
	if code != http.StatusOK {
		t.Fatalf("/debug/status status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/status content type %q", ct)
	}
	var payload struct {
		UptimeSeconds float64        `json:"uptime_seconds"`
		VirtualTimeNs int64          `json:"virtual_time_ns"`
		Sections      map[string]any `json:"sections"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/debug/status not JSON: %v\n%s", err, body)
	}
	if payload.VirtualTimeNs != 1500000 {
		t.Errorf("virtual_time_ns = %d, want 1500000", payload.VirtualTimeNs)
	}
	if payload.Sections["control_loop"] == nil {
		t.Error("/debug/status missing control_loop section")
	}

	if code, _, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// TestShutdownNoGoroutineLeak verifies graceful shutdown reaps the serve
// and watcher goroutines — an operator toggling -telemetry-addr across
// many runs must not accumulate listeners.
func TestShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		srv, err := Serve(ctx, "127.0.0.1:0", telemetry.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if code, _, _ := get(t, "http://"+srv.Addr()+"/metrics"); code != http.StatusOK {
			t.Fatalf("iteration %d: /metrics status %d", i, code)
		}
		if i%2 == 0 {
			// Direct shutdown.
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("iteration %d: shutdown: %v", i, err)
			}
			// Second call must be a safe no-op.
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("iteration %d: repeat shutdown: %v", i, err)
			}
		} else {
			// Context-cancel shutdown.
			cancel()
			deadline := time.Now().Add(2 * time.Second)
			for {
				if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err != nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("iteration %d: server still serving after ctx cancel", i)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		cancel()
	}
	// Goroutine counts are noisy (http keep-alive reapers, test runtime);
	// poll until we are back near the baseline.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve(nil, "256.0.0.1:bad", telemetry.NewRegistry()); err == nil {
		t.Fatal("bad address accepted")
	}
}
