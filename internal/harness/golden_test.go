package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eventsim"
)

// update rewrites the three golden traces under testdata/ from this build:
//
//	go test ./internal/harness -run Golden -update
//
// Only the tests that own a golden write it. A test that replays a golden
// under a variation that must not show (the flight recorder) never writes: they skip during an update and hold against the
// new files on the next plain run.
var update = flag.Bool("update", false, "rewrite testdata/*.golden.jsonl from this build")

// checkGolden compares got with the named golden trace, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, what, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	diffTraces(t, what, got, readGolden(t, name))
}

// readGolden loads a golden trace for a test that must match it as it is.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	if *update {
		t.Skip("-update: goldens are being rewritten")
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// diffTraces fails the test with a snippet around the first divergent byte
// of two traces that should have been identical.
func diffTraces(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	snip := func(b []byte) string {
		hi := i + 80
		if hi > len(b) {
			hi = len(b)
		}
		if lo > len(b) {
			return ""
		}
		return string(b[lo:hi])
	}
	t.Fatalf("%s at byte %d (got %d bytes, want %d)\n got: …%s…\nwant: …%s…",
		what, i, len(got), len(want), snip(got), snip(want))
}

// The golden traces under testdata/ pin the chaos experiments at seed 7,
// QuickScale, 40 ms horizon, byte for byte: fault schedule, samples and
// dispatches. A change that is meant to leave simulation behaviour alone
// proves it by leaving them alone; one that moves same-nanosecond event
// order (and with it ECN coin flips) re-pins them once, with -update.
func TestChaosTraceGolden(t *testing.T) {
	cases := []struct {
		name   string
		golden string
		run    func(traceTo *bytes.Buffer) error
	}{
		{
			name:   "linkflap",
			golden: "chaos_linkflap_seed7_quick.golden.jsonl",
			run: func(buf *bytes.Buffer) error {
				_, err := ChaosLinkFlap(QuickScale(), 40*eventsim.Millisecond, 7, buf)
				return err
			},
		},
		{
			name:   "agentcrash",
			golden: "chaos_agentcrash_seed7_quick.golden.jsonl",
			run: func(buf *bytes.Buffer) error {
				_, err := ChaosAgentCrash(QuickScale(), 40*eventsim.Millisecond, 7, buf)
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.run(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "trace diverges from golden", tc.golden, buf.Bytes())
		})
	}
}
