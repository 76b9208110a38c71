package dispatch

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dcqcn"
)

// replayAll collects a WAL's records, each with its own copy of Params.
func replayAll(w WAL) ([]Record, error) {
	var out []Record
	err := w.Replay(func(r *Record) error {
		c := *r
		if r.Params != nil {
			p := *r.Params
			c.Params = &p
		}
		out = append(out, c)
		return nil
	})
	return out, err
}

func TestMemWALRoundTrip(t *testing.T) {
	w := &MemWAL{}
	p := dcqcn.DefaultParams()
	recs := []Record{
		{T: 1, Kind: KindIntent, Epoch: 3, Params: &p, Hash: VectorHash(&p), Canary: 1},
		{T: 2, Kind: KindPhase, Epoch: 3, Phase: "canary"},
		{T: 3, Kind: KindCommit, Epoch: 3, Params: &p, Hash: VectorHash(&p)},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := replayAll(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || got[i].Epoch != recs[i].Epoch {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// A retained record must not alias the caller's vector: the daemon
// proposes into one reused buffer and journals its address every
// dispatch.
func TestMemWALCopiesParams(t *testing.T) {
	w := &MemWAL{}
	p := dcqcn.DefaultParams()
	want := p
	if err := w.Append(Record{T: 1, Kind: KindCommit, Epoch: 1, Params: &p}); err != nil {
		t.Fatal(err)
	}
	p.KminBytes++
	p.G = 0.5
	got, err := replayAll(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || *got[0].Params != want {
		t.Fatalf("replayed %+v, want the vector as appended", got)
	}
	rec, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Committed == nil || *rec.Committed != want {
		t.Fatalf("recovered %+v, want the vector as appended", rec.Committed)
	}
}

// Recovery memory is sized by the state it recovers, not by the journal:
// folding a 10 000-record FileWAL allocates a bounded amount per record
// (the line decode) and nothing that is kept per record.
func TestRecoverBytesPerRecord(t *testing.T) {
	const records = 10000
	p := dcqcn.DefaultParams()
	var buf strings.Builder
	for i := 1; i <= records; i++ {
		p.KminBytes = int64(i)
		b, err := json.Marshal(Record{T: int64(i), Kind: KindCommit, Epoch: uint64(i), Params: &p, Hash: VectorHash(&p)})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var rec Recovery
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec, err = Recover(w)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != records || rec.Epoch != records || rec.Committed == nil || rec.Committed.KminBytes != records {
		t.Fatalf("recovery = %+v", rec)
	}
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / records
	t.Logf("Recover allocates %.0f B per record", perRec)
	if perRec > 512 {
		t.Errorf("Recover allocates %.0f B per record; want ≤ 512", perRec)
	}
}

// TestFileWALLinesMatchMarshal pins the journal format to what Append
// wrote before it kept an encoder: json.Marshal(r) plus a newline, HTML
// escaping included, for every record kind. A record Marshal refuses
// writes nothing and leaves later appends intact.
func TestFileWALLinesMatchMarshal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, q := dcqcn.DefaultParams(), dcqcn.ExpertParams()
	recs := []Record{
		{T: 1, Kind: KindIntent, Epoch: 4, Params: &p, Hash: VectorHash(&p), Canary: 2},
		{T: 2, Kind: KindPhase, Epoch: 4, Phase: "canary"},
		{T: 3, Kind: KindAbort, Epoch: 4, Phase: "canary", Reason: "health <pfc> & \"rtt\""},
		{T: 4, Kind: KindEpoch, Epoch: 5, Hash: VectorHash(&q)},
		{T: 5, Kind: KindCommit, Epoch: 6, Params: &q, Hash: VectorHash(&q), Reason: "restore"},
	}
	var want strings.Builder
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteByte('\n')
		if i == 2 {
			bad := p
			bad.G = math.NaN()
			if err := w.Append(Record{Kind: KindCommit, Params: &bad}); err == nil {
				t.Fatal("a NaN parameter was journaled")
			}
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("journal differs from json.Marshal lines:\n got %s\nwant %s", got, want.String())
	}
}

func TestFileWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	p := dcqcn.DefaultParams()
	if err := w.Append(Record{T: 1, Kind: KindIntent, Epoch: 7, Params: &p, Hash: VectorHash(&p)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{T: 2, Kind: KindAbort, Epoch: 7, Phase: "canary", Reason: "health_pfc"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Reopen, as a restarted daemon would.
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := replayAll(w2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindIntent || got[1].Reason != "health_pfc" {
		t.Fatalf("replay = %+v", got)
	}
	if got[0].Params == nil || got[0].Params.KminBytes != p.KminBytes {
		t.Fatalf("intent params did not survive the file round trip: %+v", got[0].Params)
	}
}

// appendRaw writes bytes to the journal file behind the WAL's back, the
// way a crash or disk damage would.
func appendRaw(t *testing.T, path, raw string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestFileWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{T: 1, Kind: KindEpoch, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, undecodable trailing line.
	appendRaw(t, path, `{"t":2,"kind":"int`)
	got, err := replayAll(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("torn tail not skipped: %+v", got)
	}

	// The restarted daemon's appends must not fuse with the fragment.
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append(Record{T: 3, Kind: KindEpoch, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	got, err = replayAll(w2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Fatalf("after reopen and append: %+v", got)
	}
}

// Damage in the middle of the journal must not read as a short journal:
// the commits after it are real.
func TestFileWALMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p := dcqcn.DefaultParams()
	if err := w.Append(Record{T: 1, Kind: KindCommit, Epoch: 1, Params: &p}); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path, "{\"t\":2,\"kind\":\"com\x00\x00\n")
	if err := w.Append(Record{T: 3, Kind: KindCommit, Epoch: 3, Params: &p}); err != nil {
		t.Fatal(err)
	}
	_, err = replayAll(w)
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Replay error = %v, want ErrWALCorrupt naming line 2", err)
	}
	if _, err := Recover(w); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Recover error = %v, want ErrWALCorrupt", err)
	}
}

func TestRecoverFolding(t *testing.T) {
	p := dcqcn.DefaultParams()
	q := dcqcn.ExpertParams()

	t.Run("clean_commit", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindIntent, Epoch: 1, Params: &p})
		w.Append(Record{T: 2, Kind: KindPhase, Epoch: 1, Phase: "canary"})
		w.Append(Record{T: 3, Kind: KindCommit, Epoch: 1, Params: &p})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.InFlight != nil {
			t.Fatalf("committed rollout reported in flight: %+v", rec.InFlight)
		}
		if rec.Epoch != 1 || rec.CommittedEpoch != 1 || rec.Committed == nil {
			t.Fatalf("recovery = %+v", rec)
		}
	})

	t.Run("orphaned_mid_settle", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindCommit, Epoch: 2, Params: &p})
		w.Append(Record{T: 2, Kind: KindIntent, Epoch: 5, Params: &q})
		w.Append(Record{T: 3, Kind: KindPhase, Epoch: 5, Phase: "canary"})
		w.Append(Record{T: 4, Kind: KindPhase, Epoch: 5, Phase: "settle"})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.InFlight == nil || rec.InFlight.Epoch != 5 || rec.InFlightPhase != "settle" {
			t.Fatalf("orphan not detected: %+v", rec)
		}
		if rec.Epoch != 5 {
			t.Fatalf("epoch = %d, want 5", rec.Epoch)
		}
		if rec.Committed == nil || rec.Committed.KminBytes != p.KminBytes || rec.CommittedEpoch != 2 {
			t.Fatalf("committed = %+v @%d", rec.Committed, rec.CommittedEpoch)
		}
	})

	t.Run("aborted_is_not_in_flight", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindIntent, Epoch: 3, Params: &q})
		w.Append(Record{T: 2, Kind: KindAbort, Epoch: 3, Reason: "ack_timeout"})
		w.Append(Record{T: 3, Kind: KindEpoch, Epoch: 4})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.InFlight != nil {
			t.Fatalf("aborted rollout reported in flight")
		}
		if rec.Epoch != 4 {
			t.Fatalf("epoch = %d, want 4 (epoch grants count)", rec.Epoch)
		}
	})
}
