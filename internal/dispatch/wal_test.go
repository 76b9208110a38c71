package dispatch

import (
	"bytes"
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
		{T: 1, Kind: KindCommit, Epoch: 1, Params: &p, Hash: VectorHash(&p)},
		{T: 2, Kind: KindCommit, Epoch: 2, Params: &p, Hash: VectorHash(&p), Reason: "restore"},
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
		if got[i].Kind != recs[i].Kind || got[i].Epoch != recs[i].Epoch || got[i].Reason != recs[i].Reason {
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
// escaping included, for every record kind, followed by zero padding to
// the end of a whole chunk. A record Marshal refuses writes nothing and
// leaves later appends intact.
func TestFileWALLinesMatchMarshal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, q := dcqcn.DefaultParams(), dcqcn.ExpertParams()
	recs := []Record{
		{T: 1, Kind: KindCommit, Epoch: 4, Params: &p, Hash: VectorHash(&p)},
		{T: 2, Kind: KindCommit, Epoch: 5, Params: &q, Hash: VectorHash(&q)},
		{T: 3, Kind: KindCommit, Epoch: 6, Params: &p, Hash: VectorHash(&p), Reason: "<restore> & \"rtt\""},
		{T: 4, Kind: KindCommit, Epoch: 7, Params: &q, Hash: VectorHash(&q)},
		{T: 5, Kind: KindCommit, Epoch: 8, Params: &q, Hash: VectorHash(&q), Reason: "restore"},
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
	if len(got) != walChunk {
		t.Errorf("journal is %d bytes, want one %d-byte chunk", len(got), walChunk)
	}
	lines, pad, _ := bytes.Cut(got, []byte{0})
	if string(lines) != want.String() {
		t.Errorf("journal differs from json.Marshal lines:\n got %s\nwant %s", lines, want.String())
	}
	if len(bytes.Trim(pad, "\x00")) != 0 {
		t.Error("the padding after the last line is not all zeros")
	}
}

func TestFileWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	p := dcqcn.DefaultParams()
	if err := w.Append(Record{T: 1, Kind: KindCommit, Epoch: 7, Params: &p, Hash: VectorHash(&p)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{T: 2, Kind: KindCommit, Epoch: 8, Params: &p, Hash: VectorHash(&p), Reason: "restore"}); err != nil {
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
	if len(got) != 2 || got[0].Kind != KindCommit || got[1].Epoch != 8 || got[1].Reason != "restore" {
		t.Fatalf("replay = %+v", got)
	}
	if got[0].Params == nil || got[0].Params.KminBytes != p.KminBytes {
		t.Fatalf("params did not survive the file round trip: %+v", got[0].Params)
	}
}

// appendRaw writes bytes at the journal's logical end behind the WAL's
// back, the way a crash or disk damage would. w keeps its own idea of the
// end; reopen the file to see the damage.
func appendRaw(t *testing.T, w *FileWAL, raw string) {
	t.Helper()
	f, err := os.OpenFile(w.path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte(raw), w.end); err != nil {
		t.Fatal(err)
	}
}

func TestFileWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{T: 1, Kind: KindCommit, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, undecodable trailing line.
	appendRaw(t, w, `{"t":2,"kind":"int`)
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
	if got, err := replayAll(w2); err != nil || len(got) != 1 {
		t.Fatalf("reopened replay = %+v, %v; want the one record", got, err)
	}
	if err := w2.Append(Record{T: 3, Kind: KindCommit, Epoch: 2}); err != nil {
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
	good, err := json.Marshal(Record{T: 3, Kind: KindCommit, Epoch: 3, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	appendRaw(t, w, "{\"t\":2,\"kind\":\"com\x00\x00\n"+string(good)+"\n")
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append(Record{T: 4, Kind: KindCommit, Epoch: 4, Params: &p}); err != nil {
		t.Fatal(err)
	}
	_, err = replayAll(w2)
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Replay error = %v, want ErrWALCorrupt naming line 2", err)
	}
	if _, err := Recover(w2); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Recover error = %v, want ErrWALCorrupt", err)
	}
}

// The benchmark and older deployments write plain JSON lines with no
// padding. Such a file opens, replays, and takes appends after its last
// line.
func TestFileWALPlainFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	p := dcqcn.DefaultParams()
	var plain []byte
	for i := 1; i <= 3; i++ {
		b, err := json.Marshal(Record{T: int64(i), Kind: KindCommit, Epoch: uint64(i), Params: &p})
		if err != nil {
			t.Fatal(err)
		}
		plain = append(append(plain, b...), '\n')
	}
	if err := os.WriteFile(path, plain, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := replayAll(w); err != nil || len(got) != 3 || got[2].Epoch != 3 {
		t.Fatalf("plain file replays %+v, %v; want epochs 1-3", got, err)
	}
	q := dcqcn.ExpertParams()
	if err := w.Append(Record{T: 4, Kind: KindCommit, Epoch: 4, Params: &q}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w, err = OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec, err := Recover(w)
	if err != nil || rec.Replayed != 4 || rec.Epoch != 4 || rec.Committed == nil || *rec.Committed != q {
		t.Fatalf("recovery after an append = %+v, %v", rec, err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(got, plain) {
		t.Fatalf("the plain lines were rewritten (err %v)", err)
	}
}

// FuzzFileWALTornTail crashes the journal's last append. The blocks it
// wrote hold a fuzzer-chosen mix of their old and new 512-B sectors, or
// new bytes up to a fuzzer-chosen byte and old ones after it, or the file
// is cut at that byte. The reopened journal must recover a prefix of what
// was appended that keeps every record the crash could not touch, take a
// further append, and never report ErrWALCorrupt.
func FuzzFileWALTornTail(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint64(0), uint16(0))
	f.Add(uint8(12), uint8(0), uint64(0x5), uint16(0))
	f.Add(uint8(20), uint8(1), uint64(0), uint16(300))
	f.Add(uint8(9), uint8(2), uint64(0), uint16(4000))
	f.Fuzz(func(t *testing.T, n, mode uint8, sectors uint64, cut uint16) {
		path := filepath.Join(t.TempDir(), "dispatch.wal")
		w, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		p := dcqcn.DefaultParams()
		var want []Record
		appendOne := func(w *FileWAL) {
			i := len(want) + 1
			// Reasons of varied length move record ends across blocks.
			r := Record{T: int64(i), Kind: KindCommit, Epoch: uint64(i), Params: &p, Reason: strings.Repeat("r", i*37%200)}
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		for range 1 + int(n%40) {
			appendOne(w)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base := w.end &^ (walBlock - 1)
		appendOne(w)
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		top := (w.end + walBlock - 1) &^ (walBlock - 1)
		// old is the file as the last append found it: grown, but with
		// its blocks not yet written.
		old := make([]byte, len(after))
		copy(old, before)
		torn := after
		at := base + int64(cut)%(top-base+1)
		switch mode % 3 {
		case 0:
			for s := base; s < top; s += 512 {
				if sectors>>((s-base)/512%64)&1 == 0 {
					copy(torn[s:s+512], old[s:s+512])
				}
			}
		case 1:
			copy(torn[at:top], old[at:top])
		case 2:
			torn = torn[:at]
		}
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		// Every record that ends before the damage must come back.
		keep := len(want) - 1
		if mode%3 == 2 {
			keep = bytes.Count(torn, []byte{'\n'})
		}

		w2, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		got, err := replayAll(w2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < keep || !isPrefix(got, want) {
			t.Fatalf("recovered %d records, want a prefix of the %d appended with at least %d", len(got), len(want), keep)
		}
		want = want[:len(got)]
		appendOne(w2)
		got, err = replayAll(w2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !isPrefix(got, want) {
			t.Fatalf("after a further append recovered %d records, want %d", len(got), len(want))
		}
	})
}

// isPrefix reports whether got is a prefix of want, record by record.
func isPrefix(got, want []Record) bool {
	if len(got) > len(want) {
		return false
	}
	for i, g := range got {
		r := want[i]
		if g.T != r.T || g.Kind != r.Kind || g.Epoch != r.Epoch || g.Reason != r.Reason ||
			(g.Params == nil) != (r.Params == nil) || (g.Params != nil && *g.Params != *r.Params) {
			return false
		}
	}
	return true
}

// TestRecoverFolding: a restarted controller resumes above the highest
// epoch and on the last vector journaled, a restore's included.
func TestRecoverFolding(t *testing.T) {
	p := dcqcn.DefaultParams()
	q := dcqcn.ExpertParams()

	t.Run("clean_commit", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindCommit, Epoch: 1, Params: &q})
		w.Append(Record{T: 2, Kind: KindCommit, Epoch: 2, Params: &p})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Epoch != 2 || rec.Replayed != 2 || rec.Committed == nil || *rec.Committed != p {
			t.Fatalf("recovery = %+v", rec)
		}
	})

	t.Run("restore_then_dispatch", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindCommit, Epoch: 1, Params: &q})
		w.Append(Record{T: 2, Kind: KindCommit, Epoch: 2, Params: &p, Reason: "restore"})
		w.Append(Record{T: 3, Kind: KindCommit, Epoch: 3, Params: &q})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Epoch != 3 || rec.Committed == nil || *rec.Committed != q {
			t.Fatalf("recovery = %+v, want epoch 3 on the vector dispatched after the restore", rec)
		}
	})

	t.Run("empty", func(t *testing.T) {
		rec, err := Recover(&MemWAL{})
		if err != nil || rec.Epoch != 0 || rec.Committed != nil || rec.Replayed != 0 {
			t.Fatalf("recovery of an empty journal = %+v, %v", rec, err)
		}
	})
}
