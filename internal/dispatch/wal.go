package dispatch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/dcqcn"
)

// WAL record kinds. A rollout writes intent first, then one phase record
// per transition, then exactly one of commit or abort. Epoch grants that
// bypass the plan machinery (SA exploration dispatches, rollback
// restores) write an epoch record so a recovered controller never
// re-issues an epoch number some device has already seen.
const (
	KindIntent = "intent"
	KindPhase  = "phase"
	KindCommit = "commit"
	KindAbort  = "abort"
	KindEpoch  = "epoch"
)

// Record is one write-ahead log entry. T is virtual time (engine
// nanoseconds) — the log must replay identically across restarts, so it
// carries no wall-clock timestamps.
type Record struct {
	T     int64  `json:"t"`
	Kind  string `json:"kind"`
	Epoch uint64 `json:"epoch"`
	// Phase names the phase being entered (KindPhase records).
	Phase string `json:"phase,omitempty"`
	// Params is the full target vector (KindIntent and KindCommit
	// records; epoch grants log only the hash).
	Params *dcqcn.Params `json:"params,omitempty"`
	Hash   uint64        `json:"hash,omitempty"`
	// Canary is the canary device count of the plan (KindIntent).
	Canary int `json:"canary,omitempty"`
	// Reason annotates aborts and restore-commits.
	Reason string `json:"reason,omitempty"`
}

// WAL is the journal the pipeline writes through. Append must be
// durable before it returns (to the WAL's own durability level: a
// MemWAL survives a simulated controller restart, a FileWAL survives a
// process one), and must not keep r.Params past its return. Replay
// calls fn on every record in append order and stops at fn's first
// error, which it returns. The *Record and what it points to are valid
// only during that call. Records appended while a Replay runs may or
// may not be visited.
type WAL interface {
	Append(r Record) error
	Replay(fn func(*Record) error) error
}

// MemWAL is the in-memory journal used by simulations: the harness
// holds it across a simulated controller kill/restart, exactly as a
// file would survive a daemon crash.
type MemWAL struct {
	mu   sync.Mutex
	recs []Record
}

// Append adds r to the log. It keeps its own copy of r.Params, so a
// journaled vector never changes when the caller's buffer does.
func (w *MemWAL) Append(r Record) error {
	if r.Params != nil {
		p := *r.Params
		r.Params = &p
	}
	w.mu.Lock()
	w.recs = append(w.recs, r)
	w.mu.Unlock()
	return nil
}

// Replay visits the log in append order. Records are never modified
// once appended, so it visits the prefix present at the call without
// holding the lock while fn runs.
func (w *MemWAL) Replay(fn func(*Record) error) error {
	w.mu.Lock()
	recs := w.recs
	w.mu.Unlock()
	var r Record // a copy, so fn cannot rewrite the log
	for i := range recs {
		r = recs[i]
		if err := fn(&r); err != nil {
			return err
		}
	}
	return nil
}

// Len reports the number of records appended so far.
func (w *MemWAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs)
}

// FileWAL is the file-backed journal for daemon deployments: one JSON
// record per line, synced on every append. Dispatch is a per-interval
// (millisecond-scale) control-plane event, so an fsync per record is
// cheap insurance against exactly the crash the log exists for.
type FileWAL struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// buf and enc encode each record in place: enc writes the line
	// json.Marshal(r)+"\n" into buf (HTML escaping on, as in Marshal).
	// rec holds the record being encoded, so passing it to enc boxes a
	// pointer that is already on the heap instead of a fresh copy.
	buf bytes.Buffer
	enc *json.Encoder
	rec Record
	// torn is set when a write failed and may have left part of a line
	// at the end of the file (a short write, say on ENOSPC). The next
	// Append cuts that fragment off before it writes, so its record
	// starts a line of its own.
	torn bool
}

// ErrWALCorrupt is returned (wrapped, with the line number) by
// FileWAL.Replay when an undecodable line is followed by further records:
// that is damage inside the journal, not a torn final append, and
// replaying around it would silently drop or reorder commits.
var ErrWALCorrupt = errors.New("dispatch: wal corrupt")

// OpenFileWAL opens (creating if needed) the journal at path in append
// mode. Existing records are preserved; Replay reads them. A final line
// with no newline is a torn append from a crash — Append never returned
// for it — and is cut off here, so the next Append starts a line of its
// own instead of fusing with the fragment.
func OpenFileWAL(path string) (*FileWAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dispatch: open wal: %w", err)
	}
	if err := dropTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("dispatch: open wal: %w", err)
	}
	w := &FileWAL{path: path, f: f}
	w.enc = json.NewEncoder(&w.buf)
	return w, nil
}

// dropTornTail truncates f to end just after its last newline.
func dropTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	keep := end // scans back to the offset just past the last newline
	buf := make([]byte, 4096)
	for keep > 0 {
		n := min(int64(len(buf)), keep)
		if _, err := f.ReadAt(buf[:n], keep-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep += int64(i) + 1 - n
			break
		}
		keep -= n
	}
	if keep == end {
		return nil
	}
	return f.Truncate(keep)
}

// Append writes r as one JSON line and syncs it to stable storage.
func (w *FileWAL) Append(r Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Reset()
	w.rec = r
	err := w.enc.Encode(&w.rec)
	w.rec = Record{}
	if err != nil {
		return fmt.Errorf("dispatch: wal encode: %w", err)
	}
	if w.torn {
		if err := dropTornTail(w.f); err != nil {
			return fmt.Errorf("dispatch: wal append: %w", err)
		}
		w.torn = false
	}
	if _, err := w.f.Write(w.buf.Bytes()); err != nil {
		w.torn = true
		return fmt.Errorf("dispatch: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("dispatch: wal sync: %w", err)
	}
	return nil
}

// Replay decodes the journal line by line into one reused Record and
// visits each. An undecodable final line (torn write from a crash
// mid-append) is skipped, not an error: the record it would have been
// was by definition not durable. An undecodable line with records after
// it is ErrWALCorrupt. Replay reads through its own file handle and
// takes no lock: Append writes each line in one call, so a concurrent
// append can only show up as a torn final line.
func (w *FileWAL) Replay(fn func(*Record) error) error {
	f, err := os.Open(w.path)
	if err != nil {
		return fmt.Errorf("dispatch: wal replay: %w", err)
	}
	defer f.Close()
	var r Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	badLine := 0 // 1-based number of an undecodable line, 0 if none so far
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if badLine != 0 {
			return fmt.Errorf("%w: line %d is undecodable and line %d follows it", ErrWALCorrupt, badLine, line)
		}
		r = Record{}
		if err := json.Unmarshal(b, &r); err != nil {
			badLine = line
			continue
		}
		if err := fn(&r); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dispatch: wal replay: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Recovery is what a restarted controller learns from its journal.
type Recovery struct {
	// Epoch is the highest epoch number granted before the crash; the
	// recovered controller resumes numbering strictly above it.
	Epoch uint64
	// Committed is the last vector that fully committed (nil if none
	// ever did), with its epoch.
	Committed      *dcqcn.Params
	CommittedEpoch uint64
	// InFlight is the intent of a rollout that neither committed nor
	// aborted — the crash caught it mid-flight — along with the last
	// phase it was known to have entered.
	InFlight      *Record
	InFlightPhase string
	// Replayed counts records read.
	Replayed int
}

// Recover streams w and folds it into the state a restarting controller
// needs: where epoch numbering left off, what the fabric last agreed
// on, and whether a rollout was orphaned mid-flight. It holds the
// committed vector and the in-flight intent as values while it reads,
// so its memory does not grow with the journal.
func Recover(w WAL) (Recovery, error) {
	var rec Recovery
	var committed, intentParams dcqcn.Params
	var intent Record
	haveCommitted, inFlight := false, false
	err := w.Replay(func(r *Record) error {
		rec.Replayed++
		if r.Epoch > rec.Epoch {
			rec.Epoch = r.Epoch
		}
		switch r.Kind {
		case KindIntent:
			intent = *r
			if r.Params != nil {
				intentParams = *r.Params
				intent.Params = &intentParams
			}
			inFlight = true
			rec.InFlightPhase = ""
		case KindPhase:
			if inFlight && r.Epoch == intent.Epoch {
				rec.InFlightPhase = r.Phase
			}
		case KindCommit:
			if r.Params != nil {
				committed = *r.Params
				haveCommitted = true
				rec.CommittedEpoch = r.Epoch
			}
			if inFlight && r.Epoch == intent.Epoch {
				inFlight = false
				rec.InFlightPhase = ""
			}
		case KindAbort:
			if inFlight && r.Epoch == intent.Epoch {
				inFlight = false
				rec.InFlightPhase = ""
			}
		}
		return nil
	})
	if err != nil {
		return Recovery{}, err
	}
	if haveCommitted {
		rec.Committed = &committed
	}
	if inFlight {
		rec.InFlight = &intent
	}
	return rec, nil
}
