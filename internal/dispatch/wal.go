package dispatch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"unsafe"

	"repro/internal/dcqcn"
)

// KindCommit is the kind of every record the pipeline and the daemon
// write: one per dispatch, journaled before any device sees its epoch.
const KindCommit = "commit"

// Record is one write-ahead log entry. T is the loop's clock (engine
// nanoseconds in the simulator, wall time in the daemon); a simulated
// log replays identically across restarts.
type Record struct {
	T     int64  `json:"t"`
	Kind  string `json:"kind"`
	Epoch uint64 `json:"epoch"`
	// Params is the dispatched vector, and Hash its VectorHash.
	Params *dcqcn.Params `json:"params,omitempty"`
	Hash   uint64        `json:"hash,omitempty"`
	// Reason is "restore" on a rollback's record.
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
// record per line, on stable storage when Append returns. The file grows
// in zero-filled chunks of walChunk bytes, each written and synced once,
// so an append neither changes the file's size nor allocates blocks: it
// copies the record into a copy of the tail block and writes that block
// (two when the record crosses a boundary) back at its aligned offset
// through a descriptor opened O_DSYNC, and O_DIRECT when the filesystem
// accepts it. That one write is the whole sync: no filesystem-journal
// commit, and no page-cache copy of the journal. The logical end of the
// journal is just past the last newline before the zero padding.
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
	// end is the logical end; size is the end of the zero-filled space.
	end, size int64
	// tail holds the file's bytes from the start of the block that
	// holds end up to end, and zeros after them. Like zeros, one chunk
	// of zeros made at the first growth, it is block-aligned in memory,
	// as O_DIRECT requires.
	tail, zeros []byte
}

const (
	walBlock = 4096
	walChunk = 256 << 10
)

// walDirect is the O_DIRECT flag OpenFileWAL tries first: oDirect, 0
// where the platform has none.
var walDirect = oDirect

// ErrWALCorrupt is returned (wrapped, with the line number) by
// FileWAL.Replay when an undecodable line is followed by further records:
// that is damage inside the journal, not a torn final append, and
// replaying around it would silently drop or reorder commits.
var ErrWALCorrupt = errors.New("dispatch: wal corrupt")

// OpenFileWAL opens (creating if needed) the journal at path. Existing
// records are preserved; Replay reads them. A final line that does not
// decode (a NUL hole, or bytes with no newline after them) is a torn
// append from a crash — Append never returned for it — and the logical
// end is cut before it, so the next Append overwrites it instead of
// fusing with it. A plain JSON-lines file with no padding opens too.
func OpenFileWAL(path string) (*FileWAL, error) {
	flags := os.O_CREATE | os.O_RDWR | oDSync
	f, err := os.OpenFile(path, flags|walDirect, 0o644)
	if err != nil && walDirect != 0 {
		f, err = os.OpenFile(path, flags, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("dispatch: open wal: %w", err)
	}
	w := &FileWAL{path: path, f: f, tail: alignedBlocks(2)}
	if err := w.findEnd(); err != nil {
		f.Close()
		return nil, fmt.Errorf("dispatch: open wal: %w", err)
	}
	w.enc = json.NewEncoder(&w.buf)
	return w, nil
}

// findEnd reads size, the logical end and the tail block from the file.
func (w *FileWAL) findEnd() error {
	r, err := os.Open(w.path)
	if err != nil {
		return err
	}
	defer r.Close()
	st, err := r.Stat()
	if err != nil {
		return err
	}
	w.size = st.Size()
	buf := make([]byte, walBlock)
	last, err := scanBack(r, w.size, buf, func(b byte) bool { return b != 0 })
	if err != nil {
		return err
	}
	isNewline := func(b byte) bool { return b == '\n' }
	end, err := scanBack(r, last, buf, isNewline)
	if err != nil || end == 0 {
		return err
	}
	start, err := scanBack(r, end-1, buf, isNewline)
	if err != nil {
		return err
	}
	line := make([]byte, end-1-start)
	if _, err := r.ReadAt(line, start); err != nil {
		return err
	}
	var rec Record
	if json.Unmarshal(line, &rec) != nil {
		end = start
	}
	w.end = end
	base := end &^ (walBlock - 1)
	_, err = r.ReadAt(w.tail[:end-base], base)
	return err
}

// scanBack returns the offset just past the last byte before off for
// which keep is true, or 0 if there is none.
func scanBack(r io.ReaderAt, off int64, buf []byte, keep func(byte) bool) (int64, error) {
	for off > 0 {
		n := min(int64(len(buf)), off)
		if _, err := r.ReadAt(buf[:n], off-n); err != nil {
			return 0, err
		}
		for i := n - 1; i >= 0; i-- {
			if keep(buf[i]) {
				return off - n + i + 1, nil
			}
		}
		off -= n
	}
	return 0, nil
}

// alignedBlocks returns k zeroed blocks starting at a block-aligned
// address.
func alignedBlocks(k int) []byte {
	b := make([]byte, (k+1)*walBlock)
	off := -int(uintptr(unsafe.Pointer(&b[0]))) & (walBlock - 1)
	return b[off : off+k*walBlock : off+k*walBlock]
}

// Append writes r as one JSON line and returns once it is on stable
// storage. A crash mid-write can tear only the blocks written, whose
// earlier bytes are rewritten as they were, so it can cost only r. After
// a failed write the next Append rewrites the same blocks whole.
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
	line := w.buf.Bytes()
	base := w.end &^ (walBlock - 1)
	o := int(w.end - base)
	n := (o + len(line) + walBlock - 1) &^ (walBlock - 1)
	if err := w.grow(base + int64(n)); err != nil {
		return fmt.Errorf("dispatch: wal grow: %w", err)
	}
	if n > len(w.tail) {
		t := alignedBlocks(n / walBlock)
		copy(t, w.tail[:o])
		w.tail = t
	}
	copy(w.tail[o:], line)
	if _, err := w.f.WriteAt(w.tail[:n], base); err != nil {
		clear(w.tail[o:n])
		return fmt.Errorf("dispatch: wal append: %w", err)
	}
	w.end += int64(len(line))
	if done := int(w.end&^(walBlock-1) - base); done > 0 {
		k := copy(w.tail, w.tail[done:n])
		clear(w.tail[k:n])
	}
	return nil
}

// grow extends the zero-filled space to at least need bytes, in whole
// chunks written through the journal's own descriptor.
func (w *FileWAL) grow(need int64) error {
	if need <= w.size {
		return nil
	}
	if w.zeros == nil {
		w.zeros = alignedBlocks(walChunk / walBlock)
	}
	// A plain JSON-lines file ends mid-block; its last block is already
	// allocated.
	for off := (w.size + walBlock - 1) &^ (walBlock - 1); off < need; off += walChunk {
		if _, err := w.f.WriteAt(w.zeros, off); err != nil {
			return err
		}
		w.size = off + walChunk
	}
	return nil
}

// Replay decodes the journal up to its logical end line by line into one
// reused Record and visits each. An undecodable final line (damage the
// journal's open did not see) is skipped, not an error. An undecodable
// line with records after it is ErrWALCorrupt. Replay reads through its
// own file handle and holds the lock only to read the logical end, so it
// visits the records appended before it was called.
func (w *FileWAL) Replay(fn func(*Record) error) error {
	w.mu.Lock()
	end := w.end
	w.mu.Unlock()
	f, err := os.Open(w.path)
	if err != nil {
		return fmt.Errorf("dispatch: wal replay: %w", err)
	}
	defer f.Close()
	var r Record
	sc := bufio.NewScanner(io.NewSectionReader(f, 0, end))
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

// Close releases the journal file. The zero padding stays; the next
// OpenFileWAL finds the logical end before it.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Recovery is what a restarted controller learns from its journal.
type Recovery struct {
	// Epoch is the highest epoch number in the journal; the recovered
	// controller resumes numbering strictly above it.
	Epoch uint64
	// Committed is the last vector journaled (nil if none was): the
	// last one any device was sent.
	Committed *dcqcn.Params
	// Replayed counts records read.
	Replayed int
}

// Recover streams w and folds it into the state a restarting controller
// needs: where epoch numbering left off and what the fabric was last
// sent. It holds the last vector as a value while it reads, so its
// memory does not grow with the journal. A nil WAL holds nothing.
func Recover(w WAL) (Recovery, error) {
	var rec Recovery
	if w == nil {
		return rec, nil
	}
	var committed dcqcn.Params
	err := w.Replay(func(r *Record) error {
		rec.Replayed++
		rec.Epoch = max(rec.Epoch, r.Epoch)
		if r.Kind == KindCommit && r.Params != nil {
			committed = *r.Params
			rec.Committed = &committed
		}
		return nil
	})
	if err != nil {
		return Recovery{}, err
	}
	return rec, nil
}
