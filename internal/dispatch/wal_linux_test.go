package dispatch

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/dcqcn"
)

// TestFileWALShortWriteLosesNothing: a short write (here at the file-size
// limit, as on ENOSPC) fails its Append and leaves part of a line at the
// end of the journal. The next Append must not fuse its record with that
// fragment: Recover must return it.
func TestFileWALShortWriteLosesNothing(t *testing.T) {
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
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Let 10 bytes of the next line through. Go programs ignore SIGXFSZ,
	// so the write past the limit fails with EFBIG.
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	short := lim
	short.Cur = uint64(st.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Fatal(err)
	}
	err = w.Append(Record{T: 2, Kind: KindEpoch, Epoch: 2})
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("append past the file-size limit succeeded")
	}
	if after, err := os.Stat(path); err != nil || after.Size() != st.Size()+10 {
		t.Fatalf("the short write did not leave a 10-byte fragment (stat %v, %v)", after, err)
	}

	if err := w.Append(Record{T: 3, Kind: KindCommit, Epoch: 3, Params: &p}); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommittedEpoch != 3 {
		t.Fatalf("recovered committed epoch %d, want 3: the appended commit was lost", rec.CommittedEpoch)
	}
}
