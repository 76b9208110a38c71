package dispatch

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/dcqcn"
)

// TestFileWALShortWriteLosesNothing: the journal's growth runs into the
// file-size limit (as into ENOSPC) and fails its Append, which may leave
// part of a zero chunk written. Neither the records before it nor the one
// appended after the limit is lifted may be lost.
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

	// Let 10 bytes of the next chunk through. Go programs ignore SIGXFSZ,
	// so a write past the limit fails with EFBIG.
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	short := lim
	short.Cur = uint64(st.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Fatal(err)
	}
	epoch, failed := uint64(1), false
	for i := 0; i < 2*walChunk/walBlock*16 && !failed; i++ {
		err = w.Append(Record{T: int64(epoch + 1), Kind: KindCommit, Epoch: epoch + 1, Params: &p})
		if err == nil {
			epoch++
		}
		failed = err != nil
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("the journal grew past the file-size limit")
	}
	if epoch < 2 {
		t.Fatalf("an append inside the first chunk failed: %v", err)
	}

	if err := w.Append(Record{T: int64(epoch + 2), Kind: KindCommit, Epoch: epoch + 2, Params: &p}); err != nil {
		t.Fatal(err)
	}
	for _, wal := range []*FileWAL{w, reopen(t, path)} {
		var epochs []uint64
		if err := wal.Replay(func(r *Record) error { epochs = append(epochs, r.Epoch); return nil }); err != nil {
			t.Fatal(err)
		}
		if uint64(len(epochs)) != epoch+1 || epochs[epoch-1] != epoch || epochs[epoch] != epoch+2 {
			t.Fatalf("replayed %d records ending %v, want epochs 1-%d then %d", len(epochs), epochs[max(0, len(epochs)-2):], epoch, epoch+2)
		}
	}
}

// reopen opens the journal at path again, as a restarted daemon would,
// and closes it when the test ends.
func reopen(t *testing.T, path string) *FileWAL {
	t.Helper()
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestFileWALDSyncOnly takes the open path of a filesystem that refuses
// O_DIRECT: the descriptor is O_DSYNC alone, and the journal keeps its
// layout and its crash behaviour.
func TestFileWALDSyncOnly(t *testing.T) {
	withoutDirectIO(t)
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w := reopen(t, path)
	flags, err := fcntlFlags(w.f)
	if err != nil {
		t.Fatal(err)
	}
	if flags&syscall.O_DIRECT != 0 || flags&syscall.O_DSYNC == 0 {
		t.Fatalf("descriptor flags %#x, want O_DSYNC without O_DIRECT", flags)
	}
	p := dcqcn.DefaultParams()
	for i := 1; i <= 20; i++ {
		if err := w.Append(Record{T: int64(i), Kind: KindCommit, Epoch: uint64(i), Params: &p}); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() != walChunk {
		t.Fatalf("journal size %v, %v; want one %d-byte chunk", st, err, walChunk)
	}
	appendRaw(t, w, `{"t":21,"kind":"com`)
	w2 := reopen(t, path)
	q := dcqcn.ExpertParams()
	if err := w2.Append(Record{T: 22, Kind: KindCommit, Epoch: 22, Params: &q}); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(reopen(t, path))
	if err != nil || rec.Replayed != 21 || rec.Epoch != 22 || rec.Committed == nil || *rec.Committed != q {
		t.Fatalf("recovery = %+v, %v", rec, err)
	}
}

// fcntlFlags reads f's file status flags.
func fcntlFlags(f *os.File) (int, error) {
	raw, err := f.SyscallConn()
	if err != nil {
		return 0, err
	}
	var flags uintptr
	var errno syscall.Errno
	if err := raw.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	}); err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	return int(flags), nil
}
