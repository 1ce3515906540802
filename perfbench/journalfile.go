package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"unsafe"

	"soral/internal/obs/journal"
)

// journalFile is the episode journal: an anonymous memory-backed file
// (memfd_create), so the program still pays the write and fsync system
// calls of fsync=commit, while the shared disk's flush latency — a
// property of the machine, not of the program — stays out of the figures,
// and nothing is written outside the working tree.
type journalFile struct {
	f *os.File
}

func openJournalFile() (*journalFile, error) {
	var nr uintptr
	switch runtime.GOARCH {
	case "amd64":
		nr = 319
	case "arm64":
		nr = 279
	default:
		return nil, fmt.Errorf("memfd_create: no syscall number for GOARCH %s", runtime.GOARCH)
	}
	name, err := syscall.BytePtrFromString("perfbench-journal")
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	return &journalFile{f: os.NewFile(fd, "perfbench-journal")}, nil
}

// path names the file for journal.RecoverFile.
func (j *journalFile) path() string { return fmt.Sprintf("/proc/self/fd/%d", j.f.Fd()) }

// reset empties the file for the next episode.
func (j *journalFile) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	_, err := j.f.Seek(0, io.SeekStart)
	return err
}

func (j *journalFile) close() error { return j.f.Close() }

// fsType names the filesystem holding the journal, for the envelope.
func (j *journalFile) fsType() string {
	var st syscall.Statfs_t
	if err := syscall.Fstatfs(int(j.f.Fd()), &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// writer opens a journal writer on the file with fsync at every commit, the
// durable policy. With a tracer, the io.Writer and the Syncer are wrapped so
// each write and fsync becomes a span of the slot being committed.
func (j *journalFile) writer(tr *tracer) *journal.Writer {
	if tr == nil {
		return journal.NewWriter(j.f).WithSync(j.f, journal.SyncOnCommit())
	}
	return journal.NewWriter(tracedWriter{j.f, tr}).WithSync(tracedSyncer{j.f, tr}, journal.SyncOnCommit())
}

type tracedWriter struct {
	f  *os.File
	tr *tracer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	start := w.tr.now()
	n, err := w.f.Write(p)
	w.tr.journalWrite(start, w.tr.now(), n)
	return n, err
}

type tracedSyncer struct {
	f  *os.File
	tr *tracer
}

func (s tracedSyncer) Sync() error {
	start := s.tr.now()
	err := s.f.Sync()
	s.tr.journalFsync(start, s.tr.now())
	return err
}
