//go:build unix

package snapshot2

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
)

// Open maps the snapshot at path read-only and returns a validated View
// over the mapping. A missing file surfaces as fs.ErrNotExist (a plain
// cache-tier miss, not corruption); anything structurally wrong yields the
// package's typed errors. The mapping is released by Close or, failing
// that, by a finalizer on the View's small mapping owner, which runs in
// the GC cycle that finds the View unreachable — cache eviction can
// simply drop the View even while late readers hold materialized results,
// because nothing handed out aliases the mapped bytes. The finalizer is
// not on the View itself: that would keep the View's materialized
// database, posting lists and string cache alive for one more cycle.
//
// The length and checksum are validated against the mapped bytes before
// the View is returned, so a file truncated at write time is rejected here
// rather than faulting (SIGBUS) on a later page access; see DESIGN.md §7.
// Snapshots are replaced only by atomic rename, never truncated in place,
// so a validated mapping stays readable for its lifetime.
func Open(path string) (*View, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot2: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		// Zero-length mappings are invalid at the syscall level; a v2 file
		// is never empty, so classify it as the truncation it is.
		return nil, &FormatError{Reason: "empty file"}
	}
	if int64(int(size)) != size {
		return nil, &FormatError{Reason: "file too large to map"}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Filesystems without mmap support (or exhausted map areas) fall
		// back to a heap read: same validation, same View semantics.
		return openHeap(path)
	}
	v, verr := NewView(data)
	if verr != nil {
		syscall.Munmap(data)
		return nil, verr
	}
	v.owner = &mapping{data: data}
	runtime.SetFinalizer(v.owner, (*mapping).release)
	return v, nil
}

// mapping owns one read-only file mapping. It references nothing but the
// mapped bytes, so its finalizer pins no heap beyond itself.
type mapping struct {
	data     []byte
	released atomic.Bool
}

// release unmaps the bytes; it is idempotent, and the first call also
// clears the finalizer.
func (m *mapping) release() error {
	if !m.released.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	return syscall.Munmap(m.data)
}
