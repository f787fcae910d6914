//go:build !unix

package snapshot2

// Open loads and validates the snapshot at path. Platforms without the
// unix mmap surface read the file onto the heap; the View semantics —
// typed errors, lazy strings, zero-copy accessors over the loaded bytes —
// are identical, just without the page-cache residency win.
func Open(path string) (*View, error) {
	return openHeap(path)
}

// mapping is never created on these platforms: Open's views own no
// mapping, so Close has nothing to release.
type mapping struct{}

func (*mapping) release() error { return nil }
