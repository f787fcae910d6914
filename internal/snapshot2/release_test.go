package snapshot2

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"avfda/internal/core"
)

// TestDroppedViewFreedInOneGCCycle pins the release path an evicted study
// takes: once the last reference to a mapped View is dropped, a single GC
// cycle frees the View together with its materialized database. The probe
// finalizer on the database can only be queued in the cycle that finds
// the database unreachable; if anything with a finalizer still reached it
// (as the View did when the unmapping finalizer sat on the View), that
// cycle would keep it alive and the probe would never fire without a
// second GC, which automatic collection is switched off to rule out.
func TestDroppedViewFreedInOneGCCycle(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSeed(dir, 1, testDB(3, 300, 12)); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	openMaterializeAndDrop(t, dir, freed)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("materialized database still reachable after one GC cycle: a dropped View must not outlive the cycle that finds it unreachable")
		case <-time.After(time.Millisecond):
		}
	}
}

// openMaterializeAndDrop maps the seed-1 snapshot in dir, materializes its
// database, arms a probe that closes freed when the database is
// collected, and returns with no reference to the View left behind.
//
//go:noinline
func openMaterializeAndDrop(t *testing.T, dir string, freed chan struct{}) {
	v, err := OpenSeed(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := v.Database()
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Events) != 300 {
		t.Fatalf("materialized %d events, want 300", len(db.Events))
	}
	runtime.SetFinalizer(db, func(*core.DB) { close(freed) })
}
