package serve

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfda/internal/query"
	"avfda/internal/snapshot2"
)

// countSnapshotMappings counts live .avsnap2 mappings in this process
// (linux-only; other platforms load v2 snapshots onto the heap).
func countSnapshotMappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatalf("read /proc/self/maps: %v", err)
	}
	return strings.Count(string(maps), ".avsnap2")
}

// TestEvictionChurnMappedViews is the mapped-view lifecycle test: a
// capacity-1 cache churned across many v2-backed seeds by concurrent
// requests, with queries still running against studies that have already
// been evicted. It pins the two halves of the release contract:
//
//  1. Safety — an evicted study's mapping stays valid while any request
//     still references its engine (the finalizer cannot run while a
//     reference is live), so no Get or query here can fault or misread.
//  2. Boundedness — once references drop, the finalizer on the view's
//     mapping owner unmaps; the number of live .avsnap2 mappings
//     converges to a small constant (resident + in-flight) rather than
//     growing with every seed ever served. OpenSeed keeps no file descriptor at all (the fd is closed
//     as soon as the mapping exists), so fd exhaustion is structurally
//     impossible regardless of churn.
func TestEvictionChurnMappedViews(t *testing.T) {
	const seeds = 8
	dir := t.TempDir()
	db := testDB(t)
	for seed := int64(1); seed <= seeds; seed++ {
		if _, err := snapshot2.WriteSeed(dir, seed, db); err != nil {
			t.Fatal(err)
		}
	}
	var builds atomic.Int64
	cache, err := NewSnapshotCache(testBuilder(t, &builds, 0), 1, dir)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers    = 8
		iterations = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iterations; i++ {
				seed := int64((g*7+i*3)%seeds) + 1
				study, err := cache.Get(ctx, seed)
				if err != nil {
					errs <- fmt.Errorf("worker %d get seed %d: %w", g, seed, err)
					return
				}
				// Query through the engine after the Get returned — by now
				// another worker has likely evicted this study, so this
				// exercises exactly the evicted-but-referenced window.
				page, err := study.Engine.Events(query.Filter{}, query.Page{Limit: 3})
				if err != nil || page.Total != 3 {
					errs <- fmt.Errorf("worker %d query seed %d: total %d, err %w", g, seed, page.Total, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if builds.Load() != 0 {
		t.Errorf("pipeline builds = %d, want 0 (every seed was snapshot-backed)", builds.Load())
	}
	stats := cache.Stats()
	if stats.Evictions == 0 || stats.Snapshot2Loads == 0 {
		t.Fatalf("stats = %+v: churn test never churned", stats)
	}
	if stats.Resident > 1 {
		t.Errorf("resident = %d, want <= 1 (capacity)", stats.Resident)
	}

	if runtime.GOOS != "linux" {
		t.Skip("mapping-count check needs /proc/self/maps")
	}
	// Boundedness: after references drop, the GC cycle that finds a view
	// unreachable queues its mapping owner's finalizer, which unmaps. Poll
	// a few cycles, since the finalizer goroutine runs after the cycle
	// returns, and require convergence well below the number of loads.
	limit := 2 // resident study + one straggler whose unmap has not run yet
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := countSnapshotMappings(t); n <= limit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live .avsnap2 mappings = %d after churn (loads=%d, evictions=%d); want <= %d — evicted views are not being released",
				countSnapshotMappings(t), stats.Snapshot2Loads, stats.Evictions, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
