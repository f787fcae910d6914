package snapshot2

import (
	"context"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/synth"
)

// buildStudy runs the full Stage I-IV pipeline for a seed — the cost the
// snapshot tier exists to avoid.
func buildStudy(tb testing.TB, seed int64) *core.DB {
	tb.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: seed}
	cfg.OCR.Seed = seed
	res, err := pipeline.Run(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res.DB
}

// openV2 is the cold-open path avserve's snapshot tier takes: map,
// validate, and stand a query engine directly on the columns — no
// deserialization.
func openV2(tb testing.TB, dir string, seed int64) (*View, *query.Engine) {
	tb.Helper()
	v, err := OpenSeed(dir, seed)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := query.NewFromSource(v, v.Database)
	if err != nil {
		tb.Fatal(err)
	}
	return v, eng
}

// BenchmarkSnapshotV2Load measures the v2 warm-start path on the
// calibrated seed-1 study: map the file, checksum + structural validation,
// and engine construction over the raw columns. Compare against
// BenchmarkSnapshotPipelineRebuild; the acceptance bar — an open at least
// 100x faster than a rebuild — is pinned by TestSnapshotV2LoadSpeedup.
// The snapshot's byte size is reported alongside ns/op for the
// perf-trajectory artifact.
func BenchmarkSnapshotV2Load(b *testing.B) {
	dir := b.TempDir()
	if _, err := WriteSeed(dir, 1, buildStudy(b, 1)); err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := openV2(b, dir, 1)
		size = v.Size()
		v.Close()
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkSnapshotPipelineRebuild measures the cold path the snapshot
// replaces: a full pipeline run plus index build for the same seed.
func BenchmarkSnapshotPipelineRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := query.New(buildStudy(b, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupCount measures an unfiltered group-by on the calibrated
// seed-1 study over both engine shapes: query.New's heap columns and a
// mapped v2 snapshot. "tag" is a dictionary-coded column; "cause" is the
// free-text one. Each case reuses one engine, so a first call's one-off
// costs amortize over b.N.
func BenchmarkGroupCount(b *testing.B) {
	db := buildStudy(b, 1)
	dir := b.TempDir()
	if _, err := WriteSeed(dir, 1, db); err != nil {
		b.Fatal(err)
	}
	heap, err := query.New(db)
	if err != nil {
		b.Fatal(err)
	}
	v, mapped := openV2(b, dir, 1)
	defer v.Close()
	for _, eng := range []struct {
		name string
		*query.Engine
	}{{"heap", heap}, {"mapped", mapped}} {
		for _, by := range []string{"tag", "cause"} {
			b.Run(eng.name+"/"+by, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.GroupCount(query.Filter{}, by); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSnapshotV2Write measures the export cost avpipe -snapshot-out
// and the cache's v2 write-through tier pay per study.
func BenchmarkSnapshotV2Write(b *testing.B) {
	db := buildStudy(b, 1)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteSeed(dir, 1, db); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotV2LoadSpeedup pins the performance contract that justifies
// the snapshot tier: cold-opening a snapshot into a serving engine must be
// at least 100x faster than rebuilding the study through the pipeline
// (pipeline run plus query.New). Both sides are measured in this process
// on the calibrated seed-1 study, each doing everything its path does on
// a cache miss.
func TestSnapshotV2LoadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build in -short mode")
	}
	start := time.Now()
	db := buildStudy(t, 1)
	if _, err := query.New(db); err != nil {
		t.Fatal(err)
	}
	rebuild := time.Since(start)

	dir := t.TempDir()
	if _, err := WriteSeed(dir, 1, db); err != nil {
		t.Fatal(err)
	}
	// Warm the page cache so the timed opens are CPU-bound, the regime
	// that dominates once a replica has run for more than a moment.
	v, _ := openV2(t, dir, 1)
	v.Close()

	const loads = 5
	start = time.Now()
	for i := 0; i < loads; i++ {
		v, _ := openV2(t, dir, 1)
		v.Close()
	}
	open := time.Since(start) / loads

	t.Logf("pipeline rebuild %v, mapped open %v (%.0fx)", rebuild, open, float64(rebuild)/float64(open))
	if open*100 > rebuild {
		t.Errorf("mapped open %v is not 100x faster than rebuild %v", open, rebuild)
	}
}
