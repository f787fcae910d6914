package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"avfda/internal/lint"
)

// writeCacheModule lays out a three-package throwaway module for the
// invalidation tests: a imports b (so editing b must re-analyze both),
// c is independent and carries the suite's canonical errsubstr violation
// so cached findings are observably non-empty.
func writeCacheModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module cachemod\n\ngo 1.22\n")
	write("b/b.go", "package b\n\nfunc Answer() int { return 42 }\n")
	write("a/a.go", "package a\n\nimport \"cachemod/b\"\n\nfunc Double() int { return 2 * b.Answer() }\n")
	write("c/c.go", `package c

import "strings"

func IsTimeout(err error) bool {
	return strings.Contains(err.Error(), "timeout")
}
`)
	return dir
}

// runCached is RunCachedTimed with the boilerplate folded away.
func runCached(t *testing.T, dir, cacheDir string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, lint.CacheStats) {
	t.Helper()
	diags, _, stats, err := lint.RunCachedTimed(dir, cacheDir, 0, analyzers, "./...")
	if err != nil {
		t.Fatal(err)
	}
	return diags, stats
}

// TestCacheColdWarmIdentical pins the cache's core contract: a cold cached
// run, a fully-warm run, and a plain uncached run over the same tree all
// return identical diagnostics, and the warm run touches no package.
func TestCacheColdWarmIdentical(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	pkgs, err := lint.LoadModuleParallel(dir, 0, "./...")
	if err != nil {
		t.Fatal(err)
	}
	uncached, _, err := lint.RunTimed(pkgs, analyzers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(uncached) == 0 {
		t.Fatal("fixture module produced no findings; the test needs at least one")
	}

	cold, stats := runCached(t, dir, cache, analyzers)
	if stats.Hits != 0 || stats.Misses != 3 {
		t.Errorf("cold run: %d hits, %d misses, want 0/3", stats.Hits, stats.Misses)
	}
	if !reflect.DeepEqual(cold, uncached) {
		t.Errorf("cold cached diagnostics differ from uncached:\ncached:   %v\nuncached: %v", cold, uncached)
	}

	warm, stats := runCached(t, dir, cache, analyzers)
	if stats.Hits != 3 || stats.Misses != 0 {
		t.Errorf("warm run: %d hits, %d misses, want 3/0", stats.Hits, stats.Misses)
	}
	if !reflect.DeepEqual(warm, uncached) {
		t.Errorf("warm cached diagnostics differ from uncached:\ncached:   %v\nuncached: %v", warm, uncached)
	}
}

// TestCacheEditInvalidation pins the dependency-closure rule: editing one
// file re-analyzes exactly that package and its reverse dependencies,
// while unrelated packages keep hitting.
func TestCacheEditInvalidation(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	runCached(t, dir, cache, analyzers) // populate
	if err := os.WriteFile(filepath.Join(dir, "b", "b.go"),
		[]byte("package b\n\nfunc Answer() int { return 43 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, stats := runCached(t, dir, cache, analyzers)
	wantMiss := []string{"cachemod/a", "cachemod/b"}
	if !reflect.DeepEqual(stats.MissPaths, wantMiss) {
		t.Errorf("after editing b: missed %v, want %v", stats.MissPaths, wantMiss)
	}
	if stats.Hits != 1 {
		t.Errorf("after editing b: %d hits, want 1 (cachemod/c untouched)", stats.Hits)
	}

	// The refreshed entries serve the next run in full.
	_, stats = runCached(t, dir, cache, analyzers)
	if stats.Hits != 3 || stats.Misses != 0 {
		t.Errorf("re-warm run: %d hits, %d misses, want 3/0", stats.Hits, stats.Misses)
	}
}

// TestCacheAnalyzerVersionBump pins that bumping an Analyzer.Version
// invalidates every entry: version participates in the key precisely so a
// changed analyzer can never serve stale findings.
func TestCacheAnalyzerVersionBump(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	base := *lint.ErrSubstr
	analyzers := []*lint.Analyzer{&base}

	runCached(t, dir, cache, analyzers)
	if _, stats := runCached(t, dir, cache, analyzers); stats.Hits != 3 {
		t.Fatalf("warm run before bump: %d hits, want 3", stats.Hits)
	}

	bumped := *lint.ErrSubstr
	bumped.Version++
	_, stats := runCached(t, dir, cache, []*lint.Analyzer{&bumped})
	if stats.Misses != 3 || stats.Hits != 0 {
		t.Errorf("after version bump: %d hits, %d misses, want 0/3", stats.Hits, stats.Misses)
	}
}

// TestCacheCorruptEntryIsMiss pins the robustness contract: truncated or
// garbage entries are silently re-analyzed, never an error and never
// wrong output.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	want, _ := runCached(t, dir, cache, analyzers)
	ents, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if err := os.WriteFile(filepath.Join(cache, e.Name()), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted != 3 {
		t.Fatalf("corrupted %d entries, want 3", corrupted)
	}

	got, stats := runCached(t, dir, cache, analyzers)
	if stats.Misses != 3 {
		t.Errorf("corrupt entries: %d misses, want 3", stats.Misses)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics after corruption differ:\ngot:  %v\nwant: %v", got, want)
	}
}

// listedImports reads the memoized package listing in cacheDir and
// returns the imports it records for path.
func listedImports(t *testing.T, cacheDir, path string) []string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(cacheDir, "golist.memo"))
	if err != nil {
		t.Fatal(err)
	}
	var memo struct {
		Pkgs []struct {
			ImportPath string
			Imports    []string
		} `json:"pkgs"`
	}
	if err := json.Unmarshal(buf, &memo); err != nil {
		t.Fatal(err)
	}
	for _, p := range memo.Pkgs {
		if p.ImportPath == path {
			return p.Imports
		}
	}
	t.Fatalf("listing has no %s", path)
	return nil
}

// TestCacheListingEditImport: editing an import re-lists the module, so
// the new edge is in the memo and a later edit to the imported package
// reaches the importer.
func TestCacheListingEditImport(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	runCached(t, dir, cache, analyzers) // populate
	if got := listedImports(t, cache, "cachemod/c"); !reflect.DeepEqual(got, []string{"strings"}) {
		t.Fatalf("c imports %v before the edit, want [strings]", got)
	}
	if err := os.WriteFile(filepath.Join(dir, "c", "c.go"), []byte(`package c

import (
	"strings"

	"cachemod/b"
)

func IsTimeout(err error) bool {
	return b.Answer() > 0 && strings.Contains(err.Error(), "timeout")
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stats := runCached(t, dir, cache, analyzers); !reflect.DeepEqual(stats.MissPaths, []string{"cachemod/c"}) {
		t.Errorf("after editing c's imports: missed %v, want [cachemod/c]", stats.MissPaths)
	}
	if got := listedImports(t, cache, "cachemod/c"); !reflect.DeepEqual(got, []string{"cachemod/b", "strings"}) {
		t.Errorf("memoized listing has c importing %v, want [cachemod/b strings]", got)
	}

	if err := os.WriteFile(filepath.Join(dir, "b", "b.go"),
		[]byte("package b\n\nfunc Answer() int { return 43 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats := runCached(t, dir, cache, analyzers)
	if want := []string{"cachemod/a", "cachemod/b", "cachemod/c"}; !reflect.DeepEqual(stats.MissPaths, want) {
		t.Errorf("after editing b: missed %v, want %v", stats.MissPaths, want)
	}
}

// TestCacheListingNewPackage: a package added to the tree is listed and
// analyzed on the next run instead of being hidden by the memo.
func TestCacheListingNewPackage(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	runCached(t, dir, cache, analyzers) // populate
	if err := os.MkdirAll(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "d", "d.go"),
		[]byte("package d\n\nfunc Zero() int { return 0 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats := runCached(t, dir, cache, analyzers)
	if !reflect.DeepEqual(stats.MissPaths, []string{"cachemod/d"}) || stats.Hits != 3 {
		t.Errorf("after adding d: %d hits, missed %v, want 3 hits and [cachemod/d]", stats.Hits, stats.MissPaths)
	}
}

// TestCacheListingGOFLAGS: build tags passed through GOFLAGS change which
// files go list selects, so they must re-list: the tagged file's finding
// appears instead of the untagged run's entry being served.
func TestCacheListingGOFLAGS(t *testing.T) {
	dir := writeCacheModule(t)
	if err := os.WriteFile(filepath.Join(dir, "c", "extra.go"), []byte(`//go:build extra

package c

import "strings"

func IsCanceled(err error) bool {
	return strings.Contains(err.Error(), "canceled")
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()
	t.Setenv("GOFLAGS", "")

	untagged, _ := runCached(t, dir, cache, analyzers)
	if _, stats := runCached(t, dir, cache, analyzers); stats.Hits != 3 {
		t.Fatalf("warm run without tags: %d hits, want 3", stats.Hits)
	}

	t.Setenv("GOFLAGS", "-tags=extra")
	tagged, stats := runCached(t, dir, cache, analyzers)
	if !reflect.DeepEqual(stats.MissPaths, []string{"cachemod/c"}) {
		t.Errorf("with -tags=extra: missed %v, want [cachemod/c]", stats.MissPaths)
	}
	inExtra := func(diags []lint.Diagnostic) bool {
		for _, d := range diags {
			if filepath.Base(d.Pos.Filename) == "extra.go" {
				return true
			}
		}
		return false
	}
	if inExtra(untagged) || !inExtra(tagged) {
		t.Errorf("extra.go findings: untagged %v, tagged %v; want only the tagged run", inExtra(untagged), inExtra(tagged))
	}
}

// TestCacheWarmRunStartsNoSubprocess: with the listing memoized, a fully
// warm run never starts the go tool — it still succeeds with no go on
// PATH. A corrupt memo is a miss that re-lists, not an error.
func TestCacheWarmRunStartsNoSubprocess(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	want, _ := runCached(t, dir, cache, analyzers) // populate
	path := os.Getenv("PATH")
	t.Setenv("PATH", t.TempDir())
	got, stats := runCached(t, dir, cache, analyzers)
	if stats.Hits != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("warm run without go on PATH: %d hits, diagnostics equal %v; want 3 and true", stats.Hits, reflect.DeepEqual(got, want))
	}

	t.Setenv("PATH", path)
	if err := os.WriteFile(filepath.Join(cache, "golist.memo"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats = runCached(t, dir, cache, analyzers)
	if stats.Hits != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("run over a corrupt listing memo: %d hits, diagnostics equal %v; want 3 and true", stats.Hits, reflect.DeepEqual(got, want))
	}
}

// lintRepoRoot walks up to the module root so the speedup test can run
// the cache over the real repository.
func lintRepoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestCacheRepoSpeedup pins the acceptance threshold the cache exists
// for: a fully-warm run over the unchanged repository must be at least 5x
// faster than the cold run that populated it. The margin is generous — in
// practice warm runs only hash files and read JSON — so a pass is
// scheduling noise, not luck.
func TestCacheRepoSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole repository twice; skipped in -short mode")
	}
	root := lintRepoRoot(t)
	cache := t.TempDir()
	analyzers := lint.All()

	coldStart := time.Now()
	coldDiags, _, coldStats, err := lint.RunCachedTimed(root, cache, 0, analyzers, "./...")
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)
	if coldStats.Hits != 0 {
		t.Fatalf("cold run had %d hits, want 0", coldStats.Hits)
	}

	warmStart := time.Now()
	warmDiags, _, warmStats, err := lint.RunCachedTimed(root, cache, 0, analyzers, "./...")
	if err != nil {
		t.Fatal(err)
	}
	warm := time.Since(warmStart)
	if warmStats.Misses != 0 {
		t.Fatalf("warm run missed %v, want none", warmStats.MissPaths)
	}
	if !reflect.DeepEqual(warmDiags, coldDiags) {
		t.Errorf("warm diagnostics differ from cold:\nwarm: %v\ncold: %v", warmDiags, coldDiags)
	}
	if warm*5 > cold {
		t.Errorf("warm run %v is not ≥5x faster than cold %v", warm, cold)
	}
	t.Logf("cold %v, warm %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
}
