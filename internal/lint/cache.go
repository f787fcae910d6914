package lint

// Incremental findings cache: a content-hash-keyed per-package diagnostics
// store, so a warm `avlint -cache-dir …` re-analyzes only the packages
// whose inputs changed and the packages that depend on them.
//
// Soundness rests on one property every analyzer in the suite holds: a
// package's diagnostics are a pure function of (a) the analyzer set with
// versions, (b) the package's own files — tests included — and (c) the
// source of its transitive in-module import closure (the interprocedural
// and module-scope analyzers read dependency function bodies, never
// anything outside the closure). The cache key hashes exactly those
// inputs, plus the Go toolchain version standing in for the standard
// library. Editing one file therefore misses that package and every
// reverse dependency — their closure hashes change — while unrelated
// packages keep hitting; bumping an Analyzer.Version misses everything.
//
// Entries are written atomically (temp file + rename) and any unreadable,
// corrupt, or mismatched entry is a miss, never an error: the cache can
// slow a run down, but it can never change an answer. Findings are stored
// with module-root-relative filenames and re-anchored on load, so a hit
// reproduces the cold run's diagnostics byte for byte.
//
// The package listing those keys are computed from is memoized too (see
// listModule): it is keyed by everything `go list` reads — toolchain,
// selection environment, go.mod, and every .go file and directory in the
// module tree — so a fully warm run starts no subprocess at all.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// cacheSchema versions the entry format itself; bump it when the encoding
// or key recipe changes.
const cacheSchema = 1

// listingFile is the memoized package listing inside the cache directory,
// named apart from the per-package "<key>.json" entries. There is one per
// cache directory: a listing under a stale key is simply replaced.
const listingFile = "golist.memo"

// CacheStats reports one cached run's hit/miss split.
type CacheStats struct {
	// Hits and Misses count target packages served from / absent from the
	// cache.
	Hits, Misses int
	// MissPaths lists the re-analyzed packages' import paths, sorted.
	MissPaths []string
}

// cacheFinding is one stored diagnostic, with its file path relative to
// the module root so entries survive checkout moves.
type cacheFinding struct {
	File     string `json:"file"`
	Offset   int    `json:"offset"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// cacheEntry is one package's stored findings. Key is repeated inside the
// entry as a self-check against renamed or truncated files.
type cacheEntry struct {
	Key      string         `json:"key"`
	Findings []cacheFinding `json:"findings"`
}

// RunCachedTimed is RunTimed behind the findings cache: it lists the
// target packages, serves unchanged ones from cacheDir, loads and analyzes
// only the misses, refreshes their entries, and returns the merged
// diagnostics in the canonical order. Timings cover only the analyzers
// that actually ran (a fully warm run reports none).
func RunCachedTimed(dir, cacheDir string, workers int, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, Timings, CacheStats, error) {
	root, err := moduleRootDir(dir)
	if err != nil {
		return nil, nil, CacheStats{}, err
	}
	listing, err := listModule(dir, root, cacheDir, patterns)
	if err != nil {
		return nil, nil, CacheStats{}, err
	}
	h := &cacheHasher{
		root:    root,
		listed:  map[string]listedPkg{},
		content: map[string]string{},
		closure: map[string]string{},
	}
	// The patterns' own packages are the entries go list did not add as
	// dependencies; test variants ("pkg [pkg.test]", "pkg.test") are never
	// targets. For dependency resolution the variants fold onto their base
	// path, the same fold the loader applies, first (base) entry winning.
	var targets []listedPkg
	for _, p := range listing {
		base, _, variant := strings.Cut(p.ImportPath, " ")
		if strings.HasSuffix(base, ".test") {
			continue
		}
		if !p.DepOnly && !variant {
			targets = append(targets, p)
		}
		if _, ok := h.listed[base]; ok {
			continue
		}
		p.ImportPath = base
		h.listed[base] = p
	}

	descr := analyzerDescriptor(analyzers)
	keys := make([]string, len(targets))
	for i, t := range targets {
		k, err := h.targetKey(descr, t)
		if err != nil {
			return nil, nil, CacheStats{}, err
		}
		keys[i] = k
	}

	var diags []Diagnostic
	stats := CacheStats{}
	missIdx := make([]int, 0, len(targets))
	for i, t := range targets {
		if found, ok := readCacheEntry(cacheDir, keys[i], root); ok {
			stats.Hits++
			diags = append(diags, found...)
			continue
		}
		stats.Misses++
		stats.MissPaths = append(stats.MissPaths, t.ImportPath)
		missIdx = append(missIdx, i)
	}
	sort.Strings(stats.MissPaths)

	times := Timings{}
	if len(missIdx) > 0 {
		missPaths := make([]string, len(missIdx))
		dirOf := map[string]int{}
		for j, i := range missIdx {
			missPaths[j] = targets[i].ImportPath
			dirOf[targets[i].Dir] = i
		}
		pkgs, err := LoadModuleParallel(dir, workers, missPaths...)
		if err != nil {
			return nil, nil, CacheStats{}, err
		}
		fresh, t, err := RunTimed(pkgs, analyzers, workers)
		if err != nil {
			return nil, nil, CacheStats{}, err
		}
		times = t
		// Group the fresh diagnostics back onto their targets (analyzers
		// only report at positions inside the package's own directory) and
		// refresh each missed entry — zero-finding packages included, or
		// they would miss forever.
		byTarget := map[int][]Diagnostic{}
		for _, d := range fresh {
			i, ok := dirOf[filepath.Dir(d.Pos.Filename)]
			if !ok {
				return nil, nil, CacheStats{}, fmt.Errorf("lint: cache: diagnostic outside any target: %s", d.Pos.Filename)
			}
			byTarget[i] = append(byTarget[i], d)
		}
		for _, i := range missIdx {
			if err := writeCacheEntry(cacheDir, keys[i], root, byTarget[i]); err != nil {
				return nil, nil, CacheStats{}, err
			}
		}
		diags = append(diags, fresh...)
	}
	sortDiagnostics(diags)
	return diags, times, stats, nil
}

// analyzerDescriptor renders the analyzer set as a stable "name@version"
// list for the cache key.
func analyzerDescriptor(analyzers []*Analyzer) string {
	parts := make([]string, len(analyzers))
	for i, a := range analyzers {
		parts[i] = fmt.Sprintf("%s@%d", a.Name, a.Version)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// cacheHasher memoizes per-package content and transitive closure hashes
// for one run.
type cacheHasher struct {
	root    string
	listed  map[string]listedPkg
	content map[string]string
	closure map[string]string
}

// targetKey derives one target package's cache key: schema, toolchain,
// analyzer set, import path, the package's own content (test files
// included), and the closure hashes of its in-module imports (test
// imports included — in-package tests type-check against them).
func (h *cacheHasher) targetKey(descr string, t listedPkg) (string, error) {
	sum := sha256.New()
	fmt.Fprintf(sum, "schema %d\ngo %s\nanalyzers %s\npackage %s\n",
		cacheSchema, runtime.Version(), descr, t.ImportPath)
	files := append(append(append([]string{}, t.GoFiles...), t.TestGoFiles...), t.XTestGoFiles...)
	content, err := h.contentHash(t.ImportPath+" (target)", t.Dir, files)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(sum, "content %s\n", content)
	imports := append(append(append([]string{}, t.Imports...), t.TestImports...), t.XTestImports...)
	sort.Strings(imports)
	prev := ""
	for _, imp := range imports {
		if imp == prev || imp == t.ImportPath {
			continue
		}
		prev = imp
		c, err := h.closureHash(imp)
		if err != nil {
			return "", err
		}
		if c == "" {
			continue // stdlib or unlisted: covered by the toolchain version
		}
		fmt.Fprintf(sum, "dep %s %s\n", imp, c)
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// closureHash hashes an in-module dependency's own sources plus,
// transitively, everything it imports in-module. "" for stdlib and
// unlisted paths. Import graphs are acyclic, so plain recursion with
// memoization terminates.
func (h *cacheHasher) closureHash(path string) (string, error) {
	if c, ok := h.closure[path]; ok {
		return c, nil
	}
	lp, ok := h.listed[path]
	if !ok || lp.Standard {
		h.closure[path] = ""
		return "", nil
	}
	sum := sha256.New()
	content, err := h.contentHash(path, lp.Dir, lp.GoFiles)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(sum, "content %s\n", content)
	imports := append([]string{}, lp.Imports...)
	sort.Strings(imports)
	prev := ""
	for _, imp := range imports {
		if imp == prev {
			continue
		}
		prev = imp
		c, err := h.closureHash(imp)
		if err != nil {
			return "", err
		}
		if c != "" {
			fmt.Fprintf(sum, "dep %s %s\n", imp, c)
		}
	}
	c := hex.EncodeToString(sum.Sum(nil))
	h.closure[path] = c
	return c, nil
}

// contentHash hashes a package's files: for each, the module-root-relative
// name and the bytes. Memoized under memoKey (targets hash test files on
// top of what the dep view hashes, so the two views get distinct keys).
func (h *cacheHasher) contentHash(memoKey, dir string, files []string) (string, error) {
	if c, ok := h.content[memoKey]; ok {
		return c, nil
	}
	sorted := append([]string{}, files...)
	sort.Strings(sorted)
	sum := sha256.New()
	for _, f := range sorted {
		full := filepath.Join(dir, f)
		buf, err := os.ReadFile(full)
		if err != nil {
			return "", fmt.Errorf("lint: cache: %w", err)
		}
		fmt.Fprintf(sum, "file %s %d\n", h.relPath(full), len(buf))
		sum.Write(buf)
	}
	c := hex.EncodeToString(sum.Sum(nil))
	h.content[memoKey] = c
	return c, nil
}

// relPath renders path relative to the module root (slash-separated);
// paths outside the root stay absolute.
func (h *cacheHasher) relPath(path string) string {
	if rel, err := filepath.Rel(h.root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// readCacheEntry loads one package's findings by key. Any failure —
// missing file, corrupt JSON, key mismatch — is a miss, never an error.
func readCacheEntry(cacheDir, key, root string) ([]Diagnostic, bool) {
	buf, err := os.ReadFile(filepath.Join(cacheDir, key+".json"))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(buf, &e); err != nil || e.Key != key {
		return nil, false
	}
	diags := make([]Diagnostic, 0, len(e.Findings))
	for _, f := range e.Findings {
		name := filepath.FromSlash(f.File)
		if !filepath.IsAbs(name) {
			name = filepath.Join(root, name)
		}
		diags = append(diags, Diagnostic{
			Analyzer: f.Analyzer,
			Pos: token.Position{
				Filename: name,
				Offset:   f.Offset,
				Line:     f.Line,
				Column:   f.Column,
			},
			Message: f.Message,
		})
	}
	return diags, true
}

// writeCacheEntry stores one package's findings atomically: temp file in
// the cache directory, then rename.
func writeCacheEntry(cacheDir, key, root string, diags []Diagnostic) error {
	e := cacheEntry{Key: key, Findings: make([]cacheFinding, 0, len(diags))}
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		} else {
			name = filepath.ToSlash(name)
		}
		e.Findings = append(e.Findings, cacheFinding{
			File:     name,
			Offset:   d.Pos.Offset,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	buf, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(cacheDir, key+".json", append(buf, '\n'))
}

// writeFileAtomic writes one cache file: temp file in the cache directory,
// then rename, so a concurrent reader sees the old bytes or the new ones.
func writeFileAtomic(cacheDir, name string, buf []byte) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return fmt.Errorf("lint: cache: %w", err)
	}
	tmp, err := os.CreateTemp(cacheDir, "entry-*.tmp")
	if err != nil {
		return fmt.Errorf("lint: cache: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("lint: cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lint: cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(cacheDir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lint: cache: %w", err)
	}
	return nil
}

// moduleRootDir resolves the root directory of the module containing dir:
// the nearest directory at or above it holding a go.mod.
func moduleRootDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for d := abs; ; {
		if st, err := os.Stat(filepath.Join(d, "go.mod")); err == nil && !st.IsDir() {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// moduleListing is the memoized answer of one `go list -deps -test` run.
type moduleListing struct {
	Key  string      `json:"key"`
	Pkgs []listedPkg `json:"pkgs"`
}

// listModule returns `go list -deps -test` over patterns: the targets
// (DepOnly false) and everything they reach, test-only dependencies
// included. The answer is memoized in cacheDir under listingKey, so it is
// reused until something go list reads changes; an unreadable or stale
// memo is a miss, never an error.
func listModule(dir, root, cacheDir string, patterns []string) ([]listedPkg, error) {
	key, err := listingKey(dir, root, patterns)
	if err != nil {
		return nil, err
	}
	if buf, err := os.ReadFile(filepath.Join(cacheDir, listingFile)); err == nil {
		var memo moduleListing
		if json.Unmarshal(buf, &memo) == nil && memo.Key == key {
			return memo.Pkgs, nil
		}
	}
	pkgs, err := goList(dir, append([]string{"-deps", "-test",
		"-json=ImportPath,Dir,DepOnly,Standard,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports"},
		patterns...))
	if err != nil {
		return nil, err
	}
	buf, err := json.Marshal(moduleListing{Key: key, Pkgs: pkgs})
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(cacheDir, listingFile, buf); err != nil {
		return nil, err
	}
	return pkgs, nil
}

// listingKey hashes every input that can change what `go list` answers
// for patterns run in dir: the toolchain, the environment that steers
// package selection (GO* variables, CGO_ENABLED, the go env file), the
// module's go.mod and go.sum, and the name and bytes of every .go file
// and the name of every directory under the module root. The tree walk
// skips only dot-directories (.git, the cache itself), which the go tool
// never matches; hashing a superset of what go list reads costs a little
// time, never correctness.
func listingKey(dir, root string, patterns []string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	sum := sha256.New()
	fmt.Fprintf(sum, "schema %d\ngo %s %s/%s\nroot %s\ndir %s\n",
		cacheSchema, runtime.Version(), runtime.GOOS, runtime.GOARCH, root, abs)
	for _, p := range patterns {
		fmt.Fprintf(sum, "pattern %q\n", p)
	}
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GO") || strings.HasPrefix(kv, "CGO_ENABLED=") {
			env = append(env, kv)
		}
	}
	sort.Strings(env)
	for _, kv := range env {
		fmt.Fprintf(sum, "env %q\n", kv)
	}
	envFile := os.Getenv("GOENV")
	if envFile == "" {
		if cfg, err := os.UserConfigDir(); err == nil {
			envFile = filepath.Join(cfg, "go", "env")
		}
	}
	for _, f := range []string{envFile, filepath.Join(root, "go.mod"), filepath.Join(root, "go.sum")} {
		if f == "" || f == "off" {
			continue
		}
		if err := hashFile(sum, f, f); err != nil && !os.IsNotExist(err) {
			return "", fmt.Errorf("lint: cache: %w", err)
		}
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir():
			fmt.Fprintf(sum, "dir %s\n", rel)
		case strings.HasSuffix(d.Name(), ".go"):
			return hashFile(sum, path, rel)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("lint: cache: %w", err)
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// hashFile writes one file's name, length and bytes to w.
func hashFile(w io.Writer, path, name string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "file %s %d\n", name, len(buf))
	_, err = w.Write(buf)
	return err
}
