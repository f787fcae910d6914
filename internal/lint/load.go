// Package loading for avlint.
//
// The loader type-checks packages with the standard library only, which
// forces an unusual but fully offline strategy:
//
//   - Standard-library imports resolve through compiled export data located
//     by a single `go list -export -json std` invocation (the build cache
//     serves it without network access).
//   - In-module packages ("avfda/...") are type-checked from source,
//     recursively and memoized, so analyzers see real types.Info for any
//     dependency they care about (e.g. ontology.Category).
//   - Analyzer test fixtures live under testdata/src/<importpath> — the
//     go/analysis analysistest convention — and resolve fixture-root
//     imports first, so a fixture can stub "avfda/internal/ontology".
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked unit of analysis.
type Package struct {
	// Path is the import path; external test packages get a "_test" suffix.
	Path string
	// Dir is the directory the package's files live in.
	Dir string
	// Fset, Files, Types, Info mirror the Pass fields documented in lint.go.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Funcs indexes every function declaration the loader type-checked from
	// source — this package's and its in-module dependencies' — for the
	// interprocedural (generation-3) analyzers. Shared by all packages of
	// one Load call.
	Funcs *FuncIndex

	// sums lazily caches this package's interprocedural summaries. The
	// analyzers of one package run sequentially (runPackage), so no lock.
	sums *summaries
}

// FuncSource is one function declaration with the typing context it was
// checked under.
type FuncSource struct {
	// Decl is the declaration; Decl.Body is non-nil (bodyless declarations
	// are not indexed).
	Decl *ast.FuncDecl
	// Info holds the type-checker's facts for the declaring package.
	Info *types.Info
	// Path is the declaring package's import path.
	Path string
}

// A FuncIndex maps function objects to their source declarations across
// everything one loader type-checked from source. Functions that resolved
// through compiled export data (the standard library) are absent — callers
// treat a miss as an unknown callee and fall back to conservative
// assumptions. Lookups are safe for concurrent use.
type FuncIndex struct {
	mu    sync.RWMutex
	funcs map[*types.Func]FuncSource
	// paths lists each package's indexed functions in declaration order,
	// so module-scope analyzers (lockorder, atomicmix) can iterate every
	// source-checked function of a dependency deterministically.
	paths map[string][]*types.Func
}

func newFuncIndex() *FuncIndex {
	return &FuncIndex{
		funcs: map[*types.Func]FuncSource{},
		paths: map[string][]*types.Func{},
	}
}

// FuncsIn returns the indexed functions declared in the package with the
// given import path, in declaration (file, source) order. Nil when the
// path was not source-checked by this loader.
func (ix *FuncIndex) FuncsIn(path string) []*types.Func {
	if ix == nil {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.paths[path]
}

// Source returns the declaration of fn, if the loader checked it from
// source. Instantiated generics resolve through their origin.
func (ix *FuncIndex) Source(fn *types.Func) (FuncSource, bool) {
	if ix == nil || fn == nil {
		return FuncSource{}, false
	}
	fn = fn.Origin()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	src, ok := ix.funcs[fn]
	return src, ok
}

// record indexes every FuncDecl with a body in files, resolving each
// through info's Defs.
func (ix *FuncIndex) record(path string, files []*ast.File, info *types.Info) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				ix.funcs[fn] = FuncSource{Decl: fd, Info: info, Path: path}
				ix.paths[path] = append(ix.paths[path], fn)
			}
		}
	}
}

// listedPkg is the subset of `go list -json` output the loader and the
// findings cache consume.
type listedPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Standard     bool
}

// stdExports caches the stdlib export-data listing process-wide: `go list
// -export -json std` costs a subprocess plus a full stdlib walk, and every
// loader (one per LoadModule/LoadFixture call — the analyzer fixture tests
// alone create dozens) needs the identical answer.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "std").Output()
	if err != nil {
		return nil, fmt.Errorf("lint: listing stdlib export data: %w", err)
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
})

// importFlight is one in-progress or completed dependency resolution:
// the first goroutine to request a path does the work, later requesters
// wait on done and share the result.
type importFlight struct {
	done chan struct{}
	pkg  *types.Package
	err  error
}

// loader resolves imports for one Load call. Import is safe for concurrent
// use: per-path flights deduplicate work, the token.FileSet is internally
// synchronized, and the gc export-data importer (whose package map is not
// thread-safe) is serialized behind gcMu.
type loader struct {
	fset *token.FileSet
	// fixtureRoot, when non-empty, is a GOPATH-style src directory whose
	// packages shadow everything else (analysistest fixtures).
	fixtureRoot string
	// listed maps import paths to their go-list records for source
	// type-checking of in-module dependencies. Read-only after LoadModule's
	// setup phase.
	listed map[string]listedPkg
	// exports maps import paths to compiled export-data files (shared,
	// read-only, from stdExports).
	exports map[string]string

	// mu guards flights.
	mu      sync.Mutex
	flights map[string]*importFlight

	// gcMu serializes the gc importer, which memoizes in an unsynchronized
	// map.
	gcMu sync.Mutex
	gc   types.Importer

	// funcs indexes every source-checked function declaration (targets and
	// in-module dependencies) for the interprocedural analyzers.
	funcs *FuncIndex
}

func newLoader(fixtureRoot string) (*loader, error) {
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:        token.NewFileSet(),
		fixtureRoot: fixtureRoot,
		listed:      map[string]listedPkg{},
		exports:     exports,
		flights:     map[string]*importFlight{},
		funcs:       newFuncIndex(),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
	return l, nil
}

// Import implements types.Importer for dependency resolution during source
// type-checking: fixture root first, then in-module source, then stdlib
// export data. Concurrent imports of the same path coalesce onto one
// flight.
func (l *loader) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	if fl, ok := l.flights[path]; ok {
		l.mu.Unlock()
		<-fl.done
		return fl.pkg, fl.err
	}
	fl := &importFlight{done: make(chan struct{})}
	l.flights[path] = fl
	l.mu.Unlock()

	fl.pkg, fl.err = l.importUncached(path)
	close(fl.done)
	return fl.pkg, fl.err
}

func (l *loader) importUncached(path string) (*types.Package, error) {
	if l.fixtureRoot != "" {
		dir := filepath.Join(l.fixtureRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return l.checkDir(path, dir)
		}
	}
	if lp, ok := l.listed[path]; ok && !lp.Standard {
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		return l.checkSource(path, files)
	}
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.gc.Import(path)
}

// checkDir source-checks every non-test .go file in dir as package path.
func (l *loader) checkDir(path, dir string) (*types.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return l.checkSource(path, files)
}

// checkSource type-checks files as the dependency package path (memoization
// happens at the flight layer in Import). Dependencies keep full types.Info
// and land in the function index: the interprocedural analyzers summarize
// callee bodies in any in-module package, not just the analysis targets.
func (l *loader) checkSource(path string, files []string) (*types.Package, error) {
	asts, err := l.parse(files)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking dependency %s: %w", path, err)
	}
	l.funcs.record(path, asts, info)
	return pkg, nil
}

// newInfo allocates the types.Info map set the analyzers and summaries
// consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func (l *loader) parse(files []string) ([]*ast.File, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	return asts, nil
}

// check type-checks a target package (with full types.Info) from the given
// files.
func (l *loader) check(path, dir string, files []string) (*Package, error) {
	asts, err := l.parse(files)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.funcs.record(path, asts, info)
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: asts,
		Types: tpkg,
		Info:  info,
		Funcs: l.funcs,
	}, nil
}

// LoadModule loads the packages matching the go-list patterns (typically
// "./...") from the module rooted at or above dir, type-checking each
// together with its in-package test files; external (_test package) test
// files become a separate *Package with a "_test" path suffix. Targets are
// type-checked across GOMAXPROCS workers; use LoadModuleParallel to bound
// the pool.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	return LoadModuleParallel(dir, 0, patterns...)
}

// LoadModuleParallel is LoadModule with an explicit worker count for the
// target type-checking pool; workers <= 0 selects GOMAXPROCS. Results are
// in target order regardless of scheduling, and a target that fails to
// type-check always surfaces as an error (the first such, in target order)
// — never as a silently missing package.
func LoadModuleParallel(dir string, workers int, patterns ...string) ([]*Package, error) {
	l, err := newLoader("")
	if err != nil {
		return nil, err
	}

	// The two go-list invocations are independent; overlap them.
	type listResult struct {
		pkgs []listedPkg
		err  error
	}
	depc := make(chan listResult, 1)
	go func() {
		// Resolution set: every non-stdlib dependency reachable from the
		// targets, including test-only dependencies (-deps -test).
		pkgs, err := goList(dir, append([]string{"-deps", "-test", "-json=ImportPath,Dir,GoFiles,Standard"}, patterns...))
		depc <- listResult{pkgs, err}
	}()
	// Targets: the packages the patterns name.
	targets, err := goList(dir, append([]string{"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles"}, patterns...))
	dep := <-depc
	if err != nil {
		return nil, err
	}
	if dep.err != nil {
		return nil, dep.err
	}
	// Test-variant entries ("pkg [pkg.test]", "pkg.test") are folded onto
	// their base import path; the base entry wins when both appear.
	for _, p := range dep.pkgs {
		base, _, _ := strings.Cut(p.ImportPath, " ")
		if strings.HasSuffix(base, ".test") {
			continue
		}
		if _, ok := l.listed[base]; ok {
			continue
		}
		p.ImportPath = base
		l.listed[base] = p
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		workers = 1
	}

	// Fan the targets across the pool. results is indexed by target so the
	// output order (and the choice of which error wins) is deterministic.
	type targetResult struct {
		pkgs []*Package
		err  error
	}
	results := make([]targetResult, len(targets))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				pkgs, err := l.checkTarget(targets[i])
				results[i] = targetResult{pkgs, err}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var pkgs []*Package
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		pkgs = append(pkgs, r.pkgs...)
	}
	return pkgs, nil
}

// checkTarget type-checks one go-list target: the package with its
// in-package test files, plus the external test package when present.
func (l *loader) checkTarget(t listedPkg) ([]*Package, error) {
	var out []*Package
	files := make([]string, 0, len(t.GoFiles)+len(t.TestGoFiles))
	for _, f := range append(append([]string{}, t.GoFiles...), t.TestGoFiles...) {
		files = append(files, filepath.Join(t.Dir, f))
	}
	if len(files) > 0 {
		pkg, err := l.check(t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	if len(t.XTestGoFiles) > 0 {
		files = files[:0]
		for _, f := range t.XTestGoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := l.check(t.ImportPath+"_test", t.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadFixture loads analyzer test fixtures: each path is resolved as
// root/<path> (the analysistest testdata/src convention), and imports
// between fixture packages resolve under root before anything else.
func LoadFixture(root string, paths ...string) ([]*Package, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range paths {
		dir := filepath.Join(root, filepath.FromSlash(path))
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: fixture %s: %w", path, err)
		}
		var files []string
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		sort.Strings(files)
		pkg, err := l.check(path, dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list` in dir and decodes its JSON stream.
func goList(dir string, args []string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
