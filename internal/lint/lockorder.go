package lint

// lockorder builds a module-wide lock-ordering graph: for every function in
// the current package and its in-module import closure it records which
// locks are acquired while which others are held — interprocedurally,
// through lockSummary (callgraph.go) — and flags cycles in that graph as
// potential deadlocks, plus provable same-instance reacquisition of a
// non-reentrant mutex.
//
// Lock identity is the variable the mutex lives in: a struct field
// ((serve.Cache).mu) or a (package-level or local) variable. That makes the
// analysis instance-insensitive — all values of one field are one lock
// class — which is the right granularity for ordering: two goroutines
// locking different instances of the same two fields in opposite orders
// deadlock just the same. The one place instances matter is self-edges:
// reacquiring the same field on a *different* instance (child.mu under
// parent.mu) is legal tree-walking, so a same-lock edge is only reported
// when both acquisitions provably root at the same object.
//
// Reports are anchored to the current package: each pass folds the whole
// closure's edges into the graph but reports only the edges its own
// functions witness, so a cycle spanning packages is diagnosed exactly once
// per witnessing site and the result depends only on the package plus its
// dependency closure.
//
// Documented false negatives (DESIGN.md §26): locks reached through
// interface or func-value dispatch, locks acquired inside function
// literals and deferred calls, cycles between sibling packages with no
// import relationship, and opposite-order acquisition of the same two
// fields on swapped instances (Swap(a,b) vs Swap(b,a)).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"avfda/internal/lint/cfg"
)

// LockOrder flags lock-ordering cycles (potential deadlocks) in the
// module-wide acquisition graph and same-instance mutex reacquisition.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "builds the module-wide lock-ordering graph (which locks each function acquires " +
		"while holding which others, interprocedurally) and flags cycles as potential " +
		"deadlocks, plus same-instance reacquisition of a non-reentrant mutex",
	Run: runLockOrder,
}

// lockAcq is one lock acquisition a function may perform, directly or
// through its callees.
type lockAcq struct {
	lock *types.Var
	kind byte // 'W' (Lock) or 'R' (RLock)
	// pos is the ultimate acquire site (possibly in a callee's file).
	pos token.Pos
	// via is the call chain from the summarized function to the acquire,
	// outermost callee first; empty for a direct acquisition.
	via []string
	// recvRooted records that the acquisition's access path is rooted at
	// the summarized function's receiver, with recvSuffix the path below it
	// (".mu" for a receiver method locking c.mu), so callers can compose
	// same-instance facts through method chains.
	recvRooted bool
	recvSuffix string
}

// lockEdge is one witnessed ordering fact: `to` acquired while `from` was
// held, in the summarized function.
type lockEdge struct {
	from, to *types.Var
	// fromPos is the outer acquisition site, always in the witnessing
	// function.
	fromPos token.Pos
	// pos is the report site in the witnessing function: the inner acquire,
	// or the call that transitively acquires.
	pos token.Pos
	// innerPos is the ultimate inner acquire site (== pos for direct edges).
	innerPos token.Pos
	via      []string
	// self marks a provable same-instance reacquisition (from == to).
	self bool
}

// lockSummary is one function's lock facts: what it may acquire, and the
// ordering edges its own body witnesses.
type lockSummary struct {
	acquires []lockAcq
	edges    []lockEdge
}

// lockHeldKey identifies one held acquisition: the lock class plus the
// provable access path of the receiver expression — root object and
// rendered selector chain ("c", "c.mu" vs "c.next.mu"). The path keeps
// distinct instances of one lock field distinct for self-edge reasoning
// (locking n.next.mu under n.mu is tree-walking, not reacquisition); an
// unprovable path (index, call, or literal in the chain) is root nil,
// path "".
type lockHeldKey struct {
	lock *types.Var
	root types.Object
	path string
}

type lockHeldVal struct {
	pos  token.Pos
	kind byte
}

// lockOrderState is the may-held lock set at a program point.
type lockOrderState map[lockHeldKey]lockHeldVal

type lockAcqKey struct {
	lock *types.Var
	kind byte
}

type lockEdgeKey struct {
	from, to *types.Var
	pos      token.Pos
}

// computeLockSummary walks fn's CFG tracking the held-lock set and records
// both its transitive acquisitions and the ordering edges its body
// witnesses. Callee facts come from s.lock — nil (unknown callee, SCC mate)
// means "acquires nothing", the conservative false-negative fallback shared
// with the other gen-3 summaries.
func computeLockSummary(s *summaries, fn *types.Func, src FuncSource) *lockSummary {
	info := src.Info
	var recvObj types.Object
	var recvName string
	if r := src.Decl.Recv; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 1 {
		recvObj = info.ObjectOf(r.List[0].Names[0])
		recvName = r.List[0].Names[0].Name
	}

	g := cfg.New(src.Decl.Body)
	in := cfg.Forward(g, cfg.Flow[lockOrderState]{
		Entry: lockOrderState{},
		Transfer: func(n ast.Node, st lockOrderState) lockOrderState {
			return lockOrderTransfer(s, info, n, st)
		},
		Join:  joinLockOrder,
		Equal: equalLockOrder,
		Clone: cloneLockOrder,
	})

	sum := &lockSummary{}
	seenAcq := map[lockAcqKey]bool{}
	seenEdge := map[lockEdgeKey]bool{}
	for _, blk := range g.Blocks {
		st, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		st = cloneLockOrder(st)
		for _, n := range blk.Nodes {
			lockOrderRecord(s, info, recvObj, recvName, n, st, sum, seenAcq, seenEdge)
			st = lockOrderTransfer(s, info, n, st)
		}
	}
	return sum
}

// lockOrderRecord scans one block node with the held set st valid on entry
// to the node, recording acquisitions and ordering edges into sum.
func lockOrderRecord(s *summaries, info *types.Info, recvObj types.Object, recvName string, n ast.Node,
	st lockOrderState, sum *lockSummary, seenAcq map[lockAcqKey]bool, seenEdge map[lockEdgeKey]bool) {
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		// Another goroutine's stack, or run-at-exit semantics this analysis
		// does not model (deferred unlocks keep the lock held, which the
		// transfer function already encodes by ignoring defers).
		return
	}
	addAcq := func(a lockAcq) {
		k := lockAcqKey{a.lock, a.kind}
		if !seenAcq[k] {
			seenAcq[k] = true
			sum.acquires = append(sum.acquires, a)
		}
	}
	addEdge := func(e lockEdge) {
		k := lockEdgeKey{e.from, e.to, e.pos}
		if !seenEdge[k] {
			seenEdge[k] = true
			sum.edges = append(sum.edges, e)
		}
	}
	scanShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v, root, path, kind, acquire, isOp := lockOrderOp(s, info, call); isOp {
			if !acquire {
				return true
			}
			recvRooted := recvObj != nil && root == recvObj && path != ""
			a := lockAcq{lock: v, kind: kind, pos: call.Pos(), recvRooted: recvRooted}
			if recvRooted {
				a.recvSuffix = strings.TrimPrefix(path, recvName)
			}
			addAcq(a)
			for _, h := range sortedHeld(st) {
				if h.key.lock == v {
					// Same lock class: only a provable same-instance
					// reacquisition is a bug (locking n.next.mu under n.mu is
					// legal tree-walking), and at least one side must be a
					// write lock — nested RLocks alone do not self-deadlock.
					if root != nil && h.key.root == root && path != "" && h.key.path == path &&
						(kind == 'W' || h.val.kind == 'W') {
						addEdge(lockEdge{from: v, to: v, fromPos: h.val.pos,
							pos: call.Pos(), innerPos: call.Pos(), self: true})
					}
					continue
				}
				addEdge(lockEdge{from: h.key.lock, to: v, fromPos: h.val.pos,
					pos: call.Pos(), innerPos: call.Pos()})
			}
			return true
		}
		callee, operands := calleeFunc(info, call)
		sub := s.lock(callee)
		if sub == nil || len(sub.acquires) == 0 {
			return true
		}
		// The call's receiver access path, for composing same-instance facts
		// through method chains: with s.mu held, s.helper() reacquiring its
		// receiver's .mu resolves to the caller-frame path "s"+".mu".
		var callRecvRoot types.Object
		var callRecvPath string
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && len(operands) > 0 {
			callRecvRoot, callRecvPath = provableLockPath(info, operands[0])
		}
		for _, acq := range sub.acquires {
			via := append([]string{funcDisplay(callee)}, acq.via...)
			sameInst := acq.recvRooted && callRecvRoot != nil && callRecvPath != ""
			callerPath := ""
			if sameInst {
				callerPath = callRecvPath + acq.recvSuffix
			}
			for _, h := range sortedHeld(st) {
				if h.key.lock == acq.lock {
					if sameInst && h.key.root == callRecvRoot && h.key.path == callerPath &&
						(acq.kind == 'W' || h.val.kind == 'W') {
						addEdge(lockEdge{from: acq.lock, to: acq.lock, fromPos: h.val.pos,
							pos: call.Pos(), innerPos: acq.pos, via: via, self: true})
					}
					continue
				}
				addEdge(lockEdge{from: h.key.lock, to: acq.lock, fromPos: h.val.pos,
					pos: call.Pos(), innerPos: acq.pos, via: via})
			}
			up := lockAcq{lock: acq.lock, kind: acq.kind, pos: acq.pos, via: via,
				recvRooted: sameInst && recvObj != nil && callRecvRoot == recvObj}
			if up.recvRooted {
				up.recvSuffix = strings.TrimPrefix(callerPath, recvName)
			}
			addAcq(up)
		}
		return true
	})
}

// provableLockPath resolves an expression to a provable access path: the
// root object plus the rendered selector chain ("c", "c.next.mu"). Parens,
// address-of, and pointer derefs are transparent; any index, slice, call,
// or literal in the chain makes the instance unprovable (nil, "").
func provableLockPath(info *types.Info, e ast.Expr) (types.Object, string) {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(x); obj != nil {
			return obj, x.Name
		}
	case *ast.SelectorExpr:
		if root, p := provableLockPath(info, x.X); root != nil {
			return root, p + "." + x.Sel.Name
		}
	case *ast.ParenExpr:
		return provableLockPath(info, x.X)
	case *ast.StarExpr:
		return provableLockPath(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return provableLockPath(info, x.X)
		}
	}
	return nil, ""
}

// lockOrderTransfer applies one node's lock effects to the held set.
// Deferred statements are ignored entirely: a deferred unlock runs at
// return, so the lock correctly stays held for the rest of the body.
func lockOrderTransfer(s *summaries, info *types.Info, n ast.Node, st lockOrderState) lockOrderState {
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		return st
	}
	scanShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		v, root, path, kind, acquire, isOp := lockOrderOp(s, info, call)
		if !isOp {
			return true
		}
		k := lockHeldKey{v, root, path}
		if acquire {
			if prev, held := st[k]; held {
				// Keep the earliest acquisition site; a write lock on any
				// path dominates for self-edge purposes.
				if kind == 'W' && prev.kind == 'R' {
					prev.kind = 'W'
					st[k] = prev
				}
			} else {
				st[k] = lockHeldVal{pos: call.Pos(), kind: kind}
			}
		} else {
			delete(st, k)
		}
		return true
	})
	return st
}

func joinLockOrder(a, b lockOrderState) lockOrderState {
	out := cloneLockOrder(a)
	for k, v := range b {
		if prev, ok := out[k]; ok {
			// Earliest site wins for stable diagnostics; 'W' dominates.
			if v.pos < prev.pos {
				v, prev = prev, v
			}
			if v.kind == 'W' {
				prev.kind = 'W'
			}
			out[k] = prev
		} else {
			out[k] = v
		}
	}
	return out
}

func equalLockOrder(a, b lockOrderState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func cloneLockOrder(st lockOrderState) lockOrderState {
	out := make(lockOrderState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

type heldEntry struct {
	key lockHeldKey
	val lockHeldVal
}

// sortedHeld orders the held set by acquisition site — each site is one
// call expression, so the order is total and deterministic.
func sortedHeld(st lockOrderState) []heldEntry {
	out := make([]heldEntry, 0, len(st))
	for k, v := range st {
		out = append(out, heldEntry{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].val.pos < out[j].val.pos })
	return out
}

// lockOrderOp classifies call as a Lock/Unlock/RLock/RUnlock operation on a
// sync.Mutex or sync.RWMutex (including promoted methods from an embedded
// mutex), resolving the lock's class identity — the field or variable the
// mutex lives in — plus the provable instance path of the receiver chain.
func lockOrderOp(s *summaries, info *types.Info, call *ast.CallExpr) (v *types.Var, root types.Object, path string, kind byte, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, "", 0, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock":
		kind, acquire = 'W', sel.Sel.Name == "Lock"
	case "RLock", "RUnlock":
		kind, acquire = 'R', sel.Sel.Name == "RLock"
	default:
		return nil, nil, "", 0, false, false
	}
	if isSyncMutex(info.TypeOf(sel.X)) {
		v, name := lockVarOf(info, sel.X)
		if v == nil {
			return nil, nil, "", 0, false, false
		}
		s.noteLockName(v, name)
		root, path = provableLockPath(info, sel.X)
		return v, root, path, kind, acquire, true
	}
	// Promoted method from an embedded mutex: the lock is the embedded
	// field, resolved through the selection's index path.
	if selx, found := info.Selections[sel]; found {
		if fn, isFn := selx.Obj().(*types.Func); isFn {
			if r := fn.Type().(*types.Signature).Recv(); r != nil && isSyncMutex(r.Type()) {
				if f, name := embeddedLockField(info, sel.X, selx); f != nil {
					s.noteLockName(f, name)
					root, path = provableLockPath(info, sel.X)
					return f, root, path, kind, acquire, true
				}
			}
		}
	}
	return nil, nil, "", 0, false, false
}

// lockVarOf resolves a mutex-valued receiver expression to the variable
// holding it — a struct field, a package-level variable, or a local — plus
// a stable display name. Index and deref layers collapse onto their base
// (locks[i] is the lock class of the `locks` field).
func lockVarOf(info *types.Info, e ast.Expr) (*types.Var, string) {
	e = unparen(e)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = unparen(x.X)
		case *ast.StarExpr:
			e = unparen(x.X)
		default:
			goto resolved
		}
	}
resolved:
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v, v.Pkg().Name() + "." + v.Name()
			}
			return v, v.Name()
		}
	case *ast.SelectorExpr:
		if selx, ok := info.Selections[x]; ok && selx.Kind() == types.FieldVal {
			if v, ok := selx.Obj().(*types.Var); ok {
				return v, "(" + typeDisplay(info.TypeOf(x.X)) + ")." + v.Name()
			}
		}
		// Package-qualified variable (pkg.Mu).
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v, v.Pkg().Name() + "." + v.Name()
		}
	}
	return nil, ""
}

// embeddedLockField walks a promoted-method selection's index path to the
// embedded mutex field that supplies the method.
func embeddedLockField(info *types.Info, recv ast.Expr, selx *types.Selection) (*types.Var, string) {
	t := info.TypeOf(recv)
	display := typeDisplay(t)
	idx := selx.Index()
	var field *types.Var
	for _, i := range idx[:len(idx)-1] {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return nil, ""
		}
		field = st.Field(i)
		t = field.Type()
	}
	if field == nil {
		return nil, ""
	}
	return field, "(" + display + ")." + field.Name()
}

// typeDisplay renders a type name for diagnostics: pkg.Name for named
// types (after pointer indirection), the type string otherwise.
func typeDisplay(t types.Type) string {
	if t == nil {
		return "?"
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}

// funcDisplay renders a function name for via-chains: (recvType).Name for
// methods, pkg.Name for package-level functions.
func funcDisplay(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + typeDisplay(sig.Recv().Type()) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// noteLockName records the first display name resolved for a lock.
// Summaries compute in deterministic source order, so "first" is stable.
func (s *summaries) noteLockName(v *types.Var, name string) {
	if _, ok := s.lockNames[v]; !ok {
		s.lockNames[v] = name
	}
}

func (s *summaries) lockName(v *types.Var) string {
	if name, ok := s.lockNames[v]; ok {
		return name
	}
	return v.Name()
}

func runLockOrder(pass *Pass) error {
	sums := pass.summaries()
	if sums == nil || pass.Funcs == nil {
		return nil
	}

	// The current package's non-test functions in source order — the only
	// functions this pass reports on. An edge needs a lock held across an
	// acquisition, so functions with no syntactic lock op witness nothing
	// and are skipped (their summaries are still computed on demand when a
	// witnessing function calls them).
	type witness struct{ edge lockEdge }
	var curEdges []witness
	adj := map[*types.Var]map[*types.Var]bool{}
	addAdj := func(e lockEdge) {
		if e.self {
			return
		}
		m := adj[e.from]
		if m == nil {
			m = map[*types.Var]bool{}
			adj[e.from] = m
		}
		m[e.to] = true
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !mentionsLockOp(pass, fd.Body) {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if sum := sums.lock(fn); sum != nil {
				for _, e := range sum.edges {
					curEdges = append(curEdges, witness{e})
					addAdj(e)
				}
			}
		}
	}
	if len(curEdges) == 0 {
		return nil
	}

	// Fold in the ordering edges of every other in-module package in the
	// import closure, so a cycle whose other half lives in a dependency is
	// visible from the package witnessing this half.
	for _, path := range inModuleClosure(pass) {
		for _, fn := range pass.Funcs.FuncsIn(path) {
			src, ok := pass.Funcs.Source(fn)
			if !ok {
				continue
			}
			if strings.HasSuffix(pass.Fset.Position(src.Decl.Pos()).Filename, "_test.go") {
				continue
			}
			if sum := sums.lock(fn); sum != nil {
				for _, e := range sum.edges {
					addAdj(e)
				}
			}
		}
	}

	reported := map[lockEdgeKey]bool{}
	for _, w := range curEdges {
		e := w.edge
		k := lockEdgeKey{e.from, e.to, e.pos}
		if reported[k] {
			continue
		}
		name := sums.lockName(e.to)
		heldLine := pass.Fset.Position(e.fromPos).Line
		if e.self {
			reported[k] = true
			if len(e.via) == 0 {
				pass.Reportf(e.pos, "reacquiring %s already held since line %d: sync mutexes are not reentrant, this deadlocks",
					name, heldLine)
			} else {
				pass.Reportf(e.pos, "call to %s reacquires %s (at %s) already held since line %d: sync mutexes are not reentrant, this deadlocks",
					strings.Join(e.via, " → "), name, posShort(pass.Fset, e.innerPos), heldLine)
			}
			continue
		}
		cyc := lockCyclePath(adj, sums, e.to, e.from)
		if cyc == nil {
			continue
		}
		reported[k] = true
		// cyc runs e.to ⇝ e.from; prefixing e.from closes the loop visually:
		// from → to → … → from.
		names := make([]string, 0, len(cyc)+1)
		names = append(names, sums.lockName(e.from))
		for _, v := range cyc {
			names = append(names, sums.lockName(v))
		}
		cycle := strings.Join(names, " → ")
		if len(e.via) == 0 {
			pass.Reportf(e.pos, "acquiring %s while holding %s (acquired at line %d) creates the lock-ordering cycle %s; acquire these locks in one consistent order",
				name, sums.lockName(e.from), heldLine, cycle)
		} else {
			pass.Reportf(e.pos, "call to %s acquires %s (at %s) while %s is held (acquired at line %d), creating the lock-ordering cycle %s; acquire these locks in one consistent order",
				strings.Join(e.via, " → "), name, posShort(pass.Fset, e.innerPos),
				sums.lockName(e.from), heldLine, cycle)
		}
	}
	return nil
}

// lockCyclePath finds a path start ⇝ target in the acquisition graph by
// BFS with name-sorted neighbor order, returning the lock sequence
// [start, ..., target], or nil. A found path closes a cycle with the edge
// target → start the caller holds.
func lockCyclePath(adj map[*types.Var]map[*types.Var]bool, sums *summaries, start, target *types.Var) []*types.Var {
	prev := map[*types.Var]*types.Var{start: nil}
	queue := []*types.Var{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == target {
			var path []*types.Var
			for v := cur; v != nil; v = prev[v] {
				path = append(path, v)
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path
		}
		next := make([]*types.Var, 0, len(adj[cur]))
		for n := range adj[cur] {
			if _, seen := prev[n]; !seen {
				next = append(next, n)
			}
		}
		sort.Slice(next, func(i, j int) bool {
			a, b := next[i], next[j]
			if an, bn := sums.lockName(a), sums.lockName(b); an != bn {
				return an < bn
			}
			return a.Pos() < b.Pos()
		})
		for _, n := range next {
			prev[n] = cur
			queue = append(queue, n)
		}
	}
	return nil
}

// inModuleClosure returns the sorted import paths of every source-checked
// in-module package reachable from the pass's package, excluding itself.
func inModuleClosure(pass *Pass) []string {
	seen := map[string]bool{pass.Pkg.Path(): true}
	var out []string
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp.Path()] {
				continue
			}
			seen[imp.Path()] = true
			if len(pass.Funcs.FuncsIn(imp.Path())) > 0 {
				out = append(out, imp.Path())
			}
			walk(imp)
		}
	}
	walk(pass.Pkg)
	sort.Strings(out)
	return out
}

// posShort renders a position as base-filename:line, for cross-file
// references inside one diagnostic message.
func posShort(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
