package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak flags `go` statements in concurrent packages whose spawned work
// has no visible tether to the parent: no sync.WaitGroup call, no channel
// operation, and no context.Context reaching the goroutine. The accepted
// idioms are the ones the pipeline already uses — `wg.Add(1)` before the
// spawn with `defer wg.Done()` inside, results delivered on a channel the
// parent drains, or a context the goroutine selects on.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "flags untethered `go` statements (no WaitGroup/channel/context " +
		"link to the parent) in concurrent packages",
	// The packages whose goroutines must be tethered: the pipeline's
	// fan-out stages and the worker pool they share (internal/par), the
	// streaming corpus generator's worker pool (internal/synth), the
	// serving layer, the load harness's open-loop
	// arrival generators, and snapshot2's background verification. A
	// goroutine with no WaitGroup, channel, or context connection to its
	// parent can neither be awaited nor cancelled — it leaks on error
	// paths and outlives request deadlines, the failure mode the paper's
	// systemic-fault taxonomy files under untracked asynchronous work.
	Scope: []string{
		"internal/pipeline",
		"internal/parse",
		"internal/nlp",
		"internal/ocr",
		"internal/par",
		"internal/synth",
		"internal/serve",
		"internal/loadgen",
		"internal/snapshot2",
	},
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	if !pass.InScope() {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineTethered(pass, g) {
				pass.Reportf(g.Go, "goroutine has no WaitGroup, channel, or context tether to its parent; "+
					"it cannot be awaited or cancelled — add wg.Add/Done, deliver results on a channel, or pass a context")
			}
			return true
		})
	}
	return nil
}

// goroutineTethered reports whether the spawned call is visibly connected
// to its parent. For a function literal the body is scanned for WaitGroup
// calls, channel operations, or use of a context-typed value (free or
// parameter). For a named call the tether must arrive through the receiver
// or an argument whose type carries a channel, WaitGroup, or context.
func goroutineTethered(pass *Pass, g *ast.GoStmt) bool {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if bodyHasTether(pass, lit.Body) {
			return true
		}
		// Fall through: arguments to the literal can also carry the tether
		// (go func(ch chan int) {...}(results) scans as a channel body, but
		// go func(c *client) {...}(c) may tether through c's fields).
	}
	if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
		if t := pass.Info.TypeOf(sel.X); t != nil && typeContainsTether(t, map[types.Type]bool{}, 0) {
			return true
		}
	}
	for _, arg := range g.Call.Args {
		if t := pass.Info.TypeOf(arg); t != nil && typeContainsTether(t, map[types.Type]bool{}, 0) {
			return true
		}
	}
	return false
}

// bodyHasTether scans a goroutine body for a WaitGroup method call, any
// channel operation (send, receive, close, range-over-channel), or any use
// of a context.Context-typed value.
func bodyHasTether(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "close" {
					found = true
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if t := pass.Info.TypeOf(sel.X); t != nil && namedPathIs(t, "sync", "WaitGroup") {
					found = true
				}
			}
		case *ast.Ident:
			if t := pass.Info.TypeOf(n); t != nil && isContextType(t) {
				found = true
			}
		}
		return !found
	})
	return found
}
