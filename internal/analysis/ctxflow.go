package analysis

import (
	"go/ast"
	"go/types"
)

// solverPackages are the packages whose exported entry points must be
// cancelable: a production deployment shedding load needs every solve loop
// to notice a dead client.
var solverPackages = map[string]bool{
	"lp": true, "convex": true, "core": true, "control": true,
}

// servicePackages are the observability packages whose long-running exported
// entry points (Serve*, Replay*, Record*) must take a context: an exposition
// server or a journal replay with no cancellation route cannot be shut down.
// Unlike solver packages they may mint root contexts — eval.DefaultContext
// and the server's shutdown grace period legitimately start from Background.
var servicePackages = map[string]bool{
	"obs": true, "eval": true, "journal": true,
}

// serviceEntryPrefixes are the exported-name prefixes the service rule
// covers.
var serviceEntryPrefixes = []string{"Serve", "Replay", "Record"}

// CtxFlow enforces context plumbing through the solver stack. An exported
// entry point (a function whose name starts with "Solve", or that takes a
// solver Options/Config parameter) must accept a context.Context — either
// directly or via a context field reachable through its Options/Config
// struct (the repo's established pattern is Options.Ctx). Inside solver
// packages, calls to context.Background or context.TODO are flagged: a
// fresh context severs the caller's cancellation instead of propagating it.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "solver and service entry points must accept and propagate context.Context",
	SkipTests: true,
	Run:       runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	pkg := lastSegment(pass.Pkg.Path)
	solver, service := solverPackages[pkg], servicePackages[pkg]
	if !solver && !service {
		return
	}
	info := pass.Info()
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				// Methods are exempt: Solve(x, b) on a factorization is an
				// inner kernel, not an entry point.
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			switch {
			case solver && isEntryPoint(fd.Name.Name, sig):
				if !acceptsContext(sig) {
					pass.Reportf(fd.Name.Pos(),
						"exported solver entry point %s accepts no context.Context (directly or via an Options/Config ctx field); cancellation cannot reach the solve loop", fd.Name.Name)
				}
			case service && isServiceEntryPoint(fd.Name.Name):
				if !acceptsContext(sig) {
					pass.Reportf(fd.Name.Pos(),
						"exported service entry point %s accepts no context.Context; the server/replay cannot be shut down", fd.Name.Name)
				}
			}
		}
		if !solver {
			// Service packages may mint root contexts (eval.DefaultContext,
			// the server's shutdown grace period); only solver packages are
			// held to strict propagation.
			continue
		}
		// Propagation: a solver package must never mint its own root context.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
				if fn.Name() == "Background" || fn.Name() == "TODO" {
					pass.Reportf(call.Pos(),
						"context.%s severs the caller's cancellation; propagate the ctx carried by Options/Config instead", fn.Name())
				}
			}
			return true
		})
	}
}

// isServiceEntryPoint reports whether an exported function name falls under
// the service rule (Serve*, Replay*, Record*).
func isServiceEntryPoint(name string) bool {
	for _, p := range serviceEntryPrefixes {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// isEntryPoint decides whether an exported function is a solver entry
// point: its name starts with "Solve", or one of its parameters is a named
// Options/Config (possibly pointer) declared in a solver package.
func isEntryPoint(name string, sig *types.Signature) bool {
	if len(name) >= 5 && name[:5] == "Solve" {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
			continue
		}
		tn := n.Obj().Name()
		if (tn == "Options" || tn == "Config") && solverPackages[lastSegment(n.Obj().Pkg().Path())] {
			return true
		}
	}
	return false
}

// acceptsContext reports whether any parameter is a context.Context or a
// struct carrying one (transitively, through nested named struct fields).
func acceptsContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if typeCarriesContext(params.At(i).Type(), 3, map[*types.Named]bool{}) {
			return true
		}
	}
	return false
}

func typeCarriesContext(t types.Type, depth int, seen map[*types.Named]bool) bool {
	if isContextType(t) {
		return true
	}
	if depth == 0 {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if typeCarriesContext(st.Field(i).Type(), depth-1, seen) {
			return true
		}
	}
	return false
}
