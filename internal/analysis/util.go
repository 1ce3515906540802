package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lastSegment returns the final element of an import path ("soral/internal/lp"
// -> "lp"). Analyzer package matching keys on it so the same analyzers work
// against the real module and against testdata fixture trees.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isFloat reports whether t is a floating-point basic type (including
// untyped float constants).
func isFloat(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if t == nil {
			return false
		}
		b, ok = t.Underlying().(*types.Basic)
		if !ok {
			return false
		}
	}
	return b.Info()&types.IsFloat != 0
}

// isNamed reports whether t (after unwrapping one pointer level) is the
// named type pkgName.typeName, matching by package *name* rather than full
// path so fixtures can model obs.Scope et al.
func isNamed(t types.Type, pkgName, typeName string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// walkStack traverses n keeping the ancestor stack; fn receives each node
// with its ancestors (outermost first, excluding the node itself).
func walkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the outermost function declaration or literal on
// the stack, or nil. Outermost, not innermost: a closure sees its parent's
// locals, so a guard in the parent protects a division inside the closure.
func enclosingFunc(stack []ast.Node) ast.Node {
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return n
		}
	}
	return nil
}

// usesVar reports whether any identifier inside n resolves to v.
func usesVar(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// calleeFunc resolves a call expression to the function or method object it
// invokes, or nil (builtins, function-valued variables, type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isBuiltin reports whether a call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() >= lo && obj.Pos() <= hi
}
