// Package hotalloc implements the hotalloc analyzer: no
// allocation-prone constructs in the event-driven core's per-cycle /
// per-uop paths. core's TestSteadyStateAllocs holds the simulator to a
// 0.05 allocs-per-instruction floor; this pass
// locks in *why* that number holds by forbidding the three constructs
// that silently reintroduce steady-state allocation:
//
//   - append that grows a fresh, unpreallocated local slice (persistent
//     struct-field buffers, parameters, and make(..., cap) locals are
//     fine — those amortize);
//   - closures that capture variables (a capturing func literal
//     allocates its environment per call; non-capturing literals are
//     static and free);
//   - boxing a concrete value into an interface argument, variable, or
//     conversion (each box is a heap allocation once it escapes).
//
// The hot region is seeded by `//vca:hot` doc-comment directives on the
// scheduler, commit, fetch, and rename stage functions and propagates
// through same-package static calls, so an alloc cannot hide in a
// helper. `//vca:cold` on a function cuts propagation — the escape hatch
// for config-gated debug paths (Chrome tracing, panic formatting) that
// are reachable but never run per cycle in measured configurations.
// Arguments of a panic(...) call are exempt everywhere: a path that
// ends the process may format freely.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"vca/internal/analyzers/analysis"
)

// Annotation tags. TagHot and TagCold are function-level (doc-comment
// directives); TagAllow is statement-level, on or directly above the
// offending statement, for the rare allocation inside a hot function
// that is provably not per-cycle (run-fatal error construction).
const (
	TagHot   = "//vca:hot"
	TagCold  = "//vca:cold"
	TagAllow = "//lint:hotalloc"
)

// Analyzer flags allocation-prone constructs in //vca:hot call paths.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid unpreallocated append, capturing closures, and interface boxing in //vca:hot per-cycle paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Index this package's function declarations by their object,
	// keeping file order so reports come out deterministically.
	decls := make(map[types.Object]*ast.FuncDecl)
	var order []types.Object
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
					order = append(order, obj)
				}
			}
		}
	}

	// Seed with //vca:hot functions and propagate through same-package
	// static calls, stopping at //vca:cold.
	hot := make(map[types.Object]bool)
	var queue []types.Object
	for _, obj := range order {
		if analysis.FuncTagged(decls[obj], TagHot) {
			hot[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		fd := decls[obj]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeObject(pass, call)
			target, isLocal := decls[callee]
			if callee == nil || !isLocal || hot[callee] {
				return true
			}
			if analysis.FuncTagged(target, TagCold) {
				return true
			}
			hot[callee] = true
			queue = append(queue, callee)
			return true
		})
	}

	for _, obj := range order {
		if hot[obj] {
			checkFunc(pass, decls[obj])
		}
	}
	return nil
}

// calleeObject resolves a call's static callee within any package, or
// nil for func values, builtins, and interface dispatch.
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// checkFunc walks one hot function's body. cp tracks the innermost
// enclosing statement's position so a TagAllow annotation above a
// multi-line statement covers every expression inside it.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd == nil || fd.Body == nil {
		return
	}
	name := fd.Name.Name
	locals := localSliceOrigins(pass, fd)
	cp := &checkPass{pass: pass, stmt: fd.Body.Pos()}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if st, ok := n.(ast.Stmt); ok {
			cp.stmt = st.Pos()
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanic(pass, n) {
				return false // a path that ends the process may allocate
			}
			if isBuiltinAppend(pass, n) {
				if !allowedAppendTarget(pass, locals, n.Args[0]) {
					cp.report(n.Pos(), "append grows an unpreallocated slice in hot ("+TagHot+") function "+name+"; preallocate with make(len, cap) or reuse a persistent buffer")
				}
				return true
			}
			checkCallBoxing(cp, n, name)
		case *ast.FuncLit:
			if capturesVariables(pass, n) {
				cp.report(n.Pos(), "closure captures variables in hot ("+TagHot+") function "+name+" (allocates its environment per call); hoist it to a method or named function")
			}
			return false // literal body is its own (non-hot) scope
		case *ast.AssignStmt:
			checkAssignBoxing(cp, n, name)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkPass carries the report context through one function's walk.
type checkPass struct {
	pass *analysis.Pass
	stmt token.Pos // innermost enclosing statement
}

// report emits a diagnostic unless the enclosing statement (or the
// flagged position itself) carries a TagAllow annotation.
func (cp *checkPass) report(pos token.Pos, msg string) {
	if cp.pass.Ann.StmtAllowed(cp.stmt, TagAllow) || cp.pass.Ann.StmtAllowed(pos, TagAllow) {
		return
	}
	cp.pass.Reportf(pos, msg)
}

// localSliceOrigins maps each local variable object to the expression
// that originated it (the RHS of its := or var declaration), so append
// targets can be traced to a preallocation.
func localSliceOrigins(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]ast.Expr {
	origins := make(map[types.Object]ast.Expr)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					origins[obj] = n.Rhs[i]
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					obj := pass.TypesInfo.Defs[nm]
					if obj == nil {
						continue
					}
					if i < len(vs.Values) {
						origins[obj] = vs.Values[i]
					} else {
						origins[obj] = nil // var s []T: zero value, grows from nil
					}
				}
			}
		}
		return true
	})
	return origins
}

// allowedAppendTarget reports whether the slice being appended to has
// amortized or preallocated backing: a struct field or indexed element
// (persistent buffer), a parameter or package-level variable (the
// caller owns the allocation policy), a make with explicit capacity, a
// reslice of an allowed target, or a call result.
func allowedAppendTarget(pass *analysis.Pass, locals map[types.Object]ast.Expr, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true // field or element of something persistent
	case *ast.StarExpr:
		// *ops where ops is a *[]T out-parameter: the caller owns the
		// backing allocation policy.
		return allowedAppendTarget(pass, locals, e.X)
	case *ast.SliceExpr:
		return allowedAppendTarget(pass, locals, e.X)
	case *ast.CallExpr:
		if isBuiltinAppend(pass, e) {
			return allowedAppendTarget(pass, locals, e.Args[0])
		}
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return len(e.Args) >= 3 // make([]T, len, cap)
			}
		}
		return true // some function constructed it; its policy applies
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if v.Parent() == pass.Pkg.Scope() {
			return true // package-level buffer
		}
		origin, isLocal := locals[obj]
		if !isLocal {
			return true // parameter or receiver: caller's policy
		}
		if origin == nil {
			return false // var s []T — grows from nil
		}
		return allowedAppendTarget(pass, locals, origin)
	}
	return false
}

// capturesVariables reports whether a func literal references variables
// declared outside itself (other than package-level ones).
func capturesVariables(pass *analysis.Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() || v.Pkg() != pass.Pkg {
			return true // package-level or foreign
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// checkCallBoxing flags concrete values passed to interface parameters.
func checkCallBoxing(cp *checkPass, call *ast.CallExpr, name string) {
	pass := cp.pass
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion: T(x) where T is an interface.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isConcrete(pass, call.Args[0]) {
			cp.report(call.Pos(), "conversion boxes a concrete value into an interface in hot ("+TagHot+") function "+name)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && !isTypeParam(pt) && isConcrete(pass, arg) {
			cp.report(arg.Pos(), "argument boxes a concrete value into an interface parameter in hot ("+TagHot+") function "+name)
		}
	}
}

// checkAssignBoxing flags concrete values assigned to interface
// variables.
func checkAssignBoxing(cp *checkPass, s *ast.AssignStmt, name string) {
	pass := cp.pass
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, l := range s.Lhs {
		lt, ok := pass.TypesInfo.Types[l]
		if !ok || lt.Type == nil {
			// := defines: look up the defined object's type.
			if id, isIdent := l.(*ast.Ident); isIdent {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					if types.IsInterface(obj.Type()) && isConcrete(pass, s.Rhs[i]) {
						cp.report(s.Rhs[i].Pos(), "assignment boxes a concrete value into an interface in hot ("+TagHot+") function "+name)
					}
				}
			}
			continue
		}
		if types.IsInterface(lt.Type) && !isTypeParam(lt.Type) && isConcrete(pass, s.Rhs[i]) {
			cp.report(s.Rhs[i].Pos(), "assignment boxes a concrete value into an interface in hot ("+TagHot+") function "+name)
		}
	}
}

// isConcrete reports whether the expression's static type is a
// non-interface, non-nil type (the boxing case).
func isConcrete(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(tv.Type) && !isTypeParam(tv.Type)
}

func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}

// isPanic reports whether the call is to the builtin panic.
func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "panic"
}

// isBuiltinAppend reports whether the call is to the builtin append.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}
