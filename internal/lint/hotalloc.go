package lint

import (
	"go/ast"
	"go/types"
)

// HotallocPackages are the per-cycle simulation models: every allocation on
// their cycle paths multiplies by the hundreds of millions of simulated
// cycles in a sweep.
var HotallocPackages = []string{
	"repro/internal/mem",
	"repro/internal/vengine",
	"repro/internal/eve",
	"repro/internal/cpu",
	"repro/internal/uprog",
	"repro/internal/isa",
}

// hotallocRoots are the entry points of the per-cycle work in those
// packages: the timing models' advance/access methods, the μ-program
// sequencer, and the builder's per-vector-instruction emits. Everything they
// reach inside the same package is hot too.
var hotallocRoots = map[string]bool{
	"Cycle": true, "Tick": true, "Step": true,
	"Access": true, "CoreAccess": true,
	"Handle": true, "Drain": true,
	"Ops": true, "Muls": true, "Load": true, "Store": true, "AdvanceTo": true,
	"Run": true, "Exec": true, "exec": true,
	"emitV": true, "SetVL": true, "Fence": true,
}

// Hotalloc flags heap allocations on the simulator's per-cycle paths: the
// functions named in hotallocRoots plus their same-package callees
// (transitively). A make, new, growing append, escaping composite literal,
// closure, or interface-boxing call argument in that closure runs once per
// simulated cycle, so it turns the garbage collector into a hidden term of
// every measured latency.
//
// Not flagged, by design:
//
//   - value (struct/array) composite literals — they live on the stack;
//   - anything in the argument tree of a panic call — the dying path
//     allocates exactly once;
//   - test files, and functions the hot roots never reach;
//   - amortized growth (ring buffers, reused scratch slices) — annotate
//     //evelint:allow hotalloc with the amortization argument.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid heap allocation on the per-cycle paths of the simulation models",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) error {
	if !anyPkgMatches(pass.Pkg.Path(), HotallocPackages) {
		return nil
	}

	// Collect the package's function declarations (source order keeps the
	// analysis deterministic) and index them by their types.Func objects so
	// call sites resolve back to declarations.
	var decls []*ast.FuncDecl
	byObj := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				byObj[fn] = fd
			}
		}
	}

	// Seed with the per-cycle roots, then close over same-package calls.
	hot := make(map[*ast.FuncDecl]bool)
	for _, fd := range decls {
		if hotallocRoots[fd.Name.Name] {
			hot[fd] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			if !hot[fd] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(pass.TypesInfo, call); fn != nil {
					if callee, ok := byObj[fn]; ok && !hot[callee] {
						hot[callee] = true
						changed = true
					}
				}
				return true
			})
		}
	}

	for _, fd := range decls {
		if hot[fd] {
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// checkHotFunc reports every allocation site in one hot function.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	name := funcDeclName(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := objOf(pass.TypesInfo, id).(*types.Builtin); ok {
					switch b.Name() {
					case "panic":
						return false // the dying path allocates exactly once
					case "make":
						pass.Reportf(x.Pos(), "hot path %s: make allocates on every call; "+
							"hoist the buffer into a reusable field", name)
					case "new":
						pass.Reportf(x.Pos(), "hot path %s: new allocates on every call; "+
							"hoist the value into a reusable field", name)
					case "append":
						pass.Reportf(x.Pos(), "hot path %s: append to %s can grow the backing array; "+
							"preallocate, reuse a field, or annotate //evelint:allow hotalloc "+
							"if the growth is amortized", name, types.ExprString(x.Args[0]))
					}
					return true
				}
			}
			checkBoxing(pass, name, x)
		case *ast.UnaryExpr:
			if cl, ok := x.X.(*ast.CompositeLit); ok && x.Op.String() == "&" {
				pass.Reportf(x.Pos(), "hot path %s: &%s{} escapes to the heap; "+
					"reuse a field or pass the struct by value", name, compositeTypeName(pass, cl))
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(x)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(x.Pos(), "hot path %s: %s literal allocates on every call; "+
					"hoist it to a package-level var or a field", name, compositeTypeName(pass, x))
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "hot path %s: func literal allocates a closure; "+
				"hoist it to a named function", name)
		}
		return true
	})
}

// checkBoxing flags call arguments whose concrete value must be boxed to
// fit an interface parameter: the conversion allocates unless the value is
// already pointer-shaped.
func checkBoxing(pass *Pass, name string, call *ast.CallExpr) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through whole, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "hot path %s: %s boxes into interface %s; "+
			"pass a pointer-shaped value or use a concrete-typed API",
			name, types.ExprString(arg), types.TypeString(pt, types.RelativeTo(pass.Pkg)))
	}
}

// boxFree reports whether a value of type t is stored in an interface
// without allocating: it is already an interface, a pointer-shaped value,
// or untyped nil.
func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// funcDeclName renders a declaration for diagnostics: Access, (*Cache).sets.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// compositeTypeName renders the composite literal's type for diagnostics.
func compositeTypeName(pass *Pass, cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return types.ExprString(cl.Type)
	}
	if t := pass.TypesInfo.TypeOf(cl); t != nil {
		return types.TypeString(t, types.RelativeTo(pass.Pkg))
	}
	return "composite"
}
