package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SharedRead enforces the read-only contract on shared return values:
// a function (or interface method) whose doc comment carries
// `// lint:shared` hands out a value that other callers hold
// concurrently — a batch hands one learn.Prediction to every duplicate
// of an instance, and the core combined memo returns the memoized
// prediction itself, not a clone — so no caller may ever mutate it.
// One write corrupts every later reader of that value, bit-identically
// wrong.
//
// The shared set is closed three ways before checking begins:
// methods implementing a `// lint:shared` interface method are shared
// (annotating learn.Learner.Predict covers every learner), and a
// function whose return value derives from a shared call is itself
// shared (a helper that forwards a cache hit hands out the same
// storage). Callers are then checked against the mutation/escape
// summary substrate (mutsum.go): a finding is a direct write through a
// value tracked to a shared call — element assignment, delete, append
// growth — or passing it to a callee whose summary mutates that
// parameter, interprocedurally through the call graph. Callers that
// need to modify a result must Clone it first.
var SharedRead = &Analyzer{
	Name: "sharedread",
	Doc:  "values returned by // lint:shared functions are read-only and must never be mutated",
	Run:  runSharedRead,
}

func runSharedRead(pass *Pass) {
	shared := sharedFuncs(pass.Prog)
	if len(shared) == 0 {
		return
	}
	sums := MutSummaries(pass.Prog)
	isShared := func(info *types.Info, call *ast.CallExpr) (string, bool) {
		fn := staticOrIfaceCallee(info, call)
		if fn == nil || !shared[fn] {
			return "", false
		}
		return funcDisplayName(fn), true
	}
	for _, d := range pass.Prog.Decls() {
		if d.Pkg.Pkg != pass.Pkg {
			continue
		}
		if shared[d.Fn] {
			continue // the producer itself may build the value it shares
		}
		info := d.Pkg.Info
		tracked := trackedVars(d, func(call *ast.CallExpr) (string, bool) {
			return isShared(info, call)
		})
		if len(tracked) == 0 {
			continue
		}
		trackedRoot := func(e ast.Expr) (peeled, trackInfo, bool) {
			p := peelRef(info, e)
			v, ok := p.obj.(*types.Var)
			if !ok {
				return p, trackInfo{}, false
			}
			ti, ok := tracked[v]
			return p, ti, ok
		}
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if p, ti, ok := trackedRoot(lhs); ok && p.indirect && pathMutates(p.path, ti.path) {
						pass.Reportf(lhs.Pos(),
							"writes to %s%s, the shared value returned by %s; lint:shared results are read-only — Clone before modifying",
							p.obj.Name(), p.path, ti.desc)
					}
				}
			case *ast.IncDecStmt:
				if p, ti, ok := trackedRoot(n.X); ok && p.indirect && pathMutates(p.path, ti.path) {
					pass.Reportf(n.X.Pos(),
						"writes to %s%s, the shared value returned by %s; lint:shared results are read-only — Clone before modifying",
						p.obj.Name(), p.path, ti.desc)
				}
			case *ast.CallExpr:
				checkSharedCall(pass, info, n, tracked, sums)
			}
			return true
		})
	}
}

// checkSharedCall flags builtin mutators (delete, copy) applied to a
// shared value and calls whose callee summary mutates a parameter the
// shared value occupies — the interprocedural half of the contract.
func checkSharedCall(pass *Pass, info *types.Info, call *ast.CallExpr, tracked map[*types.Var]trackInfo, sums map[*types.Func]*MutSummary) {
	trackedOf := func(e ast.Expr) (peeled, trackInfo, bool) {
		p := peelRef(info, e)
		v, ok := p.obj.(*types.Var)
		if !ok {
			return p, trackInfo{}, false
		}
		ti, ok := tracked[v]
		return p, ti, ok
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if (b.Name() == "delete" || b.Name() == "copy") && len(call.Args) > 0 {
				if p, ti, ok := trackedOf(call.Args[0]); ok && strings.HasPrefix(p.path, ti.path) {
					pass.Reportf(call.Pos(),
						"%s mutates the shared value returned by %s; lint:shared results are read-only — Clone before modifying",
						b.Name(), ti.desc)
				}
			}
			return
		}
	}
	callee, slotArgs := calleeSlotArgs(info, call)
	if callee == nil {
		return
	}
	sum := sums[callee]
	if sum == nil {
		return
	}
	for j, args := range slotArgs {
		paths := sum.Mutates(j)
		if len(paths) == 0 {
			continue
		}
		for _, arg := range args {
			p, ti, ok := trackedOf(arg)
			if !ok {
				continue
			}
			if !p.addrOf && !isRefType(info.TypeOf(arg)) {
				continue // passed by value: the callee mutates its own copy
			}
			hit := calleeMutationHit(paths, p.path, ti.path)
			if hit == "" {
				continue // the callee's writes stop short of the shared value
			}
			pass.Reportf(arg.Pos(),
				"passes the shared value returned by %s to %s, which mutates it (%s); lint:shared results are read-only — Clone before modifying",
				ti.desc, funcDisplayName(callee), hit)
		}
	}
}

// sharedFuncs computes (once per program, cached) the closed set of
// shared-producing functions: `// lint:shared` declarations,
// `// lint:shared` interface methods, methods implementing such an
// interface method, and functions whose return value derives from a
// shared call.
func sharedFuncs(prog *Program) map[*types.Func]bool {
	return prog.Cache("sharedread.funcs", func() any {
		shared := make(map[*types.Func]bool)
		for _, d := range annotatedRoots(prog, "lint:shared") {
			shared[d.Fn] = true
		}
		ifaceMethods := interfaceMethodsWithDirective(prog, "lint:shared")
		for _, fn := range ifaceMethods {
			shared[fn] = true
		}
		// Implementations of shared interface methods are shared: the
		// interface's contract binds every concrete Predict.
		for fn := range prog.decls {
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			recv := sig.Recv().Type()
			for _, im := range ifaceMethods {
				if fn.Name() != im.Name() {
					continue
				}
				imSig, ok := im.Type().(*types.Signature)
				if !ok || imSig.Recv() == nil {
					continue
				}
				iface, ok := imSig.Recv().Type().Underlying().(*types.Interface)
				if !ok {
					continue
				}
				if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
					shared[fn] = true
				}
			}
		}
		// Return-derivation closure: a function returning a shared
		// call's result hands out the same storage.
		for changed := true; changed; {
			changed = false
			for _, d := range prog.Decls() {
				if shared[d.Fn] {
					continue
				}
				if returnsDerivedFrom(d, func(call *ast.CallExpr) bool {
					fn := staticOrIfaceCallee(d.Pkg.Info, call)
					return fn != nil && shared[fn]
				}) {
					shared[d.Fn] = true
					changed = true
				}
			}
		}
		return shared
	}).(map[*types.Func]bool)
}

// interfaceMethodsWithDirective collects interface methods whose doc
// comment carries the `// lint:<directive>` line, in source order.
func interfaceMethodsWithDirective(prog *Program, directive string) []*types.Func {
	var out []*types.Func
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				it, ok := n.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, field := range it.Methods.List {
					if len(field.Names) == 0 || !commentGroupHasDirective(field.Doc, directive) {
						continue
					}
					if fn, ok := pkg.Info.Defs[field.Names[0]].(*types.Func); ok {
						out = append(out, fn)
					}
				}
				return true
			})
		}
	}
	return out
}

// returnsDerivedFrom reports whether any top-level return statement of
// d returns a value derived from a call matched by isSource — the call
// itself, or a local tracked back to one.
func returnsDerivedFrom(d *FuncDecl, isSource func(*ast.CallExpr) bool) bool {
	info := d.Pkg.Info
	tracked := trackedVars(d, func(call *ast.CallExpr) (string, bool) {
		if isSource(call) {
			return "source", true
		}
		return "", false
	})
	found := false
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, true)
				return false
			case *ast.ReturnStmt:
				if inLit {
					return true
				}
				for _, res := range n.Results {
					p := peelRef(info, res)
					if p.call != nil && isSource(p.call) && isRefType(info.TypeOf(res)) {
						found = true
						return false
					}
					if v, ok := p.obj.(*types.Var); ok {
						if _, ok := tracked[v]; ok && isRefType(info.TypeOf(res)) {
							found = true
							return false
						}
					}
				}
			}
			return true
		})
	}
	walk(d.Decl.Body, false)
	return found
}

// staticOrIfaceCallee resolves a call to its compile-time callee,
// including interface methods (which CalleeOf deliberately treats as
// dynamic): contract analyzers like sharedread attach obligations to
// the interface method itself, so resolving the interface member is
// exactly right even though the runtime target is unknown.
func staticOrIfaceCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := CalleeOf(info, call); fn != nil {
		return fn
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	fn, _ := selection.Obj().(*types.Func)
	return fn
}
