package lint

import (
	"go/ast"
	"go/types"
)

func init() {
	Register(&Analyzer{
		Name: "aliasretain",
		Doc: "enforces the zero-copy buffer-ownership contract (DESIGN.md §14): a view " +
			"derived from a caller-owned record buffer — pcapio.ReadInto/EachInto records " +
			"and everything packet.DecodeInto flows out of them, and the NLRI a " +
			"reassembly.WalkUpdates callback receives from the pooled stream buffer — is " +
			"overwritten by the next read, so it must not be stored in a container, sent " +
			"on a channel, returned, or passed to a function whose summary says it retains " +
			"its argument; keeping bytes requires an explicit copy",
		Run: runAliasretain,
	})
}

// pcapioRelPath is the module-relative package whose ReadInto/EachInto calls
// introduce borrowed record buffers. Matching by RelPath rather than import
// path lets the fixture module exercise the same rule as the real tree.
const pcapioRelPath = "internal/pcapio"

// borrowingCallbacks lists the calls whose callback argument receives
// borrowed views: every reference-bearing parameter of the callback aliases
// a buffer the callee recycles once the callback returns.
var borrowingCallbacks = []struct {
	relPath, name string
	arg           int    // callback's index in the call's arguments
	what          string // witness label for the borrowed parameter
}{
	{pcapioRelPath, "EachInto", 0, "EachInto record"},
	{"internal/reassembly", "WalkUpdates", 2, "WalkUpdates NLRI"},
}

func runAliasretain(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBorrows(p, fd)
		}
	}
}

// checkBorrows analyzes one function: it finds every borrow scope (the
// function body for ReadInto calls, each borrowingCallbacks callback literal
// for its reference-bearing parameters), propagates the borrow through
// local bindings, and reports sinks that let a view outlive the buffer's
// validity window.
func checkBorrows(p *Pass, fd *ast.FuncDecl) {
	// Function-body scope: every ReadInto target is borrowed for the rest of
	// the function (the next ReadInto overwrites it, so accumulating sinks
	// are unsafe no matter where they sit).
	fnScope := &borrowScope{pass: p, region: fd.Body, borrowed: map[types.Object]string{}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(p.Info, call)
		if callee == nil {
			return true
		}
		rel := p.Prog.RelPathOf(callee)
		if rel == pcapioRelPath && callee.Name() == "ReadInto" {
			args := callArgs(p.Info, call)
			if len(args) >= 2 {
				if root := rootIdent(stripAddr(args[1])); root != nil {
					if obj := objOf(p.Info, root); obj != nil {
						fnScope.borrowed[obj] = obj.Name() + " (ReadInto record)"
					}
				}
			}
			return true
		}
		for _, bc := range borrowingCallbacks {
			if rel == bc.relPath && callee.Name() == bc.name && bc.arg < len(call.Args) {
				checkBorrowingCallback(p, call, unparen(call.Args[bc.arg]), bc.what)
			}
		}
		return true
	})
	fnScope.check()
}

// checkBorrowingCallback checks the callback cb passed to call, whose
// reference-bearing parameters are borrowed for the callback's dynamic
// extent only.
func checkBorrowingCallback(p *Pass, call *ast.CallExpr, cb ast.Expr, what string) {
	switch cb := cb.(type) {
	case *ast.FuncLit:
		// A fresh scope keeps the enclosing function's own locals
		// classified as "outside".
		cbScope := &borrowScope{pass: p, region: cb.Body, borrowed: map[types.Object]string{}}
		if cb.Type.Params != nil {
			for _, field := range cb.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil && refBearing(obj.Type()) {
						cbScope.borrowed[obj] = name.Name + " (" + what + ")"
					}
				}
			}
		}
		cbScope.check()
	case *ast.Ident:
		// Named callback: its summary must show no borrowed parameter
		// escaping or returned.
		fn, ok := objOf(p.Info, cb).(*types.Func)
		if !ok {
			return
		}
		sum := p.Prog.SummaryOf(fn)
		sig, _ := fn.Type().(*types.Signature)
		if sum == nil || sig == nil {
			return
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if !refBearing(sig.Params().At(i).Type()) {
				continue
			}
			if fl := sum.flow(i); fl.Escapes || fl.ToResult {
				p.Reportf(call.Pos(),
					"%s callback %s retains the borrowed buffer (its summary lets the %s escape); copy the bytes it keeps",
					staticCallee(p.Info, call).Name(), fn.Name(), what)
				return
			}
		}
	}
}

// borrowScope is one dynamic extent inside which a set of objects hold
// borrowed views of a caller-owned buffer.
type borrowScope struct {
	pass *Pass
	// region is the body whose statements are scanned; locals declared
	// outside it (captured variables, enclosing-function params) are
	// overwrite-only relay targets.
	region *ast.BlockStmt
	// borrowed maps object → witness description of the borrow it carries.
	borrowed map[types.Object]string
}

func (bs *borrowScope) check() {
	if len(bs.borrowed) == 0 {
		return
	}
	bs.propagate()
	bs.sinks()
}

// propagate grows the borrowed set to a fixpoint: plain overwrites and
// callee ToParams flows relay the borrow (the sanctioned DecodeInto-into-a-
// reused-struct pattern); derived expressions (slices, field views, results
// of callees that return their argument) carry it too.
func (bs *borrowScope) propagate() {
	info := bs.pass.Info
	for round := 0; round < 32; round++ {
		changed := false
		mark := func(obj types.Object, why string) {
			if obj == nil || obj.Name() == "_" {
				return
			}
			if _, ok := bs.borrowed[obj]; !ok {
				bs.borrowed[obj] = why
				changed = true
			}
		}
		ast.Inspect(bs.region, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					var rhs ast.Expr
					if len(s.Rhs) == len(s.Lhs) {
						rhs = s.Rhs[i]
					} else if len(s.Rhs) == 1 {
						rhs = s.Rhs[0]
					}
					if rhs == nil {
						continue
					}
					why, ok := bs.derives(rhs)
					if !ok {
						continue
					}
					if id, plain := lhs.(*ast.Ident); plain {
						mark(objOf(info, id), why)
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						if why, ok := bs.derives(s.Values[i]); ok {
							mark(info.Defs[name], why)
						}
					}
				}
			case *ast.RangeStmt:
				if why, ok := bs.derives(s.X); ok {
					for _, e := range []ast.Expr{s.Key, s.Value} {
						if id, isID := e.(*ast.Ident); isID {
							if t := info.TypeOf(id); t != nil && refBearing(t) {
								mark(objOf(info, id), why)
							}
						}
					}
				}
			case *ast.CallExpr:
				bs.propagateCall(s, mark)
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// propagateCall applies callee ToParams flows: DecodeInto(rec.Data, &pkt)
// makes pkt borrowed.
func (bs *borrowScope) propagateCall(call *ast.CallExpr, mark func(types.Object, string)) {
	info := bs.pass.Info
	callee := staticCallee(info, call)
	sum := bs.pass.Prog.SummaryOf(callee)
	if sum == nil {
		return
	}
	args := callArgs(info, call)
	for i, arg := range args {
		why, ok := bs.derives(arg)
		if !ok {
			continue
		}
		fl := sum.flow(argIndex(callee, i))
		if fl.ToParams == 0 {
			continue
		}
		for j, target := range args {
			if fl.ToParams&(1<<uint(argIndex(callee, j)%64)) == 0 {
				continue
			}
			if root := rootIdent(stripAddr(target)); root != nil {
				mark(objOf(info, root), why)
			}
		}
	}
}

// derives reports whether e's value is a view of a borrowed buffer, and the
// witness description of the borrow it derives from. The cases mirror the
// summary engine's taint evaluator: field/index/slice views carry the alias,
// scalars and copying conversions do not, append copies scalar elements when
// spread, and module callees pass aliases through per their ToResult flows.
func (bs *borrowScope) derives(e ast.Expr) (string, bool) {
	info := bs.pass.Info
	switch x := e.(type) {
	case *ast.Ident:
		why, ok := bs.borrowed[objOf(info, x)]
		return why, ok
	case *ast.ParenExpr:
		return bs.derives(x.X)
	case *ast.SelectorExpr:
		if t := info.TypeOf(x); t != nil && !refBearing(t) {
			return "", false
		}
		if sel := info.Selections[x]; sel != nil && sel.Kind() != types.FieldVal {
			return "", false
		}
		return bs.derives(x.X)
	case *ast.IndexExpr:
		if t := info.TypeOf(x); t != nil && !refBearing(t) {
			return "", false
		}
		return bs.derives(x.X)
	case *ast.SliceExpr:
		return bs.derives(x.X)
	case *ast.StarExpr:
		return bs.derives(x.X)
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			return bs.derives(x.X)
		}
		return "", false
	case *ast.TypeAssertExpr:
		return bs.derives(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if why, ok := bs.derives(el); ok {
				return why, true
			}
		}
		return "", false
	case *ast.CallExpr:
		return bs.callDerives(x)
	}
	return "", false
}

func (bs *borrowScope) callDerives(call *ast.CallExpr) (string, bool) {
	info := bs.pass.Info
	// Conversions: string↔[]byte copy; reference-shaped conversions alias.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		src := info.TypeOf(call.Args[0])
		if refBearing(tv.Type) && src != nil && refBearing(src) && !isString(src) && !isString(tv.Type) {
			return bs.derives(call.Args[0])
		}
		return "", false
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				return bs.appendDerives(call)
			}
			return "", false
		}
	}
	callee := staticCallee(info, call)
	sum := bs.pass.Prog.SummaryOf(callee)
	if sum == nil {
		return "", false
	}
	args := callArgs(info, call)
	for i, arg := range args {
		if sum.flow(argIndex(callee, i)).ToResult {
			if why, ok := bs.derives(arg); ok {
				return why, true
			}
		}
	}
	return "", false
}

// appendDerives: append(dst, view...) with scalar elements copies the bytes
// (the sanctioned ownership transfer); appending a reference-bearing element
// keeps the alias alive in dst.
func (bs *borrowScope) appendDerives(call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	if why, ok := bs.derives(call.Args[0]); ok {
		return why, true
	}
	elemScalar := false
	if t := bs.pass.Info.TypeOf(call.Args[0]); t != nil {
		if sl, ok := t.Underlying().(*types.Slice); ok {
			elemScalar = !refBearing(sl.Elem())
		}
	}
	for _, arg := range call.Args[1:] {
		if call.Ellipsis.IsValid() && elemScalar {
			continue
		}
		if why, ok := bs.derives(arg); ok {
			return why, true
		}
	}
	return "", false
}

// sinks walks the scope once and reports every construct that lets a
// borrowed view outlive its validity window.
func (bs *borrowScope) sinks() {
	ast.Inspect(bs.region, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			bs.sinkStores(s)
		case *ast.SendStmt:
			if why, ok := bs.derives(s.Value); ok {
				bs.pass.Reportf(s.Pos(),
					"view of caller-owned buffer %s sent on a channel: the receiver reads it after the next read overwrites it; send a copy",
					why)
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if why, ok := bs.derives(res); ok {
					bs.pass.Reportf(res.Pos(),
						"view of caller-owned buffer %s returned past its validity window; return a copy",
						why)
				}
			}
		case *ast.GoStmt:
			for _, arg := range s.Call.Args {
				if why, ok := bs.derives(arg); ok {
					bs.pass.Reportf(arg.Pos(),
						"view of caller-owned buffer %s passed to a goroutine that may outlive it; pass a copy",
						why)
				}
			}
		case *ast.CallExpr:
			bs.sinkCall(s)
		}
		return true
	})
}

// sinkStores flags accumulation stores of borrowed views: container writes
// (index/map element, non-spread append) survive the iteration that wrote
// them, so the view inside them goes stale on the next read. Plain
// overwrites — including field stores that reset every iteration — relay the
// borrow instead and were handled by propagate.
func (bs *borrowScope) sinkStores(s *ast.AssignStmt) {
	info := bs.pass.Info
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		// Non-spread append of a borrowed ref-bearing element accumulates.
		if call, ok := unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
			for _, arg := range call.Args[1:] {
				if call.Ellipsis.IsValid() {
					if t := info.TypeOf(call.Args[0]); t != nil {
						if sl, ok := t.Underlying().(*types.Slice); ok && !refBearing(sl.Elem()) {
							continue // spread copy of scalar bytes
						}
					}
				}
				if why, ok := bs.derives(arg); ok {
					bs.pass.Reportf(arg.Pos(),
						"view of caller-owned buffer %s appended to %s: the element outlives the next read; append a copy",
						why, describeTarget(lhs))
				}
			}
			continue
		}
		why, ok := bs.derives(rhs)
		if !ok {
			continue
		}
		switch target := unparen(lhs).(type) {
		case *ast.IndexExpr:
			bs.pass.Reportf(s.Pos(),
				"view of caller-owned buffer %s stored into element of %s: the entry outlives the next read; store a copy",
				why, describeTarget(target.X))
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
			// Overwrite-style store: allowed as a relay unless the root is a
			// package-level variable, which outlives every read.
			if root := rootIdent(lhs); root != nil {
				if obj := objOf(info, root); obj != nil {
					if v, isVar := obj.(*types.Var); isVar && v.Parent() == bs.pass.Pkg.Scope() {
						bs.pass.Reportf(s.Pos(),
							"view of caller-owned buffer %s stored in package variable %s: it goes stale at the next read; store a copy",
							why, root.Name)
					}
				}
			}
		}
	}
}

// sinkCall flags passing a borrowed view to a callee whose summary retains
// it (stores it to the heap or a global).
func (bs *borrowScope) sinkCall(call *ast.CallExpr) {
	info := bs.pass.Info
	callee := staticCallee(info, call)
	sum := bs.pass.Prog.SummaryOf(callee)
	if sum == nil {
		return
	}
	args := callArgs(info, call)
	for i, arg := range args {
		why, ok := bs.derives(arg)
		if !ok {
			continue
		}
		if sum.flow(argIndex(callee, i)).Escapes {
			bs.pass.Reportf(arg.Pos(),
				"view of caller-owned buffer %s passed to %s, which retains its argument (summary: escapes); pass a copy",
				why, callee.Name())
		}
	}
}

// describeTarget renders an assignment target for diagnostics.
func describeTarget(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "a container"
}
