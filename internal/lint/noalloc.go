package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc verifies that //armlint:noalloc functions contain no construct
// that can heap-allocate. It is the static complement of the
// testing.AllocsPerRun==0 gates on the frozen counting kernel: the runtime
// gate proves a particular execution allocated nothing, this pass proves no
// execution can, by refusing the constructs the compiler lowers to
// runtime allocation:
//
//   - make / new / append (growth or escape)
//   - slice, map and &struct composite literals (plain by-value struct
//     literals are fine — they stay in registers or the frame)
//   - function literals (closure environments escape)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - interface boxing at calls, assignments and returns (a concrete value
//     assigned to an interface is heap-boxed unless it is pointer-shaped,
//     which escape analysis may not prove)
//   - go and defer statements
//
// Callee bodies are not re-analyzed, but the call graph closes the
// contract: a noalloc function may only call module functions that are
// themselves annotated noalloc (the kernel's scanLeaf/Counters.add chain
// is), so an allocation can't hide one frame down. Standard-library calls
// are trusted case by case — the kernel's stdlib surface is popcount
// intrinsics and slice indexing, which don't allocate. False positives — a
// construct the compiler provably keeps on the stack — carry
// //armlint:allow noalloc.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "annotated functions contain no allocating constructs",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			fn := funcObj(pass.Info, fd)
			if fn == nil || !pass.Ann.NoAlloc[fn] {
				return true
			}
			checkNoAlloc(pass, fn, fd.Body)
			return false
		})
	}
}

func checkNoAlloc(pass *Pass, fn *types.Func, body *ast.BlockStmt) {
	info := pass.Info
	sig := fn.Type().(*types.Signature)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "noalloc %s: go statement allocates a goroutine", fn.Name())
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "noalloc %s: defer may allocate its frame record", fn.Name())
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "noalloc %s: function literal allocates its closure", fn.Name())
			return false
		case *ast.CompositeLit:
			switch deref(info.TypeOf(n)).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "noalloc %s: slice/map literal allocates", fn.Name())
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "noalloc %s: &composite literal escapes to the heap", fn.Name())
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "noalloc %s: string concatenation allocates", fn.Name())
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "noalloc %s: string concatenation allocates", fn.Name())
			}
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && boxes(info, info.TypeOf(lhs), n.Rhs[i]) {
					pass.Reportf(n.Rhs[i].Pos(), "noalloc %s: assignment boxes concrete value into interface", fn.Name())
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) && boxes(info, info.TypeOf(name), n.Values[i]) {
					pass.Reportf(n.Values[i].Pos(), "noalloc %s: var declaration boxes concrete value into interface", fn.Name())
				}
			}
		case *ast.ReturnStmt:
			res := sig.Results()
			for i, r := range n.Results {
				if i < res.Len() && boxes(info, res.At(i).Type(), r) {
					pass.Reportf(r.Pos(), "noalloc %s: return boxes concrete value into interface", fn.Name())
				}
			}
		case *ast.CallExpr:
			checkNoAllocCall(pass, fn, n)
		}
		return true
	})
}

func checkNoAllocCall(pass *Pass, fn *types.Func, call *ast.CallExpr) {
	info := pass.Info
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "noalloc %s: builtin %s allocates", fn.Name(), b.Name())
			}
			return
		}
	}
	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		srcT := info.TypeOf(call.Args[0])
		if srcT == nil {
			return
		}
		dst := deref(tv.Type).Underlying()
		src := deref(srcT).Underlying()
		switch {
		case isString(dst) && !isString(src):
			pass.Reportf(call.Pos(), "noalloc %s: conversion to string allocates", fn.Name())
		case isString(src):
			if sl, ok := dst.(*types.Slice); ok && isByteOrRune(sl.Elem()) {
				pass.Reportf(call.Pos(), "noalloc %s: string to slice conversion allocates", fn.Name())
			}
		}
		return
	}
	// Module callees must carry the annotation themselves — otherwise the
	// static proof has a hole one frame down.
	if pass.Graph != nil {
		if callee := calledFunc(info, call); callee != nil {
			if pass.Graph.Nodes[callee] != nil && !pass.Ann.NoAlloc[callee] {
				pass.Reportf(call.Pos(), "noalloc %s: calls module function %s which is not annotated //armlint:noalloc", fn.Name(), callee.Name())
			}
		}
	}
	// Ordinary calls: interface boxing of arguments.
	sig, ok := deref(info.TypeOf(call.Fun)).Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // passing a []T... slice through boxes nothing new
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(info, pt, arg) {
			pass.Reportf(arg.Pos(), "noalloc %s: argument boxes concrete value into interface", fn.Name())
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst wraps a
// concrete value in an interface.
func boxes(info *types.Info, dst types.Type, expr ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, ok := deref(dst).Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	src := tv.Type
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false // interface-to-interface carries the existing box
	}
	return true
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
