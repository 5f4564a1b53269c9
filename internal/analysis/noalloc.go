package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc turns the benchmark allocation gates into a review-time check:
// a function annotated //edgeslice:noalloc in its doc comment (the warm
// inference paths — ForwardBatch, Forward1WS, ActBatch, ReduceOver —
// whose 0 B/op the engine benchmarks pin) must not contain
// allocating constructs. Flagged shapes:
//
//   - make / new
//   - &T{...}, and slice or map composite literals (struct *values* are
//     stack constructions and stay legal)
//   - append (may grow the backing array)
//   - func literals that capture function-local variables
//   - non-constant string concatenation, string<->[]byte conversions
//   - explicit conversion to an interface type, and implicit boxing in
//     return statements
//   - known allocating helpers (fmt.Sprintf & co, strconv formatters,
//     strings.Join/Repeat)
//
// Arguments of panic(...) are exempt — a panicking path is not warm.
// Individual sites proven non-allocating (e.g. a closure the compiler
// keeps on the stack, pinned by a benchmark) carry
// //edgeslice:allocok <reason>.
var NoAlloc = &Analyzer{
	Name:        "noalloc",
	Doc:         "allocating construct inside a //edgeslice:noalloc function",
	SuppressKey: "allocok",
	Run:         runNoAlloc,
}

// noallocKey is the opt-in annotation key (distinct from the suppression
// key so annotating a function never reads as suppressing a finding).
const noallocKey = "noalloc"

var allocatingFuncs = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "strconv.Itoa": true, "strconv.FormatInt": true,
	"strconv.FormatFloat": true, "strconv.Quote": true,
	"strings.Join": true, "strings.Repeat": true,
}

func runNoAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := p.Pkg.FuncDirective(fn, noallocKey); !ok {
				continue
			}
			checkNoAlloc(p, fn)
		}
	}
}

func checkNoAlloc(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.Info

	// Pre-pass: mark composite literals whose address is taken (they are
	// reported at the &, once) and string-concat operands nested inside a
	// wider concat (reported once per chain, at the outermost node).
	addressed := make(map[*ast.CompositeLit]bool)
	innerConcat := make(map[*ast.BinaryExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				addressed[lit] = true
			}
		case *ast.BinaryExpr:
			if isStringConcat(p, n) {
				for _, side := range [2]ast.Expr{n.X, n.Y} {
					if b, ok := side.(*ast.BinaryExpr); ok && isStringConcat(p, b) {
						innerConcat[b] = true
					}
				}
			}
		}
		return true
	})

	var resultTuple *types.Tuple
	if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
		resultTuple = obj.Type().(*types.Signature).Results()
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "panic":
						return false // panic paths are cold by definition
					case "make":
						p.Reportf(n.Pos(), "make allocates in a //edgeslice:noalloc function; draw from the workspace instead")
					case "new":
						p.Reportf(n.Pos(), "new allocates in a //edgeslice:noalloc function; draw from the workspace instead")
					case "append":
						p.Reportf(n.Pos(), "append may grow its backing array in a //edgeslice:noalloc function; pre-size via the workspace")
					}
					return true
				}
			}
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				reportAllocatingConversion(p, n, tv.Type)
				return true
			}
			if name := qualifiedCallee(info, n); allocatingFuncs[name] {
				p.Reportf(n.Pos(), "%s allocates its result in a //edgeslice:noalloc function", name)
			}
		case *ast.CompositeLit:
			t := typeOf(p.Pkg, n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocates in a //edgeslice:noalloc function")
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocates in a //edgeslice:noalloc function")
			default:
				if addressed[n] {
					p.Reportf(n.Pos(), "&composite literal allocates in a //edgeslice:noalloc function")
				}
			}
		case *ast.FuncLit:
			if captured := capturedVar(p, fn, n); captured != "" {
				p.Reportf(n.Pos(), "closure captures %s and may allocate in a //edgeslice:noalloc function", captured)
			}
		case *ast.BinaryExpr:
			if isStringConcat(p, n) && !innerConcat[n] {
				p.Reportf(n.Pos(), "string concatenation allocates in a //edgeslice:noalloc function")
			}
		case *ast.ReturnStmt:
			if resultTuple == nil || len(n.Results) != resultTuple.Len() {
				return true
			}
			for i, res := range n.Results {
				want := resultTuple.At(i).Type()
				got := typeOf(p.Pkg, res)
				if got == nil {
					continue
				}
				if types.IsInterface(want) && !types.IsInterface(got) && !isNil(got) {
					p.Reportf(res.Pos(), "returning %s as %s boxes the value in a //edgeslice:noalloc function", got, want)
				}
			}
		}
		return true
	})
}

func isNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isStringConcat(p *Pass, b *ast.BinaryExpr) bool {
	if b.Op != token.ADD {
		return false
	}
	tv, ok := p.Pkg.Info.Types[b]
	if !ok || tv.Value != nil { // constants fold at compile time
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// reportAllocatingConversion flags conversions that copy or box:
// concrete->interface, string<->[]byte/[]rune.
func reportAllocatingConversion(p *Pass, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := typeOf(p.Pkg, call.Args[0])
	if src == nil {
		return
	}
	if types.IsInterface(target) && !types.IsInterface(src) {
		p.Reportf(call.Pos(), "conversion to interface %s boxes the value in a //edgeslice:noalloc function", target)
		return
	}
	tb, tOK := target.Underlying().(*types.Basic)
	_, sSlice := src.Underlying().(*types.Slice)
	if tOK && tb.Info()&types.IsString != 0 && sSlice {
		p.Reportf(call.Pos(), "[]byte/[]rune to string conversion copies in a //edgeslice:noalloc function")
		return
	}
	sb, sOK := src.Underlying().(*types.Basic)
	_, tSlice := target.Underlying().(*types.Slice)
	if sOK && sb.Info()&types.IsString != 0 && tSlice {
		p.Reportf(call.Pos(), "string to []byte/[]rune conversion copies in a //edgeslice:noalloc function")
	}
}

// capturedVar returns the name of a function-local variable from the
// enclosing function that the literal captures, or "".
func capturedVar(p *Pass, enclosing *ast.FuncDecl, lit *ast.FuncLit) string {
	info := p.Pkg.Info
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but outside
		// the literal. Package-level vars are direct references, not
		// captures.
		if v.Pos() == token.NoPos {
			return true
		}
		if v.Pos() >= enclosing.Pos() && v.Pos() < enclosing.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

// qualifiedCallee renders pkg.Func for a selector call on a package, or "".
func qualifiedCallee(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
