package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MetricName requires telemetry metric names to be constants or come from
// a precomputed cache (the PR-6 monitor name cache replaced four
// fmt.Sprintf calls per RA-interval). A name argument to a Registry
// method may be any constant expression or any cached lookup (identifier,
// selector, index); what it may not be is freshly formatted at the call
// site — fmt.Sprintf/Sprint/Errorf or non-constant string concatenation.
// One-time registration loops with bounded cardinality carry
// //edgeslice:dynname <reason>.
var MetricName = &Analyzer{
	Name:        "metricname",
	Doc:         "telemetry metric name formatted at the call site",
	SuppressKey: "dynname",
	Run:         runMetricName,
}

// registryNameMethods are the Registry methods whose first argument is a
// metric name.
var registryNameMethods = map[string]bool{"CounterFunc": true, "GaugeFunc": true}

var formattingFuncs = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true,
}

func runMetricName(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registryNameMethods[sel.Sel.Name] {
				return true
			}
			if !isRegistry(typeOf(p.Pkg, sel.X)) {
				return true
			}
			name := call.Args[0]
			if tv, ok := p.Pkg.Info.Types[name]; ok && tv.Value != nil {
				return true // constant name
			}
			switch arg := name.(type) {
			case *ast.CallExpr:
				if fn := qualifiedCallee(p.Pkg.Info, arg); formattingFuncs[fn] {
					p.Reportf(arg.Pos(),
						"metric name built with %s at the call site: hoist it to a constant or a name cache so exposition never formats per call, or justify with //edgeslice:dynname <reason>", fn)
				}
			case *ast.BinaryExpr:
				if arg.Op == token.ADD {
					p.Reportf(arg.Pos(),
						"metric name built by string concatenation at the call site: hoist it to a constant or a name cache, or justify with //edgeslice:dynname <reason>")
				}
			}
			return true
		})
	}
}

// isRegistry matches *Registry / Registry receivers by type name, so the
// check covers both internal/telemetry.Registry and the façade re-export
// without importing either.
func isRegistry(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}
