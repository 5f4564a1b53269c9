package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Reach flags top-level funcs, types, vars and consts under internal/ that
// no binary can run, turning "every mechanism is exercised by a binary, an
// example or the benchmark, or it is deleted" into a lint. Tests do not
// justify code here, because the Loader reads no _test.go file; a symbol
// kept only as a test's reference implementation carries
// //edgeslice:reach <reason>.
//
// The walk is whole-program over every package the Loader has loaded, so a
// run over a package subset still sees every caller. Roots are the main of
// each package main, every init func and every package-level var
// initializer; the root façade package is not a root, so a façade export
// that no binary or example uses does not keep its internals alive. From
// the roots the walk follows types.Info.Uses (instantiated generic methods
// mapped back through Origin) into each reached declaration, and every
// method of a reached named type counts as reached. That rule is
// conservative: a method called only through an interface is never
// reported dead.
//
// Packages named *test (analysistest, rltest) are test support by Go
// convention and are not reported.
var Reach = &Analyzer{
	Name:        "reach",
	Doc:         "top-level symbol under internal/ that no main, init or var initializer reaches",
	SuppressKey: "reach",
	Match:       matchSegments("internal"),
	Run:         runReach,
}

func runReach(p *Pass) {
	if strings.HasSuffix(p.Pkg.Types.Name(), "test") {
		return
	}
	reached := p.Pkg.loader.reachable()
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			for _, id := range declaredNames(decl) {
				obj := p.Pkg.Info.Defs[id]
				if obj == nil || id.Name == "_" || id.Name == "init" || reached[obj] {
					continue
				}
				p.Reportf(id.Pos(), "%s %s is reached from no main, init or var initializer: delete it", objKind(obj), id.Name)
			}
		}
	}
}

// declaredNames returns the identifiers a top-level declaration binds,
// leaving out methods: a method is reached whenever its type is.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// A declSite is one piece of syntax whose identifiers a reached object
// makes reachable, with the package whose Info resolves them.
type declSite struct {
	pkg  *Package
	node ast.Node
}

// reachable returns the set of objects reached from the roots of every
// loaded package, computing it once per loaded-package count.
func (l *Loader) reachable() map[types.Object]bool {
	if l.reached != nil && l.reachedOver == len(l.pkgs) {
		return l.reached
	}
	decls := make(map[types.Object][]declSite)
	methods := make(map[types.Object][]types.Object)
	var roots []declSite
	for _, pkg := range l.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					if obj == nil {
						continue
					}
					site := declSite{pkg, d}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
						roots = append(roots, site)
						continue
					}
					decls[obj] = append(decls[obj], site)
					if d.Recv != nil {
						if tn := recvTypeName(obj); tn != nil {
							methods[tn] = append(methods[tn], obj)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if obj := pkg.Info.Defs[s.Name]; obj != nil {
								decls[obj] = append(decls[obj], declSite{pkg, s})
							}
						case *ast.ValueSpec:
							for _, v := range s.Values {
								if d.Tok == token.VAR {
									roots = append(roots, declSite{pkg, v})
								}
							}
							for _, id := range s.Names {
								if obj := pkg.Info.Defs[id]; obj != nil {
									decls[obj] = append(decls[obj], declSite{pkg, s})
								}
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[types.Object]bool)
	var work []declSite
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a method of an instantiated generic type
		}
		if reached[obj] {
			return
		}
		reached[obj] = true
		work = append(work, decls[obj]...)
		for _, m := range methods[obj] {
			if !reached[m] {
				reached[m] = true
				work = append(work, decls[m]...)
			}
		}
	}
	work = append(work, roots...)
	for len(work) > 0 {
		site := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(site.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := site.pkg.Info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	l.reached, l.reachedOver = reached, len(l.pkgs)
	return reached
}

// recvTypeName returns the declared named type a method belongs to.
func recvTypeName(method types.Object) types.Object {
	recv := method.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}
