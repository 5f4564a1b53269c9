package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Reach flags top-level funcs, types, vars and consts under internal/, and
// methods of reached types, that no binary can run, turning "every
// mechanism is exercised by a binary, an example or the benchmark, or it is
// deleted" into a lint. Tests do not justify code here, because the Loader
// reads no _test.go file; a symbol kept only as a test's reference
// implementation carries //edgeslice:reach <reason>.
//
// The walk is whole-program over every package the Loader has loaded, so a
// run over a package subset still sees every caller. Roots are the main of
// each package main, every init func and every package-level var
// initializer, so an exported function that no binary or example calls
// keeps nothing alive. From the roots the walk follows types.Info.Uses
// (instantiated generic methods mapped back through Origin) into each
// reached declaration. A method is reached when a reached declaration
// names it, or when its type is reached and the method implements an
// interface the program can call it through: an interface type of the
// loaded code, an exported interface of a standard package it imports, or
// error. Every method of a reached generic type counts as reached.
//
// Packages named *test (analysistest, rltest) are test support by Go
// convention and are not reported.
var Reach = &Analyzer{
	Name:        "reach",
	Doc:         "symbol or method under internal/ that no main, init or var initializer reaches",
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
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				if m := p.Pkg.Info.Defs[fn.Name]; m != nil && !reached[m] {
					if tn := recvTypeName(m); tn != nil && reached[tn] {
						p.Reportf(fn.Name.Pos(), "method %s.%s is reached from no main, init or var initializer: delete it", tn.Name(), fn.Name.Name)
					}
				}
				continue
			}
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

// declaredNames returns the identifiers a top-level declaration other than
// a method binds.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
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

	ifaces := l.callableInterfaces()
	reached := make(map[types.Object]bool)
	var work []declSite
	var mark func(types.Object)
	mark = func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a method of an instantiated generic type
		}
		if reached[obj] {
			return
		}
		reached[obj] = true
		work = append(work, decls[obj]...)
		named, ok := obj.Type().(*types.Named)
		if _, local := decls[obj]; !local || !ok || types.IsInterface(named) {
			return
		}
		if named.TypeParams().Len() > 0 {
			for _, m := range methods[obj] {
				mark(m)
			}
			return
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			return
		}
		for _, iface := range ifaces {
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := range iface.NumMethods() {
				m := iface.Method(i)
				mark(mset.Lookup(m.Pkg(), m.Name()).Obj()) // a promoted method marks the embedded one
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

// callableInterfaces returns every interface a reached method may be called
// through: those of the loaded code, the exported ones of every standard
// package it imports (fmt.Stringer, json.Marshaler, flag.Value, ...), and
// error.
func (l *Loader) callableInterfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var std func(*types.Package)
	std = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		if _, local := l.pkgs[p.Path()]; !local {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
						add(tn.Type())
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			std(imp)
		}
	}
	for _, pkg := range l.pkgs {
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
		std(pkg.Types)
	}
	return out
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
