package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path ("edgeslice/internal/core", or fixture-relative)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives indexes every //edgeslice: comment by filename and line.
	directives map[string]map[int][]Directive
	// loader is the Loader that loaded this package: the reach analyzer
	// walks every package it has loaded.
	loader *Loader
}

// A Loader loads packages rooted at a directory, resolving module-local
// imports from source and everything else through the compiler's source
// importer (the toolchain ships no pre-built export data, and this module
// has no external dependencies, so compiling stdlib imports from source is
// both sufficient and hermetic).
type Loader struct {
	// Root is the directory holding the package tree.
	Root string
	// ModulePath is the import-path prefix Root corresponds to
	// ("edgeslice" for the repository; "" for fixture trees, where any
	// import path that names a directory under Root is local).
	ModulePath string
	// Overlay substitutes file contents by absolute path, letting tests
	// lint mutated copies of real sources without touching the tree.
	Overlay map[string][]byte

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool

	// reached caches reachable() over the reachedOver packages loaded
	// when it ran.
	reached     map[types.Object]bool
	reachedOver int
}

// NewLoader creates a loader for the package tree at root.
func NewLoader(root, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// dirFor maps an import path to a directory under Root, or ok=false when
// the path is not local to this loader.
func (l *Loader) dirFor(path string) (string, bool) {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.Root, true
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.Root, filepath.FromSlash(rest)), true
		}
		return "", false
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir, true
	}
	return "", false
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if _, ok := l.dirFor(path); ok {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %q is not under %s", path, l.Root)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		full := filepath.Join(dir, name)
		var src any
		if b, ok := l.Overlay[full]; ok {
			src = b
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	pkg := &Package{
		Path:       path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		directives: make(map[string]map[int][]Directive),
		loader:     l,
	}
	for _, f := range files {
		filename := l.fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := l.fset.Position(c.Pos()).Line
				if d, ok := parseDirective(c.Text, line); ok {
					if pkg.directives[filename] == nil {
						pkg.directives[filename] = make(map[int][]Directive)
					}
					pkg.directives[filename][line] = append(pkg.directives[filename][line], d)
				}
			}
		}
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadTree loads every package under Root (skipping testdata, hidden, and
// VCS directories), returning them sorted by import path.
func (l *Loader) LoadTree() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "memory") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			return nil // no buildable Go files here
		}
		rel, err := filepath.Rel(l.Root, p)
		if err != nil {
			return err
		}
		switch {
		case rel == ".":
			if l.ModulePath != "" {
				paths = append(paths, l.ModulePath)
			}
		case l.ModulePath != "":
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		default:
			paths = append(paths, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
