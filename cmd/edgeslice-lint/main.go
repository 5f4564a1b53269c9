// Command edgeslice-lint runs the EdgeSlice invariant analyzers
// (internal/analysis) over the module: map-iteration determinism
// (maporder), seeded-clock discipline (walltime), allocation-free warm
// paths (noalloc), no blocking I/O under a mutex (lockio), precomputed
// metric names (metricname), no silently dropped deferred Close errors
// (deferclose), and no symbol under internal/ that no main, init or var
// initializer reaches (reach).
//
// Usage:
//
//	edgeslice-lint [-only names] [-list] [packages]
//
// Packages default to ./... (the whole module). A pattern may be ./...,
// a directory like ./internal/core, or a directory tree like
// ./internal/rl/... . The whole module is always loaded, so reach sees
// every caller; only findings in the selected packages are printed. Exit
// status: 0 clean, 1 diagnostics reported,
// 2 usage or load failure. Findings are suppressed line-by-line with
// //edgeslice:<key> <reason> directives; see internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"edgeslice/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s (suppress: //edgeslice:%s <reason>)\n", a.Name, a.Doc, a.SuppressKey)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fatalf("unknown analyzer %q (use -list)", name)
		}
		analyzers = filtered
	}

	root, modulePath, err := findModule()
	if err != nil {
		fatalf("%v", err)
	}
	loader := analysis.NewLoader(root, modulePath)
	pkgs, err := loader.LoadTree()
	if err != nil {
		fatalf("%v", err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected, err := filterPackages(pkgs, patterns, root, modulePath)
	if err != nil {
		fatalf("%v", err)
	}

	diags := analysis.RunAnalyzers(selected, analyzers)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "edgeslice-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModule walks up from the working directory to the enclosing go.mod
// and returns the module root and path.
func findModule() (root, modulePath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// filterPackages selects the loaded packages matching the given patterns.
func filterPackages(pkgs []*analysis.Package, patterns []string, root, modulePath string) ([]*analysis.Package, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		}
		if pat == "." && recursive && samePath(cwd, root) {
			for _, p := range pkgs {
				keep[p.Path] = true
			}
			continue
		}
		// Resolve the pattern to an import path, accepting either a
		// directory (./internal/core) or an import path (edgeslice/...).
		var ip string
		if pat == modulePath || strings.HasPrefix(pat, modulePath+"/") {
			ip = pat
		} else {
			abs, err := filepath.Abs(pat)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				return nil, fmt.Errorf("pattern %q is outside module %s", pat, modulePath)
			}
			if rel == "." {
				ip = modulePath
			} else {
				ip = modulePath + "/" + filepath.ToSlash(rel)
			}
		}
		matched := false
		for _, p := range pkgs {
			if p.Path == ip || (recursive && strings.HasPrefix(p.Path, ip+"/")) {
				keep[p.Path] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	var out []*analysis.Package
	for _, p := range pkgs {
		if keep[p.Path] {
			out = append(out, p)
		}
	}
	return out, nil
}

func samePath(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "edgeslice-lint: "+format+"\n", args...)
	os.Exit(2)
}
