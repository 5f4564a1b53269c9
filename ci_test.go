package edgeslice_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciTestCommand is one `go test … -run <regex> <packages>` of the workflow.
type ciTestCommand struct {
	line     int
	run      string
	packages []string
}

var ciRunFlag = regexp.MustCompile(`-run[= ]\s*(?:'([^']*)'|"([^"]*)"|(\S+))`)

// ciTestCommands extracts every `go test` invocation with a -run filter from
// the workflow text. Commands chained with && on one line are separate.
func ciTestCommands(workflow string) []ciTestCommand {
	var cmds []ciTestCommand
	for n, line := range strings.Split(workflow, "\n") {
		for _, cmd := range strings.Split(line, "&&") {
			if !strings.Contains(cmd, "go test") {
				continue
			}
			m := ciRunFlag.FindStringSubmatch(cmd)
			if m == nil {
				continue
			}
			c := ciTestCommand{line: n + 1, run: m[1] + m[2] + m[3]}
			for _, arg := range strings.Fields(cmd) {
				if arg == "." || strings.HasPrefix(arg, "./") {
					c.packages = append(c.packages, arg)
				}
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// alternatives splits a regex on its top-level | so each name a step lists
// is checked on its own: one stale alternative among live ones is exactly
// the silent drop this test exists for.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// testNames lists the top-level functions whose names start with one of
// prefixes ("Test", "Benchmark", …) in the package directories a go-test
// package pattern (., ./dir/ or ./dir/...) names, parsed from source so the
// check needs no build.
func testNames(t *testing.T, pattern string, prefixes ...string) []string {
	t.Helper()
	dir, recursive := strings.TrimSuffix(pattern, "..."), strings.HasSuffix(pattern, "...")
	dir = filepath.Clean(dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			nested := path != dir && (!recursive || d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), "."))
			if nested {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(fn.Name.Name, p) }) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("listing tests of %s: %v", pattern, err)
	}
	return names
}

// TestCIRunFiltersMatchTests keeps .github/workflows/ci.yml honest: every
// alternative of every `-run` filter must still name at least one test in
// the packages its step runs, so renaming or deleting a test cannot turn a
// CI gate into a silent no-op.
func TestCIRunFiltersMatchTests(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := ciTestCommands(string(workflow))
	if len(cmds) < 10 {
		t.Fatalf("found only %d `go test -run` commands in ci.yml: the extraction is broken", len(cmds))
	}
	checked := 0
	for _, c := range cmds {
		if c.run == "^$" { // a benchmark-only step
			continue
		}
		if len(c.packages) == 0 {
			t.Errorf("ci.yml:%d: -run '%s' names no package", c.line, c.run)
			continue
		}
		var names []string
		for _, p := range c.packages {
			names = append(names, testNames(t, p, "Test")...)
		}
		for _, alt := range alternatives(c.run) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", c.line, alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in %v", c.line, alt, c.packages)
			}
			checked++
		}
	}
	t.Logf("checked %d -run alternatives across %d commands", checked, len(cmds))
}
