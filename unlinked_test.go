package dmdc_test

// Unlinked-function gate: every non-test function outside cmd/dmdcbench
// must be linked into at least one program — a cmd/* or examples/* main,
// or the benchmark (cmd/dmdcbench, a module of its own). A function that
// only tests call belongs in the _test.go file of the package whose tests
// use it; one that nothing calls is deleted. It builds every program
// without inlining (so every called function keeps a symbol) and reads
// their symbol tables with `go tool nm`, so it runs only with
// DMDC_UNLINKED=1, as `make unlinked` sets.

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowed are the functions no program links on purpose: entry
// points of the dmdc library facade that only library callers use.
// internal/apigen, the API gate's renderer, is test-only by design and
// skipped as a whole.
var unlinkedAllowed = map[string]bool{
	"dmdc.ConfigIQPressure":            true,
	"dmdc.PolicyKind.MarshalText":      true,
	"dmdc.(*PolicyKind).UnmarshalText": true,
	"dmdc.ParseFaultSpec":              true,
	"dmdc.NewTelemetrySampler":         true,
	"dmdc.NewSuite":                    true,
}

func TestUnlinkedFunctions(t *testing.T) {
	if os.Getenv("DMDC_UNLINKED") == "" {
		t.Skip("set DMDC_UNLINKED=1 to build every program and check that it links every function")
	}
	bin := t.TempDir()
	run := func(dir string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			stderr := ""
			if ee, ok := err.(*exec.ExitError); ok {
				stderr = string(ee.Stderr)
			}
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr)
		}
		return out
	}

	// Every package of this module, with the files this platform builds.
	type pkg struct{ name, importPath, dir string }
	var pkgs []pkg
	files := map[string][]string{}
	list := run(".", "list", "-f", "{{.Name}}|{{.ImportPath}}|{{.Dir}}|{{join .GoFiles \",\"}}", "./...")
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		f := strings.SplitN(line, "|", 4)
		p := pkg{name: f[0], importPath: f[1], dir: f[2]}
		pkgs = append(pkgs, p)
		if f[3] != "" {
			files[p.importPath] = strings.Split(f[3], ",")
		}
	}

	// Build every main package, then the benchmark from its own module.
	var mains []string
	for _, p := range pkgs {
		if p.name == "main" {
			mains = append(mains, p.importPath)
		}
	}
	run(".", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	run(filepath.Join("cmd", "dmdcbench"), "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "dmdcbench"), ".")

	// A library function counts as linked if any program links it; a main
	// package's function only if its own program does (every program's
	// package is "main").
	linked := map[string]bool{}
	ownSyms := map[string]map[string]bool{}
	for _, name := range append(mains, "dmdcbench") {
		syms := map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(run(".", "tool", "nm", filepath.Join(bin, path.Base(name)))))
		for sc.Scan() {
			// "ADDR TYPE NAME": keep text symbols.
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := dropTypeArgs(strings.Join(f[2:], " "))
			syms[sym] = true
			linked[sym] = true
		}
		ownSyms[name] = syms
	}

	var unlinked []string
	for _, p := range pkgs {
		if p.importPath == "dmdc/internal/apigen" {
			continue
		}
		prefix, syms := p.importPath, linked
		if p.name == "main" {
			prefix, syms = "main", ownSyms[p.importPath]
		}
		fset := token.NewFileSet()
		for _, file := range files[p.importPath] {
			af, err := parser.ParseFile(fset, filepath.Join(p.dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				sym := prefix + "." + nmName(fd)
				if !syms[sym] && !unlinkedAllowed[sym] {
					unlinked = append(unlinked, fset.Position(fd.Pos()).String()+": "+sym)
				}
			}
		}
	}
	sort.Strings(unlinked)
	if len(unlinked) > 0 {
		t.Fatalf("%d functions are linked into no program; delete each, or move it into the _test.go file of the package whose tests use it:\n  %s",
			len(unlinked), strings.Join(unlinked, "\n  "))
	}
}

// nmName renders a function declaration's name the way `go tool nm`
// prints it after its package path: F, T.M, or (*T).M, with a generic
// receiver's type parameters dropped.
func nmName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if se, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, se.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// dropTypeArgs removes bracketed type arguments from a symbol name, so a
// generic function's instantiations (F[...]) match its declaration.
func dropTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}
