package teco

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// shippedRoots are the programs that ship, as (module directory, package)
// pairs: the tecosim and tecosimd commands, the bench module's benchmark
// and its layer probes, and testdata/apiroot, a main that calls all of
// package teco's exported API and so stands for its library users.
var shippedRoots = []struct{ dir, pkg string }{
	{".", "./cmd/tecosim"},
	{".", "./cmd/tecosimd"},
	{".", "./testdata/apiroot"},
	{"bench", "."},
	{"bench", "./probes"},
}

// testSupport is what no shipped root reaches and yet is not dead: a
// package that holds only tests, and exported test support that another
// package's tests call, which therefore cannot live in a _test.go file.
// Keys are a package path or a function as declName names it (pkg.Func,
// pkg.Type.Method); a function's value names a test in another package
// that needs it.
var testSupport = map[string]string{
	"teco/internal/conformance/prop": "a package of property tests only",

	"teco/internal/conformance/check.Enable":              "internal/fabric TestSwitchDegeneratesToBareLink",
	"teco/internal/conformance.Generate":                  "internal/server TestRunMatchesConformanceGoldens",
	"teco/internal/checkpoint.Faults.CrashNextWriteAfter": "internal/diskcache TestCrashAtEveryByteLeavesOldOrNothing",
	"teco/internal/checkpoint.Faults.Crashes":             "internal/server TestChaosKillRestartCycles",
	"teco/internal/checkpoint.Faults.Corruptions":         "internal/diskcache TestSilentCorruptionNeverServed",
}

// TestEveryInternalPackageShips: every internal package is reached by a
// shipped root, so code that nothing ships cannot accumulate beside the
// code that produces the numbers.
func TestEveryInternalPackageShips(t *testing.T) {
	goList := func(dir string, args ...string) map[string]bool {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list", "-C", dir}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		set := map[string]bool{}
		for _, p := range strings.Fields(string(out)) {
			set[p] = true
		}
		return set
	}
	shipped := map[string]bool{}
	for _, r := range shippedRoots {
		for p := range goList(r.dir, "-deps", r.pkg) {
			shipped[p] = true
		}
	}
	for p := range goList(".", "./internal/...") {
		if !shipped[p] && testSupport[p] == "" {
			t.Errorf("%s is reached by no shipped root", p)
		}
	}
}

// TestEveryInternalFunctionShips: every function and method declared in a
// non-test file under internal/ is linked into a shipped root, or is listed
// in testSupport — and every function testSupport lists is declared and
// unlinked, so the table cannot go stale. The linker's dependency dump
// (-ldflags=-dumpdep) names every symbol it keeps; inlining is off so an
// inlined callee is still named.
func TestEveryInternalFunctionShips(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every shipped root without inlining")
	}
	linked := map[string]bool{}
	for _, r := range shippedRoots {
		cmd := exec.Command("go", "build", "-C", r.dir, "-o", os.DevNull,
			"-gcflags=all=-l", "-ldflags=-dumpdep", r.pkg)
		var dump bytes.Buffer
		cmd.Stderr = &dump
		if err := cmd.Run(); err != nil {
			t.Fatalf("go build %s/%s: %v\n%s", r.dir, r.pkg, err, dump.Bytes())
		}
		sc := bufio.NewScanner(&dump)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			for _, sym := range strings.Split(sc.Text(), " -> ") {
				if strings.HasPrefix(sym, "teco/internal/") {
					linked[declName(sym)] = true
				}
			}
		}
	}

	var unlinked []string
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "teco/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[name] = true
			if !linked[name] && testSupport[name] == "" {
				unlinked = append(unlinked, fmt.Sprintf("%s %s", fset.Position(fn.Pos()), name))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range testSupport {
		if strings.Contains(filepath.Base(name), ".") && (!declared[name] || linked[name]) {
			t.Errorf("testSupport lists %s, which is not an unlinked declared function", name)
		}
	}
	sort.Strings(unlinked)
	if len(unlinked) > 0 {
		t.Errorf("%d functions are linked into no shipped root (delete them, or list test support in testSupport):\n%s",
			len(unlinked), strings.Join(unlinked, "\n"))
	}
}

// declName maps a linker symbol to the declaration it comes from:
// pkg.Func or pkg.Type.Method, with generic instantiations, pointer
// receivers, closures (.funcN, .gowrapN, .deferwrapN), method values (-fm)
// and numbered init functions folded away. A symbol that is not a function
// (arginfo, a type, a dictionary) maps to a name no declaration has.
func declName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0 && c != '(' && c != ')' && c != '*':
			b.WriteRune(c)
		}
	}
	sym = strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndexByte(sym, '/')
	dot := slash + strings.IndexByte(sym[slash:], '.')
	parts := strings.Split(sym[dot+1:], ".")
	for len(parts) > 1 && isGenerated(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	return sym[:dot] + "." + strings.Join(parts, ".")
}

// isGenerated reports whether a symbol element names compiler-generated
// code inside a declaration: a closure, a go/defer wrapper, or a number
// (nested closures, init.N).
func isGenerated(elem string) bool {
	for _, prefix := range []string{"func", "gowrap", "deferwrap"} {
		if rest, ok := strings.CutPrefix(elem, prefix); ok && rest != "" && strings.Trim(rest, "0123456789") == "" {
			return true
		}
	}
	return elem != "" && strings.Trim(elem, "0123456789") == ""
}

// recvName is a method's receiver type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
