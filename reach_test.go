package teco

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
// package that holds only tests, exported test support that another
// package's tests call, which therefore cannot live in a _test.go file, and
// a Config field only tests set. Keys are a package path, a function as
// declName names it (pkg.Func, pkg.Type.Method) or a field
// (pkg.Type.Field); a function's or field's value names a test that needs
// it.
var testSupport = map[string]string{
	"teco/internal/conformance/prop": "a package of property tests only",

	"teco/internal/conformance/check.Enable":              "internal/fabric TestSwitchDegeneratesToBareLink",
	"teco/internal/conformance.Generate":                  "internal/server TestRunMatchesConformanceGoldens",
	"teco/internal/checkpoint.Faults.CrashNextWriteAfter": "internal/diskcache TestCrashAtEveryByteLeavesOldOrNothing",
	"teco/internal/checkpoint.Faults.Crashes":             "internal/server TestChaosKillRestartCycles",
	"teco/internal/checkpoint.Faults.Corruptions":         "internal/diskcache TestSilentCorruptionNeverServed",

	"teco/internal/server.Config.Run": "internal/server TestDrainFinishesInFlightAndRejectsNew and the other stub-runner tests",
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
// in testSupport — and no function testSupport lists is linked, so the
// table cannot go stale (TestEveryKnobIsSet checks that every key names
// something declared). The linker's dependency dump
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
		if declared[name] && linked[name] {
			t.Errorf("testSupport lists %s, which a shipped root links", name)
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

// TestEveryKnobIsSet: every exported field of a struct declared in package
// teco or under internal/ that non-test code reads is assigned a value other
// than the constant zero value by some shipped root, or is listed in
// testSupport with a test that needs it. A field only tests set is a test
// hook that keeps its branch (and whatever the branch calls) in the shipped
// binaries, which the function gate cannot see. Forwarding (X: y.X, or
// x.X = y.X) counts as set only if the source field is set. Type-checking
// from source builds nothing, so this runs under -short too.
func TestEveryKnobIsSet(t *testing.T) {
	l := newKnobLoader(t)
	for _, r := range shippedRoots {
		if _, err := l.Import(l.importPath(filepath.Join(r.dir, r.pkg))); err != nil {
			t.Fatal(err)
		}
	}
	s := knobScan{info: l.info, fields: map[*types.Var]string{}, read: map[*types.Var]bool{},
		set: map[*types.Var]bool{}, fwd: map[*types.Var][]*types.Var{}, lhs: map[*ast.SelectorExpr]bool{}}
	funcs := map[string]bool{}
	for _, p := range l.pkgs {
		if p.types.Path() == "teco" || strings.HasPrefix(p.types.Path(), "teco/internal/") {
			s.track(p.types)
		}
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					name := p.types.Path() + "." + fn.Name.Name
					if fn.Recv != nil {
						name = p.types.Path() + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
					}
					funcs[name] = true
					if testSupport[name] != "" {
						continue // test support does not ship
					}
				}
				ast.Inspect(decl, s.visit)
			}
		}
	}

	var unset []string
	fields := map[string]bool{}
	for f, name := range s.fields {
		fields[name] = true
		exempt := testSupport[name] != ""
		switch knob := s.read[f] && !s.isSet(f, map[*types.Var]bool{}); {
		case knob && !exempt:
			unset = append(unset, fmt.Sprintf("%s %s", l.fset.Position(f.Pos()), name))
		case !knob && exempt:
			t.Errorf("testSupport lists %s, which is not a field that non-test code reads and no shipped root sets", name)
		}
	}
	for name := range testSupport {
		if l.dirs[name] == "" && !funcs[name] && !fields[name] {
			t.Errorf("testSupport lists %s, which is not a package, function or field", name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d fields are read but set by no shipped root (delete them, or list test support in testSupport):\n%s",
			len(unset), strings.Join(unset, "\n"))
	}
}

// knobLoader type-checks the module's packages and the bench module's from
// source, in one universe so a field is one *types.Var everywhere; the
// standard library comes from the source importer.
type knobLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*knobPkg
	info *types.Info
}

type knobPkg struct {
	types *types.Package
	files []*ast.File
}

func newKnobLoader(t *testing.T) *knobLoader {
	l := &knobLoader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*knobPkg{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		l.dirs[l.importPath(path)] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// importPath maps a directory to its import path; bench/ is the teco/bench
// module, whose paths line up with the directory tree.
func (l *knobLoader) importPath(dir string) string {
	if dir = filepath.ToSlash(filepath.Clean(dir)); dir == "." {
		return "teco"
	}
	return "teco/" + dir
}

// Import type-checks a module package's non-test files for this platform.
func (l *knobLoader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p.types, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &knobPkg{}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, l.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.types, nil
}

// knobScan collects, per tracked field, whether non-test code reads it,
// whether it assigns it a value that is not the constant zero value, and
// which fields it is forwarded from.
type knobScan struct {
	info   *types.Info
	fields map[*types.Var]string // exported fields of named structs, by pkg.Type.Field
	read   map[*types.Var]bool
	set    map[*types.Var]bool
	fwd    map[*types.Var][]*types.Var
	lhs    map[*ast.SelectorExpr]bool // assigned, not read
}

func (s *knobScan) track(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			// type T U shares U's fields: name each after its first
			// declaring type.
			f := st.Field(i)
			if f.Exported() && !f.Embedded() && f.Pkg() == pkg && s.fields[f] == "" {
				s.fields[f] = pkg.Path() + "." + name + "." + f.Name()
			}
		}
	}
}

// field returns the tracked field e selects, if any.
func (s *knobScan) field(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	if x := s.info.Selections[sel]; x != nil && x.Kind() == types.FieldVal {
		if f := x.Obj().(*types.Var).Origin(); s.fields[f] != "" {
			return sel, f
		}
	}
	return nil, nil
}

func (s *knobScan) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
				s.write(lhs, n.Rhs[i])
			} else {
				s.write(lhs, nil)
			}
		}
	case *ast.IncDecStmt:
		s.write(n.X, nil)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			s.write(n.X, nil) // written through the pointer, for all we know
		}
	case *ast.CompositeLit:
		st, ok := s.info.TypeOf(n).Underlying().(*types.Struct)
		if !ok {
			break
		}
		for i, elt := range n.Elts {
			f, val := st.Field(i), elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				f, val = s.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
			}
			if f = f.Origin(); s.fields[f] != "" {
				s.assign(f, val)
			}
		}
	case *ast.SelectorExpr:
		if _, f := s.field(n); f != nil && !s.lhs[n] {
			s.read[f] = true
		}
	}
	return true
}

// write records an assignment of val (nil: an unknown value) to lhs. The
// field lhs selects gets the value; a field it indexes or selects into
// (x.F[i] = v, x.F.G = v) is set too.
func (s *knobScan) write(lhs, val ast.Expr) {
	for e := lhs; ; val = nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel, f := s.field(x); f != nil {
				s.lhs[sel] = true
				if val != nil {
					s.assign(f, val)
				} else {
					s.set[f] = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// assign records f = val: nothing for the constant zero value, an edge for
// a value forwarded from another tracked field, a set otherwise.
func (s *knobScan) assign(f *types.Var, val ast.Expr) {
	val = ast.Unparen(val)
	for {
		// See through conversions: T(y.X) forwards y.X.
		call, ok := val.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || !s.info.Types[call.Fun].IsType() {
			break
		}
		val = ast.Unparen(call.Args[0])
	}
	if _, src := s.field(val); src != nil {
		s.fwd[f] = append(s.fwd[f], src)
		return
	}
	tv := s.info.Types[val]
	switch {
	case tv.IsNil():
		return
	case tv.Value != nil:
		switch v := tv.Value; v.Kind() {
		case constant.Bool:
			if !constant.BoolVal(v) {
				return
			}
		case constant.String:
			if constant.StringVal(v) == "" {
				return
			}
		default:
			if constant.Sign(v) == 0 {
				return
			}
		}
	}
	if lit, ok := val.(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
		if _, isStruct := tv.Type.Underlying().(*types.Struct); isStruct {
			return
		}
	}
	s.set[f] = true
}

// isSet reports whether f is set directly or forwarded from a set field.
func (s *knobScan) isSet(f *types.Var, seen map[*types.Var]bool) bool {
	if s.set[f] {
		return true
	}
	if seen[f] {
		return false
	}
	seen[f] = true
	for _, src := range s.fwd[f] {
		if s.isSet(src, seen) {
			return true
		}
	}
	return false
}
