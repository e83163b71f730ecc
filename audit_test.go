package sidr_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExportHasAReader fails on code that nothing reads:
//
//   - an exported package-level identifier or exported method of the root
//     package or of a package under internal/ that no non-test file of
//     another package (cmd/, examples/, bench/, internal/ and the root
//     package) refers to. A method also counts as read when its type, or a
//     pointer to it, implements an interface type in the module, or in a
//     package it imports, that declares a method of that name;
//   - a "sidrd_…" metric name that non-test Go registers and that no test
//     file, scripts/*.sh, README.md or bench/ file mentions;
//   - a flag that a cmd/ command defines and that README.md, scripts/*.sh
//     and the Makefile never name as -flag.
//
// Every finding fails: there is no list of accepted ones.
func TestEveryExportHasAReader(t *testing.T) {
	findings, err := audit(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s %s has no reader: use it, unexport it, move it into the tests that use it, or delete it", f.kind, f.key)
	}
}

// TestAuditFindsEachKind runs the audit over a fixture module that plants
// one finding of each kind beside names that are read, and expects those
// findings and nothing else.
func TestAuditFindsEachKind(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", "auditfixture")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	findings, err := audit(".")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.kind+" "+f.key)
	}
	sort.Strings(got)
	want := []string{
		"flag cmd/tool -planted",
		"func internal/lib.TestOnly",
		"func internal/lib.Unread",
		"method internal/lib.Bag.Size",
		"metric sidrd_fixture_planted_total",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit found\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// audit runs the three rules over the module rooted at root, which must
// be the working directory: the metric and flag rules match reader paths
// relative to it.
func audit(root string) ([]finding, error) {
	pkgs, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	findings := unreadExports(pkgs)
	metricFindings, err := unreadMetrics(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, metricFindings...)
	flagFindings, err := unnamedFlags(root, pkgs)
	if err != nil {
		return nil, err
	}
	return append(findings, flagFindings...), nil
}

// finding is one unread name. key names it: "internal/pkg.Name",
// "internal/pkg.Type.Method", "sidr.Name" (the root package), the metric
// name, or "cmd/name -flag".
type finding struct {
	kind, key string
}

const auditModule = "sidr"

type auditPkg struct {
	path  string
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks the module's packages from source, non-test
// files only, and hands everything else to the standard library's source
// importer. Checking the module's packages itself keeps one types.Object
// per declaration, so a reference in one package resolves to the very
// object another package declared.
type moduleLoader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*auditPkg
}

func loadModule(root string) ([]*auditPkg, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*auditPkg{},
	}
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		switch {
		case errors.As(err, &noGo):
			return nil
		case err != nil:
			return err
		case len(bp.GoFiles) > 0:
			paths = append(paths, l.importPath(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*auditPkg, 0, len(paths))
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (l *moduleLoader) importPath(dir string) string {
	rel := filepath.ToSlash(filepath.Clean(dir))
	if rel == "." {
		return auditModule
	}
	return auditModule + "/" + rel
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == auditModule || strings.HasPrefix(path, auditModule+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *moduleLoader) load(path string) (*auditPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, auditModule), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &auditPkg{
		path: path,
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// origin maps an object seen through an instantiation back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func unreadExports(pkgs []*auditPkg) []finding {
	read := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types {
				read[origin(obj)] = true
			}
		}
	}
	ifaces := interfaceTypes(pkgs)

	var out []finding
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.path, auditModule+"/")
		if rel != auditModule && !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !read[obj] {
				out = append(out, finding{objectKind(obj), rel + "." + name})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !read[m] && !readThroughInterface(named, m.Name(), ifaces) {
					out = append(out, finding{"method", rel + "." + name + "." + m.Name()})
				}
			}
		}
	}
	return out
}

func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	case *types.Var:
		return "var"
	case *types.Func:
		return "func"
	}
	return "name"
}

// interfaceTypes collects, by method name, the interface types that
// declare it: named interfaces in every package the module reaches, the
// predeclared error, and every interface literal in the module's source.
func interfaceTypes(pkgs []*auditPkg) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.types)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := p.info.Types[it]; ok {
						add(tv.Type.Underlying().(*types.Interface))
					}
				}
				return true
			})
		}
	}
	return byName
}

// readThroughInterface reports whether method name of named is read
// through an interface: named, or a pointer to it, implements an
// interface in ifaces that declares the name. A generic type is asked
// about its methods as declared, which no instantiation can widen.
func readThroughInterface(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[name] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

var metricLiteral = regexp.MustCompile(`"(sidrd_[a-z0-9_]+)"`)

// unreadMetrics reports every "sidrd_…" literal in non-test Go that no
// reader mentions: a _test.go file (this one aside), scripts/*.sh,
// README.md or any file under bench/. A histogram counts as read when one
// of its _bucket, _sum or _count series is mentioned.
func unreadMetrics(root string) ([]finding, error) {
	defined := map[string]bool{}
	var corpus strings.Builder
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		slash := filepath.ToSlash(path)
		isGo := strings.HasSuffix(slash, ".go")
		isTest := strings.HasSuffix(slash, "_test.go")
		reader := (isTest && slash != "audit_test.go") ||
			slash == "README.md" ||
			strings.HasPrefix(slash, "bench/") ||
			(strings.HasPrefix(slash, "scripts/") && strings.HasSuffix(slash, ".sh"))
		if !reader && !(isGo && !isTest) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if isGo && !isTest {
			for _, m := range metricLiteral.FindAllSubmatch(b, -1) {
				defined[string(m[1])] = true
			}
		}
		if reader {
			corpus.Write(b)
			corpus.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	text := corpus.String()
	var out []finding
	for name := range defined {
		re := regexp.MustCompile(regexp.QuoteMeta(name) + `(_bucket|_sum|_count)?([^a-z0-9_]|$)`)
		if !re.MatchString(text) {
			out = append(out, finding{"metric", name})
		}
	}
	return out, nil
}

// flagDefiners maps the flag package's defining functions (and FlagSet
// methods) to the argument that holds the flag's name.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "TextVar": 1, "UintVar": 1,
	"Uint64Var": 1, "Var": 1,
}

// unnamedFlags reports every flag a cmd/ package defines that no reader
// names as "-flag": README.md, scripts/*.sh or the Makefile. A flag whose
// name is not a string literal fails the audit outright.
func unnamedFlags(root string, pkgs []*auditPkg) ([]finding, error) {
	var corpus strings.Builder
	docs, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil {
		return nil, err
	}
	for _, path := range append(docs, filepath.Join(root, "README.md"), filepath.Join(root, "Makefile")) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		corpus.Write(b)
		corpus.WriteByte('\n')
	}
	text := corpus.String()
	var out []finding
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.path, auditModule+"/")
		if !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		var bad error
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if bad != nil {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.info.Uses[sel.Sel]
				arg, defines := flagDefiners[sel.Sel.Name]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "flag" || !defines || len(call.Args) <= arg {
					return true
				}
				lit, ok := call.Args[arg].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					bad = fmt.Errorf("%s: a flag.%s name is not a string literal", rel, sel.Sel.Name)
					return false
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					bad = err
					return false
				}
				re := regexp.MustCompile(`(^|[^A-Za-z0-9_-])-` + regexp.QuoteMeta(name) + `([^A-Za-z0-9_-]|$)`)
				if !re.MatchString(text) {
					out = append(out, finding{"flag", rel + " -" + name})
				}
				return true
			})
		}
		if bad != nil {
			return nil, bad
		}
	}
	return out, nil
}
