package sidr_test

import (
	"bufio"
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
	"strings"
	"testing"
)

// auditAllowlist names the audit's accepted findings, one per line: the
// finding's key, then the reason it stays. The list may only shrink: CI
// refuses a change that adds a line to it.
const auditAllowlist = "testdata/audit_allowlist.txt"

// TestEveryExportHasAReader fails on code that nothing reads:
//
//   - an exported package-level identifier or exported method under
//     internal/ that no non-test file of another package (cmd/, examples/,
//     bench/ and the root package included) refers to. A method also
//     counts as read when an interface type in the module, or in a package
//     it imports, declares a method of that name;
//   - a "sidrd_…" metric name that non-test Go registers and that no test
//     file, scripts/*.sh, README.md or bench/ file mentions.
//
// A finding passes only when the allowlist names it, and an allowlist line
// that matches no finding fails too, so a fixed entry has to be removed.
func TestEveryExportHasAReader(t *testing.T) {
	pkgs, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	findings := unreadExports(pkgs)
	metricFindings, err := unreadMetrics(".")
	if err != nil {
		t.Fatal(err)
	}
	findings = append(findings, metricFindings...)

	allow, err := readAllowlist(auditAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool, len(findings))
	for _, f := range findings {
		found[f.key] = true
		if _, ok := allow[f.key]; !ok {
			t.Errorf("%s %s has no reader: use it, delete it, or (test support only) list it in %s", f.kind, f.key, auditAllowlist)
		}
	}
	var stale []string
	for key := range allow {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("%s lists %s, which now has a reader or is gone: delete its line", auditAllowlist, key)
	}
	t.Logf("%d findings, %d allowlisted", len(findings), len(allow))
}

// finding is one unread name. key is what the allowlist matches:
// "internal/pkg.Name", "internal/pkg.Type.Method" or the metric name.
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
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
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
	ifaceMethods := interfaceMethodNames(pkgs)

	var out []finding
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.path, auditModule+"/")
		if !strings.HasPrefix(rel, "internal/") {
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
				if m.Exported() && !read[m] && !ifaceMethods[m.Name()] {
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

// interfaceMethodNames collects the method names that any interface type
// declares: named interfaces in every package the module reaches, the
// predeclared error, and every interface literal in the module's source.
func interfaceMethodNames(pkgs []*auditPkg) map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
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
					addIface(it)
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
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							names[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return names
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

// readAllowlist parses "key reason…" lines; blank lines and lines that
// start with # are skipped, and every entry must give a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}
