package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiHooks are the exported names no product code calls that stay on
// purpose, each because a test in another package needs it and an
// export_test.go cannot reach across packages. Keys are "pkgpath.Name" or
// "pkgpath.Type.Method"; values say who needs the hook.
var apiHooks = map[string]string{
	"repro/internal/auth.DB.AccessLog":           "server tests check that retrievals and logouts reach the access log",
	"repro/internal/client.Client.SessionID":     "chaos tests check which server holds a session and that recovery keeps its ID",
	"repro/internal/clock.Virtual.RunUntilIdle":  "netsim tests drain the simulated network",
	"repro/internal/clock.Virtual.Pending":       "server and netsim tests check that no timer is left armed",
	"repro/internal/hml.Figure2":                 "scenario tests build the paper's Figure 2 document",
	"repro/internal/hml.Figure2Times":            "scenario tests check Figure 2's timing",
	"repro/internal/hml.LessonSource":            "server, client, scenario and core tests build lessons of any length",
	"repro/internal/netsim.Network.AddPartition": "fault injector the chaos suite drives",
	"repro/internal/netsim.Network.DropNext":     "fault injector the chaos, server and client tests drive",
	"repro/internal/scenario.Timeline":           "the clean-link playout oracle (ROADMAP 2(a1)) derives its expectation from it",
	"repro/internal/server.Server.Database":      "client tests put documents into a running server's catalogue",
}

// TestNoTestOnlyAPI type-checks the root module and bench/ and fails on any
// exported package-level name or method that no non-test file uses and
// that is not a listed hook: the product's API is what the product calls.
// A concrete method counts as used when an interface method it implements
// is used, or when it implements an interface of a standard package the
// product imports (sort.Interface, io.Writer, ...). String, Error and
// Unwrap are exempt.
func TestNoTestOnlyAPI(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgFiles := map[string][]*ast.File{} // import path -> non-test files
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := parseDir(fset, path)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		pkgFiles[filepath.ToSlash(filepath.Join("repro", rel))] = files
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every package of the module is checked into one Info, importing the
	// others as checked here, so a use anywhere resolves to the object its
	// own package defines.
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	stdImported := map[*types.Package]bool{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		files, ok := pkgFiles[path]
		if !ok {
			p, err := std.Import(path)
			if err == nil {
				stdImported[p] = true
			}
			return p, err
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	paths := make([]string, 0, len(pkgFiles))
	for ip := range pkgFiles {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp(ip); err != nil {
			t.Fatalf("%s: %v", ip, err)
		}
	}

	used := map[types.Object]bool{}
	var usedIfaceMethods []*types.Func
	for _, obj := range info.Uses {
		obj = origin(obj)
		used[obj] = true
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				usedIfaceMethods = append(usedIfaceMethods, f)
			}
		}
	}
	var stdIfaces []*types.Interface
	for p := range stdImported {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					stdIfaces = append(stdIfaces, it)
				}
			}
		}
	}

	var unused []string
	for _, ip := range paths {
		p := checked[ip]
		sc := p.Scope()
		for _, n := range sc.Names() {
			obj := sc.Lookup(n)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				unused = append(unused, ip+"."+n)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					m := it.ExplicitMethod(i)
					if m.Exported() && !used[m] && !exemptMethod(m.Name()) {
						unused = append(unused, ip+"."+n+"."+m.Name())
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || exemptMethod(m.Name()) {
					continue
				}
				if implementsUsed(named, m, usedIfaceMethods, stdIfaces) {
					continue
				}
				unused = append(unused, ip+"."+n+"."+m.Name())
			}
		}
	}
	stale := maps.Clone(apiHooks)
	var bad []string
	for _, u := range unused {
		if _, ok := apiHooks[u]; ok {
			delete(stale, u)
		} else {
			bad = append(bad, u)
		}
	}
	for h := range stale {
		t.Errorf("hook %s is not test-only any more (or is gone): drop it from apiHooks", h)
	}
	if len(bad) > 0 {
		t.Errorf("%d exported names have no use outside tests; delete them, move them to an export_test.go, or list a cross-package hook in apiHooks:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseDir parses dir's non-test Go files.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func exemptMethod(name string) bool {
	return name == "String" || name == "Error" || name == "Unwrap"
}

// implementsUsed reports whether m, a method of named, implements a used
// interface method or belongs to a standard-library interface that named
// (or its pointer) satisfies.
func implementsUsed(named *types.Named, m *types.Func, usedIface []*types.Func, stdIfaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, im := range usedIface {
		if im.Name() != m.Name() {
			continue
		}
		it := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	for _, it := range stdIfaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
