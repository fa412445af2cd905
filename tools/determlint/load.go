package main

import (
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
	"strings"
)

// lintPkg is one fully type-checked package under the lint root.
type lintPkg struct {
	// rel is the package directory relative to the lint root, slash
	// separated ("." for the root package itself). Analyzer scoping
	// keys off it.
	rel   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// pkgSet is everything one loader.load produced: the shared FileSet, the
// module path (empty outside a module) and the packages in walk order.
type pkgSet struct {
	fset    *token.FileSet
	modPath string
	pkgs    []*lintPkg
}

// loader owns what package loads can share: the FileSet and the
// go/types source importer, which type-checks each standard-library
// package it is asked for once and keeps it. Trees loaded through one
// loader therefore pay for the standard library once between them.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
}

// load parses and type-checks every non-test package under root.
// Imports of the module's own packages resolve to the packages this
// load type-checks — each once, whichever of the walk or an importer
// reaches it first — and everything else goes to the source importer
// (the module is deliberately dependency-free, so that is the standard
// library). Hidden, vendor and testdata directories are skipped.
// Type-check failures are hard errors: the tree must build before it
// can be linted.
func (l *loader) load(root string) (*pkgSet, error) {
	t := &tree{
		loader: l, root: root,
		set:   &pkgSet{fset: l.fset, modPath: modulePath(root)},
		byRel: map[string]*lintPkg{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root &&
			(strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p, err := t.check(filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		if p != nil {
			t.set.pkgs = append(t.set.pkgs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t.set, nil
}

// tree is one load in progress: the packages type-checked so far by
// directory, and the importer that hands them to each other.
type tree struct {
	*loader
	root  string
	set   *pkgSet
	byRel map[string]*lintPkg // nil entry: check in progress, or no Go files
}

// check type-checks the package in directory rel (slash separated,
// relative to the root) unless it already has, and returns nil for a
// directory without non-test Go files.
func (t *tree) check(rel string) (*lintPkg, error) {
	if p, seen := t.byRel[rel]; seen {
		return p, nil
	}
	t.byRel[rel] = nil
	files, err := parseDir(t.fset, filepath.Join(t.root, filepath.FromSlash(rel)))
	if err != nil || len(files) == 0 {
		return nil, err
	}
	checkPath := rel
	if t.set.modPath != "" {
		if rel == "." {
			checkPath = t.set.modPath
		} else {
			checkPath = t.set.modPath + "/" + rel
		}
	}
	var typeErrs []error
	conf := types.Config{
		Importer: t,
		Error:    func(e error) { typeErrs = append(typeErrs, e) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, _ := conf.Check(checkPath, t.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("typecheck %s: %v", rel, typeErrs[0])
	}
	p := &lintPkg{rel: rel, files: files, pkg: pkg, info: info}
	t.byRel[rel] = p
	return p, nil
}

// Import implements types.Importer.
func (t *tree) Import(path string) (*types.Package, error) {
	return t.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: the module's own packages
// come from this load, the rest from the shared source importer. (Left
// to the source importer, each module-local import path costs a `go
// list` subprocess and a second type-check of that package.)
func (t *tree) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	mod := t.set.modPath
	if mod == "" || (path != mod && !strings.HasPrefix(path, mod+"/")) {
		return t.std.ImportFrom(path, dir, mode)
	}
	rel := "."
	if path != mod {
		rel = strings.TrimPrefix(path, mod+"/")
	}
	p, err := t.check(rel)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("import %q: no Go files, or an import cycle", path)
	}
	return p.pkg, nil
}

// parseDir parses the non-test Go files of one directory that the
// default build of this platform compiles — file-name GOOS/GOARCH
// suffixes and //go:build lines are honoured, so a package's per-
// architecture variants do not collide — in name order (os.ReadDir
// sorts, so package loading is deterministic).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// modulePath reads the module path from root/go.mod, or "" when root
// is not a module (the testdata trees, for example).
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}
