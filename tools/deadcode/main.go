// Command deadcode fails (exit 1) when a function in the module's root
// package or under its internal/ directory is linked into none of the
// repository's binaries. It builds every `package main` in the module
// tree, nested modules such as tools/bench included, with inlining off
// (-gcflags=all=-l) so the linker's own reachability decides what
// survives, reads each binary's symbols with `go tool nm`, and compares
// them with every non-test function declaration of the root package
// and under internal/ in the files the default build compiles. Run
// through `make deadcode` as:
//
//	go run ./tools/deadcode
//
// A function that no binary reaches but must stay (a test oracle
// shared across packages, a physics reference only tests call) carries
// a keep directive in its doc comment naming the roadmap item or the
// test that calls it:
//
//	//deadcode:keep <roadmap item or calling test>
//
// A keep directive without a reason, or on a function some binary
// does reach, is itself a finding, so the exceptions cannot go stale.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
)

const keepDirective = "//deadcode:keep"

func main() {
	findings, err := run(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d findings\n", n)
		os.Exit(1)
	}
}

// run checks the module rooted at root and returns one report line per
// finding, in position order.
func run(root string) ([]string, error) {
	modPath := modulePath(root)
	if modPath == "" {
		return nil, fmt.Errorf("%s: no go.mod", root)
	}
	mains, err := findMains(root)
	if err != nil {
		return nil, err
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("%s: no main packages", root)
	}
	tmp, err := os.MkdirTemp("", "deadcode-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	reached := map[string]bool{}
	for i, m := range mains {
		bin := filepath.Join(tmp, fmt.Sprintf("bin%d", i))
		if _, err := goCmd(m.modRoot, "build", "-gcflags=all=-l", "-o", bin, "./"+m.rel); err != nil {
			return nil, err
		}
		syms, err := goCmd(root, "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		addSymbols(reached, modPath+".", syms)
		addSymbols(reached, modPath+"/internal/", syms)
	}
	decls, err := moduleFuncs(root, modPath)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, d := range decls {
		switch {
		case d.keepErr != "":
			findings = append(findings, fmt.Sprintf("%s: %s: %s", d.pos, d.key, d.keepErr))
		case reached[d.key] && d.keep:
			findings = append(findings, fmt.Sprintf("%s: %s: stale %s: a binary reaches it", d.pos, d.key, keepDirective))
		case !reached[d.key] && !d.keep:
			findings = append(findings, fmt.Sprintf("%s: %s: reached by no binary", d.pos, d.key))
		}
	}
	return findings, nil
}

// mainPkg is one `package main` directory: the root of the module that
// owns it, and its slash-separated path relative to that root.
type mainPkg struct {
	modRoot, rel string
}

// findMains walks the tree under root for directories whose default
// build is a main package. A directory holding its own go.mod starts a
// nested module whose mains build from there. Hidden, underscore,
// testdata and vendor directories are skipped, as the go command does.
func findMains(root string) ([]mainPkg, error) {
	var mains []mainPkg
	modRoot := map[string]string{} // directory -> its module root
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root &&
			(strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		mr := modRoot[filepath.Dir(dir)]
		if dir == root || modulePath(dir) != "" {
			mr = dir
		}
		modRoot[dir] = mr
		pkg, err := importDir(dir)
		if err != nil || pkg == nil || pkg.Name != "main" {
			return err
		}
		rel, err := filepath.Rel(mr, dir)
		if err != nil {
			return err
		}
		mains = append(mains, mainPkg{modRoot: mr, rel: filepath.ToSlash(rel)})
		return nil
	})
	return mains, err
}

// addSymbols marks, for every text symbol in nm's output that starts
// with prefix (`mod/internal/` for the packages under internal/, `mod.`
// for the root package), the key of the declaration it was compiled
// from. Generic instantiations (`F[go.shape.int]`, `(*T[...]).M`) lose
// their brackets, a pointer receiver `(*T).M` reads as `T.M`, and a
// closure or wrapper (`F.func1`, `T.M.deferwrap1`) keeps only the
// function (or the type and method) it sits in. A symbol
// `pkg.A.B...` marks both `pkg.A` and `pkg.A.B`: one of them is the
// declaration, and the other names nothing.
func addSymbols(reached map[string]bool, prefix string, nm []byte) {
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := stripBrackets(strings.Join(f[2:], " "))
		if !strings.HasPrefix(sym, prefix) {
			continue
		}
		slash := strings.LastIndexByte(sym, '/') + 1
		dot := strings.IndexByte(sym[slash:], '.')
		if dot < 0 {
			continue
		}
		pkg, rest := sym[:slash+dot], sym[slash+dot+1:]
		parts := strings.Split(rest, ".")
		recv := strings.TrimSuffix(strings.TrimPrefix(parts[0], "(*"), ")")
		reached[pkg+"."+recv] = true
		if len(parts) > 1 {
			reached[pkg+"."+recv+"."+parts[1]] = true
		}
	}
}

// stripBrackets removes every bracketed type-argument list, nested
// ones included, from a symbol name.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcDecl is one non-test function declaration the gate checks: its
// position, its symbol key (`pkgpath.F` or `pkgpath.T.M`) and its keep
// directive, if any.
type funcDecl struct {
	pos     token.Position
	key     string
	keep    bool
	keepErr string
}

// moduleFuncs lists the function declarations of the root package
// (unless it is a main package, whose symbols are not under the module
// path) and of every package under root/internal, reading only the
// files go/build selects for the default build context (so a file
// behind a build tag the binaries are not built with is not checked),
// in position order: the root package comes first, the walk is lexical
// and go/build lists each package's files sorted.
func moduleFuncs(root, modPath string) ([]funcDecl, error) {
	fset := token.NewFileSet()
	var decls []funcDecl
	addPackage := func(dir string) error {
		pkg, err := importDir(dir)
		if err != nil || pkg == nil || pkg.Name == "main" {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkgPath := path.Join(modPath, filepath.ToSlash(rel))
		for _, name := range pkg.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					decls = append(decls, newFuncDecl(fset, pkgPath, fd))
				}
			}
		}
		return nil
	}
	if err := addPackage(root); err != nil {
		return nil, err
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			return filepath.SkipDir
		}
		return addPackage(dir)
	})
	return decls, err
}

func newFuncDecl(fset *token.FileSet, pkgPath string, fd *ast.FuncDecl) funcDecl {
	d := funcDecl{pos: fset.Position(fd.Pos()), key: pkgPath + "." + fd.Name.Name}
	if fd.Recv != nil {
		d.key = pkgPath + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	if fd.Doc == nil {
		return d
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, keepDirective)
		if !ok {
			continue
		}
		d.keep = true
		if strings.TrimSpace(rest) == "" || !strings.HasPrefix(rest, " ") {
			d.keepErr = keepDirective + " needs a reason: the roadmap item or test that calls it"
		}
	}
	return d
}

// recvName is the base type name of a method receiver: T for T, *T,
// T[K] and *T[K, V].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// importDir reads the package in dir under the default build context,
// or returns nil for a directory without buildable Go files. Any other
// failure is an error: a package the gate cannot read must not pass.
func importDir(dir string) (*build.Package, error) {
	pkg, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	}
	return pkg, err
}

// goCmd runs the go command in dir and returns its standard output,
// or an error carrying its standard error.
func goCmd(dir string, args ...string) ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return out, nil
}

// modulePath reads the module path from dir/go.mod, or "" when dir
// holds no go.mod.
func modulePath(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
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
