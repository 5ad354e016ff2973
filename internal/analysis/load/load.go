// Package load type-checks the repository's packages for the dgsvet
// analyzers without golang.org/x/tools: packages are discovered by
// walking the module tree, parsed with go/parser, and type-checked in
// dependency order with go/types, resolving standard-library imports
// through the stdlib source importer. The loader runs fully offline —
// it needs GOROOT source, not a module cache or export data — which is
// what lets dgsvet run in the build gate on network-less machines.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func init() {
	// The stdlib source importer selects files with the build context.
	// Without cgo it picks the pure-Go fallbacks (net, os/user), which
	// type-check from source on any machine; with cgo it would try to
	// run the cgo preprocessor.
	build.Default.CgoEnabled = false
}

// Package is one type-checked package of the module.
type Package struct {
	// Path is the package's import path ("dgs/internal/wire"). External
	// test packages get the pseudo-path "<base> [test]".
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Files holds the parsed files: the package's own sources plus, when
	// the loader ran with Tests, its in-package _test.go files.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
	// Imports maps import paths to the module-local packages this one
	// depends on (stdlib imports are not recorded).
	Imports map[string]*Package
}

// Module is a fully loaded module: every package type-checked, in
// dependency order (imports precede importers).
type Module struct {
	Fset *token.FileSet
	// Path is the module path ("" for GOPATH-style roots such as
	// analyzer test fixtures, where import paths are directory-relative).
	Path string
	Dir  string
	// Pkgs lists the packages in topological order.
	Pkgs   []*Package
	byPath map[string]*Package
}

// ByPath returns the loaded package with the given import path, or nil.
func (m *Module) ByPath(path string) *Package { return m.byPath[path] }

// Config controls a Load.
type Config struct {
	// Dir is the root directory to walk.
	Dir string
	// ModulePath prefixes import paths; read from Dir/go.mod when empty
	// and a go.mod exists, else paths are Dir-relative (fixture mode).
	ModulePath string
	// Tests includes _test.go files: in-package test files join their
	// package, external ones ("package foo_test") form their own.
	Tests bool
}

// rawPkg is a parsed-but-unchecked package.
type rawPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string
	extTest bool // external test package ("package foo_test")
}

// Load discovers, parses and type-checks every package under cfg.Dir.
// Parse or type errors fail the load: analyzers require well-typed
// input, and the build gate runs `go build` beside dgsvet anyway.
func Load(cfg Config) (*Module, error) {
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	modPath := cfg.ModulePath
	if modPath == "" {
		modPath = readModulePath(filepath.Join(dir, "go.mod"))
	}
	fset := token.NewFileSet()
	raws, err := parseTree(fset, dir, modPath, cfg.Tests)
	if err != nil {
		return nil, err
	}

	mod := &Module{Fset: fset, Path: modPath, Dir: dir, byPath: make(map[string]*Package)}
	srcImp := importer.ForCompiler(fset, "source", nil)
	lookup := func(path string) (*types.Package, error) {
		if p := mod.byPath[path]; p != nil {
			return p.Types, nil
		}
		return srcImp.Import(path)
	}

	order, err := topoSort(raws)
	if err != nil {
		return nil, err
	}
	for _, r := range order {
		pkg := &Package{Path: r.path, Dir: r.dir, Files: r.files, Imports: make(map[string]*Package)}
		var typeErrs []error
		conf := types.Config{
			Importer: importerFunc(lookup),
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := conf.Check(r.path, fset, r.files, pkg.Info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %w (first of %d errors)", r.path, typeErrs[0], len(typeErrs))
		}
		pkg.Types = tpkg
		for _, imp := range r.imports {
			if p := mod.byPath[imp]; p != nil {
				pkg.Imports[imp] = p
			}
		}
		// External test packages shadow nobody: their pseudo-path cannot
		// be imported.
		mod.byPath[r.path] = pkg
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// parseTree walks dir and parses every candidate package.
func parseTree(fset *token.FileSet, dir, modPath string, tests bool) ([]*rawPkg, error) {
	byPath := make(map[string]*rawPkg)
	walkErr := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != dir && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		isTest := strings.HasSuffix(p, "_test.go")
		if isTest && !tests {
			return nil
		}
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		ipath := modPath
		if rel != "." {
			if ipath == "" {
				ipath = filepath.ToSlash(rel)
			} else {
				ipath = ipath + "/" + filepath.ToSlash(rel)
			}
		}
		if ipath == "" {
			return nil // GOPATH-style root dir itself holds no package
		}
		af, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		key := ipath
		ext := isTest && strings.HasSuffix(af.Name.Name, "_test")
		if ext {
			key = ipath + " [test]"
		}
		r := byPath[key]
		if r == nil {
			r = &rawPkg{path: key, dir: filepath.Dir(p), extTest: ext}
			byPath[key] = r
		}
		r.files = append(r.files, af)
		for _, im := range af.Imports {
			r.imports = append(r.imports, strings.Trim(im.Path.Value, `"`))
		}
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	out := make([]*rawPkg, 0, len(byPath))
	for _, r := range byPath {
		// Deterministic file order regardless of walk order.
		sort.Slice(r.files, func(i, j int) bool {
			return fset.File(r.files[i].Pos()).Name() < fset.File(r.files[j].Pos()).Name()
		})
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

// topoSort orders packages so imports precede importers; external test
// packages come after their base package.
func topoSort(raws []*rawPkg) ([]*rawPkg, error) {
	byPath := make(map[string]*rawPkg, len(raws))
	for _, r := range raws {
		byPath[r.path] = r
	}
	var order []*rawPkg
	state := make(map[string]int) // 0 new, 1 visiting, 2 done
	var visit func(r *rawPkg) error
	visit = func(r *rawPkg) error {
		switch state[r.path] {
		case 1:
			return fmt.Errorf("load: import cycle through %s", r.path)
		case 2:
			return nil
		}
		state[r.path] = 1
		for _, imp := range r.imports {
			if dep := byPath[imp]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		// An external test package depends on its base package too.
		if r.extTest {
			if base := byPath[strings.TrimSuffix(r.path, " [test]")]; base != nil {
				if err := visit(base); err != nil {
					return err
				}
			}
		}
		state[r.path] = 2
		order = append(order, r)
		return nil
	}
	for _, r := range raws {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// readModulePath extracts the module path from a go.mod, "" if absent.
func readModulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
