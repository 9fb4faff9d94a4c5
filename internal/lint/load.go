package lint

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

// Package is one parsed, type-checked package of the module under
// analysis. Test files (_test.go) are excluded: the suite checks the
// production tree, as the host builds it.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root (the directory containing go.mod). Module-internal
// imports are resolved from source; standard-library imports go through
// the toolchain's export data, falling back to GOROOT source.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		root:    root,
		module:  modPath,
		parsed:  make(map[string]*parsedPkg),
		checked: make(map[string]*Package),
		std:     stdImporter(fset),
	}
	dirs, err := ld.discover()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pp, err := ld.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pp == nil {
			continue // no non-test Go files
		}
		ld.parsed[pp.importPath] = pp
	}
	paths := make([]string, 0, len(ld.parsed))
	for p := range ld.parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pkg, err := ld.check(p, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

type parsedPkg struct {
	importPath string
	dir        string
	files      []*ast.File
	imports    []string
}

type loader struct {
	fset    *token.FileSet
	root    string
	module  string
	parsed  map[string]*parsedPkg
	checked map[string]*Package
	std     types.Importer
}

// discover returns every directory under root holding Go files, skipping
// hidden directories, vendor and testdata trees.
func (ld *loader) discover() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(ld.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ld.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "vendor" || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of dir, returning nil when the
// directory holds none.
func (ld *loader) parseDir(dir string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return nil, err
	}
	importPath := ld.module
	if rel != "." {
		importPath = ld.module + "/" + filepath.ToSlash(rel)
	}
	pp := &parsedPkg{importPath: importPath, dir: dir}
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// A file the host build leaves out by its name or its build
		// constraint is left out here too, as the compiler leaves it out.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pp.files = append(pp.files, f)
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				pp.imports = append(pp.imports, p)
			}
		}
	}
	if len(pp.files) == 0 {
		return nil, nil
	}
	return pp, nil
}

// check type-checks importPath, memoized, detecting import cycles via the
// stack of in-progress paths.
func (ld *loader) check(importPath string, stack []string) (*Package, error) {
	if pkg, ok := ld.checked[importPath]; ok {
		return pkg, nil
	}
	for _, s := range stack {
		if s == importPath {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
	}
	pp, ok := ld.parsed[importPath]
	if !ok {
		return nil, fmt.Errorf("lint: unknown module package %s", importPath)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: &passImporter{ld: ld, stack: append(stack, importPath)},
	}
	tpkg, err := conf.Check(importPath, ld.fset, pp.files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        pp.dir,
		Fset:       ld.fset,
		Files:      pp.files,
		Types:      tpkg,
		Info:       info,
	}
	ld.checked[importPath] = pkg
	return pkg, nil
}

// passImporter resolves module-internal imports through the loader and
// everything else through the standard-library importer.
type passImporter struct {
	ld    *loader
	stack []string
}

func (pi *passImporter) Import(path string) (*types.Package, error) {
	if path == pi.ld.module || strings.HasPrefix(path, pi.ld.module+"/") {
		pkg, err := pi.ld.check(path, pi.stack)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return pi.ld.std.Import(path)
}

// stdImporter prefers the compiler export-data importer (fast) and falls
// back to compiling from GOROOT source when export data is unavailable.
func stdImporter(fset *token.FileSet) types.Importer {
	return &fallbackImporter{
		primary:  importer.ForCompiler(fset, "gc", nil),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
}

type fallbackImporter struct {
	primary  types.Importer
	fallback types.Importer
}

func (fi *fallbackImporter) Import(path string) (*types.Package, error) {
	pkg, err := fi.primary.Import(path)
	if err == nil {
		return pkg, nil
	}
	return fi.fallback.Import(path)
}
