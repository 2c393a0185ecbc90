package analysis

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
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("benchpress/internal/core").
	Path string
	// ModulePath is the module the package belongs to ("benchpress").
	ModulePath string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the loader-wide file set (shared across packages).
	Fset *token.FileSet
	// Files are the parsed sources, test files excluded.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds type-checking failures. Rules still run on packages
	// with type errors, but callers should surface these first: rule output
	// on a broken package is unreliable.
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module. Imports within
// the module are resolved recursively from source; everything else is
// delegated to the standard library's source importer, so the loader needs
// no compiled export data and no network.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// ModuleRoot is the directory holding go.mod; ModulePath its module line.
	ModuleRoot string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at dir (the directory
// containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from source;
	// with cgo enabled it would need to run the cgo preprocessor for
	// packages like net. The pure-Go variants are all we need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath extracts the module line from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer: module-internal paths load from source
// through this loader; all other paths go to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load returns the package with the given module-internal import path.
func (l *Loader) Load(path string) (*Package, error) { return l.load(path) }

// Loaded returns every module-internal package the loader has type-checked
// so far — explicit Load/LoadDir targets plus the dependencies they pulled
// in — sorted by import path. Interprocedural analysis builds its Program
// over this set so callee bodies outside the analysis targets are visible.
func (l *Loader) Loaded() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, p := range paths {
		out[i] = l.pkgs[p]
	}
	return out
}

// LoadDir loads the package in dir, deriving its import path from the
// directory's location under the module root.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.load(l.ModulePath)
	}
	return l.load(l.ModulePath + "/" + filepath.ToSlash(rel))
}

// LoadFile type-checks a single file as its own package under the synthetic
// import path pkgPath. Module-internal imports in the file resolve against
// the loader's module. This is how fixture files and benchlint's single-file
// mode work.
func (l *Loader) LoadFile(filename, pkgPath string) (*Package, error) {
	f, err := parser.ParseFile(l.Fset, filename, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check(pkgPath, filepath.Dir(filename), []*ast.File{f}), nil
}

// load parses and type-checks the module package at the given import path,
// memoizing the result and detecting import cycles.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg := l.check(path, dir, files)
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test Go file in dir that the host platform's
// build constraints select (internal/core holds one function per platform
// family).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !buildableGoFile(name) {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// buildableGoFile mirrors the go tool's file selection for this module:
// plain .go files, no tests, no editor droppings.
func buildableGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// check runs go/types over the files, collecting rather than aborting on
// type errors.
func (l *Loader) check(path, dir string, files []*ast.File) *Package {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	return &Package{
		Path:       path,
		ModulePath: l.ModulePath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: terrs,
	}
}

// Expand resolves package patterns relative to baseDir into package
// directories. A pattern ending in "/..." walks recursively; other patterns
// name a single directory. Directories named testdata or vendor, hidden
// directories, nested modules, and directories without buildable Go files
// are skipped.
func (l *Loader) Expand(patterns []string, baseDir string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if root == "." || root == "" {
			root = baseDir
		} else if !filepath.IsAbs(root) {
			root = filepath.Join(baseDir, root)
		}
		if !recursive {
			ok, err := hasBuildableGoFiles(root)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("analysis: no buildable Go files in %s", root)
			}
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			// A nested module (bench/) is not part of ./..., as for the
			// go tool: its packages belong to another import-path space.
			if p != l.ModuleRoot {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			ok, err := hasBuildableGoFiles(p)
			if err != nil {
				return err
			}
			if ok {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasBuildableGoFiles reports whether dir directly contains a non-test Go
// file.
func hasBuildableGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && buildableGoFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}
