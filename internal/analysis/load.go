package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadConfig describes a tree of packages to load.
type LoadConfig struct {
	// Dir is the root directory scanned for packages.
	Dir string

	// Module is the import-path prefix mapped onto Dir ("soral" for the real
	// module). When empty, import paths are directory paths relative to Dir —
	// the layout used by the analyzer test fixtures under testdata/src.
	Module string
}

// A Package is one loaded, type-checked package.
type Package struct {
	Path      string // import path
	Dir       string // absolute directory
	Name      string // package clause name
	Files     []*ast.File
	FileNames map[*ast.File]string
	IsTest    map[*ast.File]bool // in-package _test.go files
	Types     *types.Package
	Info      *types.Info

	imports []string // intra-root imports, for topological ordering
}

// A Program is a set of packages sharing one file set.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // sorted by import path
	byPath   map[string]*Package
}

// Package returns the loaded package with the given import path, or nil.
func (pr *Program) Package(path string) *Package { return pr.byPath[path] }

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod and returns that directory and the declared module path.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load parses and type-checks every package under cfg.Dir. Intra-root
// imports are resolved against the loaded tree in dependency order; all
// other imports (the standard library) go through the stdlib source
// importer. Directories named testdata, vendor, or starting with "." or "_"
// are skipped, mirroring the go tool.
func Load(cfg LoadConfig) (*Program, error) {
	root, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pr := &Program{Fset: fset, byPath: map[string]*Package{}}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := parseDir(fset, dir, importPathFor(cfg, root, dir))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable Go files
		}
		pr.Packages = append(pr.Packages, pkg)
		pr.byPath[pkg.Path] = pkg
	}
	sort.Slice(pr.Packages, func(i, j int) bool { return pr.Packages[i].Path < pr.Packages[j].Path })

	order, err := topoOrder(pr)
	if err != nil {
		return nil, err
	}
	src := importer.ForCompiler(fset, "source", nil)
	for _, pkg := range order {
		if err := typeCheck(fset, pkg, pr, src); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// importPathFor maps a package directory to its import path under the config.
func importPathFor(cfg LoadConfig, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	switch {
	case cfg.Module == "":
		return rel
	case rel == "":
		return cfg.Module
	default:
		return cfg.Module + "/" + rel
	}
}

// packageDirs lists every directory under root that may hold a package.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the buildable Go files of one directory into a Package.
// In-package _test.go files are included (and marked); external-test
// ("_test" suffixed) packages are skipped — they cannot be type-checked
// without compiling the package under test twice, and no analyzer needs
// them.
func parseDir(fset *token.FileSet, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type parsed struct {
		name string
		file *ast.File
	}
	var files []parsed
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		fp := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, fp, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", fp, err)
		}
		files = append(files, parsed{name: e.Name(), file: f})
	}
	if len(files) == 0 {
		return nil, nil
	}
	// The package clause of the non-test files names the package; fall back
	// to the first test file's name stripped of _test for test-only dirs.
	pkgName := ""
	for _, p := range files {
		if !strings.HasSuffix(p.name, "_test.go") {
			pkgName = p.file.Name.Name
			break
		}
	}
	if pkgName == "" {
		return nil, nil // test-only directory; nothing buildable to analyze
	}
	pkg := &Package{
		Path:      path,
		Dir:       dir,
		Name:      pkgName,
		FileNames: map[*ast.File]string{},
		IsTest:    map[*ast.File]bool{},
	}
	for _, p := range files {
		if p.file.Name.Name != pkgName {
			continue // external test package or stray clause
		}
		pkg.Files = append(pkg.Files, p.file)
		pkg.FileNames[p.file] = filepath.Join(dir, p.name)
		pkg.IsTest[p.file] = strings.HasSuffix(p.name, "_test.go")
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			pkg.imports = append(pkg.imports, strings.Trim(imp.Path.Value, `"`))
		}
	}
	return pkg, nil
}

// topoOrder sorts packages so every intra-root import precedes its importer.
func topoOrder(pr *Program) ([]*Package, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[*Package]int{}
	var order []*Package
	var visit func(p *Package, chain []string) error
	visit = func(p *Package, chain []string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle: %s -> %s", strings.Join(chain, " -> "), p.Path)
		}
		state[p] = visiting
		for _, imp := range p.imports {
			if dep := pr.byPath[imp]; dep != nil {
				if err := visit(dep, append(chain, p.Path)); err != nil {
					return err
				}
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range pr.Packages {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// progImporter resolves intra-root imports from the program and delegates
// everything else (the standard library) to the source importer.
type progImporter struct {
	prog     *Program
	fallback types.Importer
}

func (im *progImporter) Import(path string) (*types.Package, error) {
	if p := im.prog.byPath[path]; p != nil {
		if p.Types == nil {
			return nil, fmt.Errorf("analysis: import %q not yet type-checked (cycle?)", path)
		}
		return p.Types, nil
	}
	return im.fallback.Import(path)
}

// typeCheck runs the go/types checker over one package, filling Types/Info.
func typeCheck(fset *token.FileSet, pkg *Package, pr *Program, src types.Importer) error {
	var terrs []error
	conf := types.Config{
		Importer: &progImporter{prog: pr, fallback: src},
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	if len(terrs) > 0 {
		msgs := make([]string, 0, len(terrs))
		for i, e := range terrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(terrs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return fmt.Errorf("analysis: type-checking %s:\n\t%s", pkg.Path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	return nil
}
