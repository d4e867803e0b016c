package analysis

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked, comment-indexed package — the
// input a Pass is built from.
type Package struct {
	Dir       string
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	Ann       *Annotations
}

// Loader type-checks package directories from source. Their imports
// come from the go command's export data (go list -export), read by the
// standard library's gc importer: dependencies, the standard library
// included, are compiled once into the build cache instead of being
// type-checked from source for every run. Nothing is fetched, so the
// loader works offline. Export data is located per Load for the imports
// not yet known and cached across Load calls, so loading every package
// in the repo lists each shared dependency once.
type Loader struct {
	Fset    *token.FileSet
	imp     types.Importer
	exports map[string]string // import path -> export data file
}

// NewLoader returns a Loader with a fresh FileSet and dependency cache.
func NewLoader() *Loader {
	l := &Loader{Fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l
}

// lookup opens an import's export data for the gc importer.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// listExports records the export data files of the given import paths
// and all their dependencies, resolved from the module containing dir.
func (l *Loader) listExports(dir string, paths []string) error {
	if len(paths) == 0 {
		return nil
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Error", "--"}, paths...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("analysis: go list -export in %s: %v: %s", dir, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p struct {
			ImportPath, Export string
			Error              *struct{ Err string }
		}
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return fmt.Errorf("analysis: go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// Load parses and type-checks the non-test Go files of dir as import
// path path. Test files are excluded by design: the analyzers police
// shipped code, and test helpers legitimately use wall clocks and
// unsorted iteration.
func (l *Loader) Load(dir, path string) (*Package, error) {
	names, err := GoFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if err := l.listExports(dir, l.unknownImports(files)); err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Dir:       dir,
		Path:      path,
		Fset:      l.Fset,
		Files:     files,
		Types:     pkg,
		TypesInfo: info,
		Ann:       indexAnnotations(l.Fset, files),
	}, nil
}

// unknownImports returns the sorted distinct imports of files whose
// export data the loader has not listed yet.
func (l *Loader) unknownImports(files []*ast.File) []string {
	var paths []string
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil || p == "unsafe" || p == "C" {
				continue
			}
			if _, ok := l.exports[p]; !ok && !slices.Contains(paths, p) {
				paths = append(paths, p)
			}
		}
	}
	slices.Sort(paths)
	return paths
}

// GoFiles lists the non-test .go file names of dir in sorted order.
func GoFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	slices.Sort(names)
	return names, nil
}

// Run executes one analyzer over the package and returns its findings
// in position order.
func (p *Package) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.TypesInfo,
		Ann:       p.Ann,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int { return cmp.Compare(a.Pos, b.Pos) })
	return diags, nil
}
