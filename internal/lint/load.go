package lint

// Package loading for the analyzers. detlint cannot depend on
// golang.org/x/tools (this module is dependency-free by policy), so the
// load path is built on the stdlib alone: `go list -export -deps -json`
// enumerates the packages matching the requested patterns together with
// the compiled export data of every dependency, and go/types re-checks
// each target package's syntax against that export data. The result is
// the same (Files, Pkg, TypesInfo) triple golang.org/x/tools/go/analysis
// passes hand to analyzers.

import (
	"bytes"
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
	"sort"
	"strconv"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("repro/internal/march"). For
	// LoadDir packages it is synthetic ("detlintdir/<base>").
	Path string
	// Fset positions every file in the load (shared across packages).
	Fset *token.FileSet
	// Files is the package's parsed syntax, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// ExplicitDir marks packages loaded by LoadDir (detlint -dir): the
	// caller pointed at the directory deliberately, so analyzers that
	// normally restrict themselves to configured repo paths run
	// unconditionally.
	ExplicitDir bool
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup function resolving import paths
// to compiled export data produced by `go list -export`.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// Load enumerates, parses and type-checks the module packages matching
// patterns (e.g. "./..."), rooted at dir. Test files are excluded: the
// determinism invariants detlint enforces are about shipped campaign
// code, and tests legitimately use wall clocks and ad-hoc seeds.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"-e", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module,Error", "--"}, patterns...)
	listed, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*listedPkg
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Module != nil {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var out []*Package
	for _, p := range targets {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		pkg, info, err := check(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{Path: p.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info})
	}
	return out, nil
}

// LoadDir parses and type-checks a single directory of Go files that is
// not necessarily visible to `go list` (fixture trees under testdata/,
// scratch dirs). Imports are resolved by asking `go list -export` for
// exactly the packages the files mention.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	// Collect the import paths the fixture mentions and fetch their
	// export data in one go list run.
	paths := map[string]bool{}
	for _, f := range files {
		for _, im := range f.Imports {
			if p, err := strconv.Unquote(im.Path.Value); err == nil && p != "C" {
				paths[p] = true
			}
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		sorted := make([]string, 0, len(paths))
		for p := range paths {
			sorted = append(sorted, p)
		}
		sort.Strings(sorted)
		args := append([]string{"-e", "-export", "-deps", "-json=ImportPath,Export,Error", "--"}, sorted...)
		listed, err := goList(dir, args...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	path := "detlintdir/" + filepath.Base(dir)
	pkg, info, err := check(fset, path, files, imp)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info, ExplicitDir: true}, nil
}

// check type-checks one package's files, returning the full Info tables
// the analyzers consume.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}
