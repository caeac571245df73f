// Package lint is detlint: a suite of static analyzers encoding this
// repository's determinism and hot-path invariants. Every headline result
// here rests on campaigns being byte-identical at workers=1≡N and
// processes=1≡N; the analyzers close the classes of bug that silently
// break that property (unsorted map iteration reaching output, impure
// seeds in deterministic packages, ad-hoc JSON of bare maps outside the
// canonical wire layer, allocations creeping into the 0-alloc hot paths,
// and int(float) conversions of possibly-NaN values).
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the stdlib alone, because this module takes
// no dependencies. cmd/detlint is the driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one check. Run inspects the Pass's package and reports
// findings through Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (package, analyzer) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package import path analyzers use for scope decisions.
	Path string
	// ExplicitDir is true when the package was loaded from an explicit
	// directory (detlint -dir, fixture suites): path-scoped analyzers
	// then run unconditionally.
	ExplicitDir bool

	allows allowIndex
	out    *[]Diagnostic
}

// Reportf records a finding at pos unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.suppressed(position, p.Analyzer.Name) {
		return
	}
	*p.out = append(*p.out, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Maporder, Seedpurity, Wiredigest, Allocpath, Nanconv}
}

// Run executes the analyzers over the loaded packages and returns the
// surviving diagnostics sorted by position. Malformed allow directives
// surface as analyzer "detlint" findings.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// Directives are validated against the full registry, not the subset
	// being run: an allow naming a real analyzer stays valid under
	// `-run`, and one naming a typo is flagged no matter the subset.
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := allowIndex{}
		for _, f := range pkg.Files {
			for file, byLine := range parseAllows(pkg.Fset, f, known, func(d Diagnostic) { diags = append(diags, d) }) {
				if allows[file] == nil {
					allows[file] = byLine
					continue
				}
				for line, as := range byLine {
					allows[file][line] = append(allows[file][line], as...)
				}
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
				Pkg: pkg.Types, Info: pkg.Info,
				Path: pkg.Path, ExplicitDir: pkg.ExplicitDir,
				allows: allows, out: &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
