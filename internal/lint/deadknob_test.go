package lint

// TestNoTestOnlyKnobs is the field-level counterpart of
// TestNoTestOnlyExports: every exported field of a struct declared in
// the module or in perfbench must be written by some non-test code. A
// field that only tests set is a knob every shipped run leaves at its
// zero value; it still has to be threaded, documented and branched on,
// and each one doubles the configurations tests must cover. Make it the
// constant it always is.
//
// A write is a keyed or positional composite literal of the struct, an
// assignment or op-assignment to the field or to an index or subfield
// of it, ++/--, or taking the field's address (flag registration). A
// constant assigned under an if that tests the same field does not
// count: code that fills in a default (if c.F <= 0 { c.F = def }) is not
// a caller setting the knob.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
	"testing"
)

// keptKnobs lists exported fields that no non-test code writes but that
// stay on purpose. Keys are fieldKey strings, or a struct's
// "pkgpath.Type" for a wire type that a JSON decoder fills field by
// field; values give the reason.
var keptKnobs = map[string]string{
	"repro/internal/pipeline.Config.ShardRuns":     "the pipeline package's own test seam: its tests cut many small shards from small campaigns",
	"repro.FabricConfig.Env":                       "the shardworker fault-injection hooks are set through the environment, by the fabric fault tests only",
	"repro/internal/march.Config.Predictor":        "BenchmarkAblationPredictors compares branch predictors on one engine",
	"repro/internal/core.Config.HolmCorrection":    "perfbench serializes core.Report with its Config, and perfbench/refs.json pins those bytes",
	"repro/internal/core.Config.WarmupRuns":        "pinned by perfbench/refs.json, as HolmCorrection; tests also shorten or drop the warm-up",
	"repro/internal/core.Config.Registers":         "pinned by perfbench/refs.json, as HolmCorrection",
	"repro/internal/dataset.Config.Classes":        "the dataset tests generate 1- to 5-class sets to check per-class structure cheaply",
	"repro/internal/march/branch.Config.TableBits": "the predictor tests train 256- and 1024-entry tables on short patterns",
	"repro/cmd/audit-server.CampaignRequest":       "JSON request body, decoded from each POST",
	"repro/cmd/detlint.vetConfig":                  "JSON config file that go vet hands a -vettool",
	"repro/cmd/obsview.rawTraceFile":               "JSON trace file that obsview validates",
	"repro/cmd/obsview.rawTraceEvent":              "JSON trace event that obsview validates",
	"repro/internal/lint.listedPkg":                "JSON package record decoded from go list -json",
}

// keptKnob returns the keptKnobs entry covering field key, or "".
func keptKnob(key string) string {
	if _, ok := keptKnobs[key]; ok {
		return key
	}
	if owner := key[:strings.LastIndexByte(key, '.')]; keptKnobs[owner] != "" {
		return owner
	}
	return ""
}

// namedKey names a named type independently of which load (source or
// export data) produced it: "pkgpath.Name".
func namedKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Origin().Obj().Name()
}

// fieldKey follows a field selection's index path from recv and names
// the selected field "pkgpath.Type.Field"; a field of an anonymous
// struct nested in a named one is "pkgpath.Type.Outer.Field". It
// returns "" for fields of structs that no named type declares.
func fieldKey(recv types.Type, index []int) string {
	owner := namedKey(recv)
	if owner == "" {
		return ""
	}
	t := recv
	for i, idx := range index {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		f := st.Field(idx)
		if i == len(index)-1 {
			return owner + "." + f.Name()
		}
		t = f.Type()
		if k := namedKey(t); k != "" {
			owner = k
		} else {
			owner += "." + f.Name()
		}
	}
	return ""
}

// declaredFields collects the exported fields of every struct type
// declared in pkg, keyed as fieldKey names them, with their positions.
func declaredFields(pkg *Package, where map[string]string) {
	var visit func(owner string, st *ast.StructType)
	visit = func(owner string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			inner, _ := f.Type.(*ast.StructType)
			if len(f.Names) == 0 {
				continue // embedded: its own type's fields are the knobs
			}
			for _, name := range f.Names {
				if inner != nil {
					visit(owner+"."+name.Name, inner)
				}
				if name.IsExported() {
					where[owner+"."+name.Name] = pkg.Fset.Position(name.Pos()).String()
				}
			}
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if st, ok := ts.Type.(*ast.StructType); ok {
					visit(pkg.Path+"."+ts.Name.Name, st)
				}
			}
		}
	}
}

// selectedField returns the key of the field e selects, or "".
func selectedField(info *types.Info, e *ast.SelectorExpr) string {
	if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
		return fieldKey(sel.Recv(), sel.Index())
	}
	return ""
}

// fieldWrites collects the keys of every field pkg's code writes.
func fieldWrites(pkg *Package, written map[string]bool) {
	info := pkg.Info
	// lvalue marks every field along an assigned expression's selector
	// chain (x.F.G = v writes G and F, x.F[i] = v writes F), except the
	// fields in defaults: the fields an enclosing if tests, when the
	// assigned value is a constant.
	var lvalue func(e ast.Expr, defaults map[string]bool)
	lvalue = func(e ast.Expr, defaults map[string]bool) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			lvalue(e.X, defaults)
		case *ast.StarExpr:
			lvalue(e.X, defaults)
		case *ast.IndexExpr:
			lvalue(e.X, defaults)
		case *ast.SelectorExpr:
			if k := selectedField(info, e); k != "" {
				if !defaults[k] {
					written[k] = true
				}
				lvalue(e.X, defaults)
			}
		}
	}
	var walk func(n ast.Node, defaults map[string]bool)
	walk = func(n ast.Node, defaults map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				// if c.F <= 0 { c.F = def } fills in a default: constants
				// the branches assign to what Cond reads are no writes.
				inner := map[string]bool{}
				maps.Copy(inner, defaults)
				ast.Inspect(n.Cond, func(n ast.Node) bool {
					if e, ok := n.(*ast.SelectorExpr); ok {
						if k := selectedField(info, e); k != "" {
							inner[k] = true
						}
					}
					return true
				})
				if n.Init != nil {
					walk(n.Init, defaults)
				}
				walk(n.Cond, defaults)
				walk(n.Body, inner)
				if n.Else != nil {
					walk(n.Else, inner)
				}
				return false
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					break
				}
				for i, lhs := range n.Lhs {
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && info.Types[n.Rhs[i]].Value != nil {
						lvalue(lhs, defaults) // a constant: maybe a default
					} else {
						lvalue(lhs, nil)
					}
				}
			case *ast.IncDecStmt:
				lvalue(n.X, defaults)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lvalue(n.X, defaults)
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				owner := namedKey(t)
				if !ok || owner == "" {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						written[owner+"."+kv.Key.(*ast.Ident).Name] = true
					} else {
						written[owner+"."+st.Field(i).Name()] = true
					}
				}
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		walk(f, nil)
	}
}

func TestNoTestOnlyKnobs(t *testing.T) {
	pkgs := loadModule(t)
	where := map[string]string{} // field key → file:line
	written := map[string]bool{}
	for _, pkg := range pkgs {
		declaredFields(pkg, where)
		fieldWrites(pkg, written)
	}
	var dead []string
	used := map[string]bool{}
	for key := range where {
		kept := keptKnob(key)
		used[kept] = true
		switch {
		case kept == "" && !written[key]:
			dead = append(dead, key)
		case kept == key && written[key]:
			t.Errorf("keptKnobs names %s, which shipped code sets; drop the entry", key)
		}
	}
	for key := range keptKnobs {
		if !used[key] {
			t.Errorf("keptKnobs names %s, which is not an exported field or struct of the module", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: %s is exported but no non-test code sets it; make it the constant it always is, or add it to keptKnobs with the reason it stays", where[key], strings.TrimPrefix(key, "repro/"))
	}
}
