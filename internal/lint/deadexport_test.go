package lint

// TestNoTestOnlyExports keeps internal/ free of exported API that only
// tests call. It loads every non-test file of the module and of the
// perfbench module, builds the reference graph between function and
// method declarations, and marks live everything reachable from code
// outside internal/ (the root package, cmd/, examples/, perfbench),
// from init functions, from package-level initializers and from methods
// that satisfy an interface. An exported internal function or method
// left unmarked is a finding.
//
// This is a test rather than a detlint analyzer: the vettool protocol
// shows an analyzer one package at a time, so it cannot see callers in
// other packages.

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptReferences lists exported internal functions that no shipped code
// calls but that stay on purpose: each is the independent reference a
// test checks live code against, or a documented reader of a CLI's
// output. Keys are funcKey strings; values give the reason and the test.
// What a kept entry calls is kept with it.
var keptReferences = map[string]string{
	"repro/internal/core.Evaluator.Test": "sequential reference for the batched pipeline.Test (pipeline TestPipelineTestMatchesSequential)",
	"repro/internal/nn.Network.Predict":  "float reference for instrument.Classify (instrument TestClassifyMatchesReferenceNetwork)",
	"repro/internal/nn.LoadModel":        "documented reader of cmd/train -out (nn TestSaveLoadRoundTrip)",
}

// funcKey names a function or method independently of which load (source
// or export data) produced its object: "pkgpath.Name" for functions,
// "pkgpath.Recv.Name" for methods.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		// A method of an interface type: never a declaration of its own.
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// funcRefs returns the keys of every function or method node references.
func funcRefs(info *types.Info, node ast.Node) []string {
	var keys []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				if k := funcKey(fn); k != "" {
					keys = append(keys, k)
				}
			}
		}
		return true
	})
	return keys
}

// interfaceTypes collects every method-set interface declared in, or
// visible from, the loaded packages: the universe's error, the named
// interfaces of each package and of everything it imports, and every
// interface type the checker saw in an expression.
func interfaceTypes(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	seenIface := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && !seenIface[it] && it.IsMethodSet() && it.NumMethods() > 0 {
			seenIface[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
					continue
				}
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// dynamicProtocol names the methods errors.Is, errors.As and
// errors.Unwrap look up through interfaces declared inside function
// bodies, which export data does not carry.
var dynamicProtocol = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// sigString renders a method signature's parameter and result types,
// without names.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// satisfiesInterface reports whether method fn belongs to some interface
// that its receiver type implements, and so may be called dynamically.
// Signatures are compared as qualified strings: a package type-checked
// from source and the same package read from export data by its
// importers yield distinct type objects.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	if dynamicProtocol[fn.Name()] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	implements := func(it *types.Interface) bool {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			sel := mset.Lookup(m.Pkg(), m.Name())
			if sel == nil && m.Exported() {
				sel = mset.Lookup(fn.Pkg(), m.Name())
			}
			if sel == nil || sigString(sel.Type()) != sigString(m.Type()) {
				return false
			}
		}
		return true
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && implements(it) {
				return true
			}
		}
	}
	return false
}

// loadModule loads every non-test package of the module and of the
// perfbench module, which compiles against the repro API.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load(filepath.Join(root, "perfbench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	return append(pkgs, bench...)
}

func TestNoTestOnlyExports(t *testing.T) {
	pkgs := loadModule(t)

	const internal = "repro/internal/"
	refs := map[string][]string{}     // declaration key → keys it references
	decls := map[string]*types.Func{} // internal declaration key → object
	where := map[string]string{}      // declaration key → file:line
	var live []string                 // fixpoint roots, then worklist
	for _, pkg := range pkgs {
		inInternal := strings.HasPrefix(pkg.Path+"/", internal)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					// Package-level initializers run unconditionally.
					live = append(live, funcRefs(pkg.Info, d)...)
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				key := funcKey(fn)
				if fd.Body != nil {
					refs[key] = append(refs[key], funcRefs(pkg.Info, fd.Body)...)
				}
				if !inInternal || (fd.Recv == nil && fd.Name.Name == "init") {
					live = append(live, key)
					continue
				}
				decls[key] = fn
				where[key] = pkg.Fset.Position(fd.Pos()).String()
			}
		}
	}
	// A method that satisfies an interface may be called through it, so
	// it is live whenever its type is; the scan treats it as a root.
	ifaces := interfaceTypes(pkgs)
	for key, fn := range decls {
		if fn.Type().(*types.Signature).Recv() != nil && satisfiesInterface(fn, ifaces) {
			live = append(live, key)
		}
	}
	reached := map[string]bool{}
	reach := func(live []string) {
		for len(live) > 0 {
			key := live[len(live)-1]
			live = live[:len(live)-1]
			if !reached[key] {
				reached[key] = true
				live = append(live, refs[key]...)
			}
		}
	}
	reach(live)
	var kept []string
	for key := range keptReferences {
		switch {
		case decls[key] == nil:
			t.Errorf("keptReferences names %s, which is not an internal declaration", key)
		case reached[key]:
			t.Errorf("keptReferences names %s, which shipped code calls; drop the entry", key)
		}
		kept = append(kept, key)
	}
	reach(kept)

	var dead []string
	for key, fn := range decls {
		if !reached[key] && fn.Exported() {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: %s is exported but only tests call it; delete it, or add it to keptReferences with the test that uses it as a reference", where[key], strings.TrimPrefix(key, "repro/"))
	}
}
