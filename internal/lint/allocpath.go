package lint

// allocpath: the simulator's hot paths (cache.Cache.Access, the
// Engine load/store path, the PMU steady-state measure path) are pinned
// at 0 allocs/op by the runtime allocgate (`make allocgate`). That gate
// catches a regression only after the allocation ships; this analyzer
// catches it at review time. A function opts in with the marker
//
//	//detlint:allocpath
//
// in its doc comment (the functions named by the allocgate carry it), and
// every heap-allocating construct inside is flagged: make/new, append
// (growth allocates), composite literals of reference types, closures
// (captured variables escape), string concatenation and string↔[]byte
// conversions. Constructs that are provably compile-time-stack-allocated
// in context still count — the gate's contract is "no allocating
// constructs on this path", which is what keeps it reviewable.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocpathMarker opts a function into the analyzer.
const allocpathMarker = "detlint:allocpath"

// Allocpath is the 0-alloc hot-path analyzer.
var Allocpath = &Analyzer{
	Name: "allocpath",
	Doc:  "flags heap-allocating constructs inside functions marked //detlint:allocpath (the allocgate's 0-alloc hot paths)",
	Run:  runAllocpath,
}

func runAllocpath(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasAllocpathMarker(fd) {
				continue
			}
			checkAllocs(pass, fd)
		}
	}
}

// hasAllocpathMarker reports whether the function's doc comment carries
// the //detlint:allocpath marker.
func hasAllocpathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), allocpathMarker) {
			return true
		}
	}
	return false
}

func checkAllocs(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(pass.Info, n, "make"):
				pass.Reportf(n.Pos(), "make on 0-alloc path %s: allocates", name)
			case isBuiltin(pass.Info, n, "new"):
				pass.Reportf(n.Pos(), "new on 0-alloc path %s: allocates", name)
			case isBuiltin(pass.Info, n, "append"):
				pass.Reportf(n.Pos(), "append on 0-alloc path %s: growth allocates (preallocate capacity outside the hot path)", name)
			case isConversion(pass.Info, n) && stringBytesConversion(pass.Info, n):
				pass.Reportf(n.Pos(), "string/[]byte conversion on 0-alloc path %s: copies and allocates", name)
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure on 0-alloc path %s: captured variables escape to the heap", name)
			return false
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map, *types.Slice:
				pass.Reportf(n.Pos(), "%s literal on 0-alloc path %s: allocates", typeKind(t), name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					pass.Reportf(n.Pos(), "address of composite literal on 0-alloc path %s: escapes to the heap", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.Info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "string concatenation on 0-alloc path %s: allocates", name)
					}
				}
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch on 0-alloc path %s", name)
		}
		return true
	})
}

// stringBytesConversion matches string([]byte) and []byte(string).
func stringBytesConversion(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	to := info.TypeOf(call.Fun)
	from := info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return false
	}
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return "composite"
}
