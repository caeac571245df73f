package lint

import (
	"strings"
	"testing"
)

// TestModuleIsDetlintClean runs the whole analyzer suite over the
// packages `detlint ./...` lints, every non-test package of the module,
// and expects no findings, so the plain test suite keeps the module
// detlint-clean. perfbench is a module of its own, outside that set.
func TestModuleIsDetlintClean(t *testing.T) {
	var pkgs []*Package
	for _, pkg := range loadModule(t) {
		if !strings.HasPrefix(pkg.Path+"/", "repro/perfbench/") {
			pkgs = append(pkgs, pkg)
		}
	}
	for _, d := range Run(pkgs, All()) {
		t.Error(d)
	}
}
