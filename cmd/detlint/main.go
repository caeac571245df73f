// Command detlint runs this repository's determinism-and-hot-path
// analyzer suite (internal/lint) over Go packages.
//
// Usage:
//
//	detlint ./...              lint package patterns (via go list)
//	detlint -dir path/to/dir   lint a bare directory of Go files
//	                           (works on testdata trees go list ignores;
//	                           path-scoped analyzers run unconditionally)
//	detlint -run maporder,seedpurity ./...   subset of analyzers
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	dir := fs.String("dir", "", "lint a bare directory of Go files instead of package patterns")
	runList := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}

	var pkgs []*lint.Package
	if *dir != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "detlint: -dir and package patterns are mutually exclusive")
			return 2
		}
		pkg, err := lint.LoadDir(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			return 2
		}
		pkgs = []*lint.Package{pkg}
	} else {
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		if pkgs, err = lint.Load(".", patterns...); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			return 2
		}
	}

	diags := lint.Run(pkgs, analyzers)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		d.Pos.Filename = relative(cwd, d.Pos.Filename)
		fmt.Println(d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated subset, or all when empty.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// relative shortens a path to cwd-relative form when that is shorter.
func relative(cwd, path string) string {
	if cwd == "" {
		return path
	}
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
