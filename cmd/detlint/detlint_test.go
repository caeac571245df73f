package main

// Meta-tests driving the real detlint binary end to end: the clean
// fixture must produce zero findings and exit 0, the dirty fixture must
// reproduce testdata/dirty/expected.txt byte for byte and exit 1, and
// -run must restrict the suite.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDetlint compiles the binary once per test process.
func buildDetlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "detlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building detlint: %v\n%s", err, out)
	}
	return bin
}

// testdataDir resolves internal/lint/testdata relative to this package.
func testdataDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDetlintCleanFixture(t *testing.T) {
	bin := buildDetlint(t)
	cmd := exec.Command(bin, "-dir", "clean")
	cmd.Dir = testdataDir(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("detlint -dir clean: want exit 0, got %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Fatalf("detlint -dir clean: want no output, got:\n%s", out)
	}
}

func TestDetlintDirtyFixture(t *testing.T) {
	bin := buildDetlint(t)
	dir := testdataDir(t)
	cmd := exec.Command(bin, "-dir", "dirty")
	cmd.Dir = dir
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("detlint -dir dirty: want exit 1, got %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join(dir, "dirty", "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(want) {
		t.Errorf("detlint -dir dirty diagnostics drifted.\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestDetlintAnalyzerSubset(t *testing.T) {
	bin := buildDetlint(t)
	dir := testdataDir(t)

	// Restricted to maporder, the other analyzers' findings vanish; the
	// maporder finding and the (subset-independent) malformed-directive
	// diagnostic remain.
	cmd := exec.Command(bin, "-run", "maporder", "-dir", "dirty")
	cmd.Dir = dir
	out, _ := cmd.Output()
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		got = append(got, line[strings.Index(line, ": ")+2:])
	}
	if len(got) != 2 || !strings.HasPrefix(got[0], "maporder:") || !strings.HasPrefix(got[1], "detlint:") {
		t.Errorf("-run maporder: want the maporder finding plus the malformed-directive diagnostic, got:\n%s", out)
	}

	// An unknown analyzer name is a usage error (exit 2).
	cmd = exec.Command(bin, "-run", "nosuch", "-dir", "dirty")
	cmd.Dir = dir
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("-run nosuch: want exit 2, got %v", err)
	}
}
