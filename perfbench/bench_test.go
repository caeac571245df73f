package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// workerBin is a shardworker built once for the fabric workload.
var workerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	workerBin = filepath.Join(dir, "shardworker")
	if out, err := exec.Command("go", "build", "-o", workerBin, "repro/cmd/shardworker").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building shardworker: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared is the workload and metric list of BENCHMARK.json, the
// contract the benchmark's output is checked against.
type declared struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs one tiny-size invocation and returns its printed output
// and the parsed last line.
func runTiny(t *testing.T, workload string, trace int, refs refTable) (string, result) {
	t.Helper()
	var log bytes.Buffer
	res, err := run(context.Background(), options{workload: workload, seed: 3, trace: trace, workerBin: workerBin}, tinySize, refs, &log)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}
	var out bytes.Buffer
	if err := res.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return out.String(), got
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for _, dw := range d.Workloads {
		w, err := findWorkload(dw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.scenarios < 1 {
			t.Fatalf("%s builds %d scenarios", w.name, w.scenarios)
		}
		for trace, want := range [][]named{d.EndToEnd, d.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", dw.Name, trace), func(t *testing.T) {
				out, got := runTiny(t, dw.Name, trace, refTable{})
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", got.Correct, got.Attempted, got.Failed, out)
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
					}
					if !printed(out, m.Name, m.Unit) {
						t.Errorf("metric %s is not printed with its unit %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}

// printed reports whether a human-readable line names the metric and
// its unit.
func printed(out, name, unit string) bool {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func TestWrongReferenceIsAFailedOperation(t *testing.T) {
	wrong := refTable{"audit": {}}
	w, err := findWorkload("audit-mnist")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.scenarios; i++ {
		wrong["audit"][unitSeed(3, i)] = strings.Repeat("0", 64)
	}
	for trace := 0; trace <= 1; trace++ {
		out, got := runTiny(t, "audit-mnist", trace, wrong)
		if got.Correct || got.Attempted < 1 || got.Failed != got.Attempted {
			t.Errorf("trace=%d: a wrong reference must fail every campaign: correct=%v attempted=%d failed=%d\n%s",
				trace, got.Correct, got.Attempted, got.Failed, out)
		}
	}
}

func TestRecordedReferencesParse(t *testing.T) {
	refs, err := loadRefs(recordedRefs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed, d := range refs[w.refKey] {
			if len(d) != 64 {
				t.Errorf("%s seed %d: digest %q is not a sha256", w.refKey, seed, d)
			}
		}
	}
}
