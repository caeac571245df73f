package cliflags

import (
	"flag"
	"path/filepath"
	"testing"

	"repro"
)

func TestFabricFlags(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		procs int
		want  repro.FabricConfig
	}{
		{nil, 0, repro.FabricConfig{}},
		{[]string{"-processes", "2", "-worker-bin", "bin/sw", "-journal", "j/audit"},
			2, repro.FabricConfig{WorkerBin: "bin/sw", Journal: "j/audit"}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := AddFabric(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if f.Processes != tc.procs {
			t.Errorf("%v: Processes = %d, want %d", tc.args, f.Processes, tc.procs)
		}
		if f.Config.WorkerBin != tc.want.WorkerBin || f.Config.Journal != tc.want.Journal {
			t.Errorf("%v: Config = %+v, want %+v", tc.args, f.Config, tc.want)
		}
	}
}

func TestTelemetryFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := AddTelemetry(fs, "test")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	rec, finish, err := tel.Recorder()
	if err != nil || rec != nil {
		t.Fatalf("no flags: recorder %v, err %v; want nil, nil", rec, err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	tel = AddTelemetry(fs, "test")
	dir := t.TempDir()
	if err := fs.Parse([]string{"-trace", filepath.Join(dir, "t.json"), "-obs", filepath.Join(dir, "t.jsonl")}); err != nil {
		t.Fatal(err)
	}
	rec, finish, err = tel.Recorder()
	if err != nil || rec == nil {
		t.Fatalf("-trace/-obs: recorder %v, err %v; want armed", rec, err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
}
