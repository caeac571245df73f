// Package cliflags registers the flags the campaign commands share: the
// distributed audit fabric (-processes, -worker-bin, -journal) and
// telemetry export (-trace, -obs).
package cliflags

import (
	"flag"

	"repro"
	"repro/internal/obs"
)

// Fabric holds the parsed fabric flags: pass Processes and Config as a
// campaign config's Processes and Fabric fields.
type Fabric struct {
	Processes int
	Config    repro.FabricConfig
}

// AddFabric registers the fabric flags on fs.
func AddFabric(fs *flag.FlagSet) *Fabric {
	f := &Fabric{}
	fs.IntVar(&f.Processes, "processes", 0, "shardworker OS processes via the distributed audit fabric; 0 = in-process")
	fs.StringVar(&f.Config.WorkerBin, "worker-bin", "", "shardworker binary for -processes (default $REPRO_SHARDWORKER)")
	fs.StringVar(&f.Config.Journal, "journal", "", "shard-completion journal base path; reruns resume finished shards")
	return f
}

// Telemetry holds the parsed telemetry flags.
type Telemetry struct {
	trace, jsonl, label string
}

// AddTelemetry registers -trace and -obs on fs; label names the
// recorder (the command).
func AddTelemetry(fs *flag.FlagSet, label string) *Telemetry {
	t := &Telemetry{label: label}
	fs.StringVar(&t.trace, "trace", "", "write a Chrome trace_event timeline of the campaign to this file (open in Perfetto / chrome://tracing, validate with obsview -check)")
	fs.StringVar(&t.jsonl, "obs", "", "stream telemetry events to this file as JSONL")
	return t
}

// Recorder builds the recorder the flags ask for (obs.FileRecorder: nil
// when neither flag is set) and the finish func that writes the trace.
// Telemetry is observational output only: campaign results are
// byte-identical whether or not a recorder is armed.
func (t *Telemetry) Recorder() (*obs.Recorder, func() error, error) {
	return obs.FileRecorder(t.trace, t.jsonl, t.label)
}
