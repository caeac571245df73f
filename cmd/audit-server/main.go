// Command audit-server is the distributed audit fabric's HTTP
// front-end: clients POST campaign requests, the server queues and runs
// them one at a time (each campaign may itself fan out over shardworker
// processes), and the finished JSON reports are served back by id.
// The process count is the server's -processes flag: a request cannot
// set it.
//
// Usage:
//
//	audit-server [-addr :8347] [-processes 4] [-worker-bin PATH]
//	             [-journal BASE]
//
// API:
//
//	POST /campaigns             {"stage":"report","scenario":{"dataset":"mnist",...},...}
//	                            → 202 {"id":1,"state":"queued"}
//	                              (413 for a body over 1 MiB, 503 when
//	                              1024 campaigns are already waiting)
//	GET  /campaigns             → every campaign, submission order
//	GET  /campaigns/1           → state + report once done
//	GET  /campaigns/1/progress  → live telemetry: stage, shards done/total, elapsed
//	GET  /metrics               → server-wide counter totals, text format
//
// Every report is byte-reproducible: a campaign's bytes depend only on
// its request, never on the queue around it or the process count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"

	"repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("audit-server: ")
	addr := flag.String("addr", ":8347", "HTTP listen address")
	fab := cliflags.AddFabric(flag.CommandLine)
	flag.Parse()

	s := newServer(func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		return runCampaign(ctx, req, fab.Processes, fab.Config, rec)
	})
	defer s.Close()

	log.Printf("listening on %s (processes=%d)", *addr, fab.Processes)
	log.Fatal(http.ListenAndServe(*addr, s.handler()))
}

// runCampaign executes one queued request with the real repro stages,
// recording progress telemetry into rec (served live on the campaign's
// /progress endpoint; report bytes never depend on it).
func runCampaign(ctx context.Context, req CampaignRequest, processes int, fc repro.FabricConfig, rec *obs.Recorder) (json.RawMessage, error) {
	s, err := req.Scenario.Build()
	if err != nil {
		return nil, err
	}
	events, err := parseEvents(req.Events)
	if err != nil {
		return nil, err
	}

	var result any
	switch req.Stage {
	case repro.StageReport:
		result, err = s.EvaluateCtx(ctx, repro.EvalConfig{
			Classes:      req.Classes,
			Events:       events,
			RunsPerClass: req.Runs,
			Workers:      1,
			Seed:         req.Seed,
			Processes:    processes,
			Fabric:       fc,
			Obs:          rec,
		})
	case repro.StageAttack:
		result, err = s.Attack(ctx, repro.AttackConfig{
			Classes:     req.Classes,
			Events:      events,
			ProfileRuns: req.Runs,
			AttackRuns:  req.AttackRuns,
			Workers:     1,
			Seed:        req.Seed,
			Processes:   processes,
			Fabric:      fc,
			Obs:         rec,
		})
	case repro.StageArchID:
		result, err = s.ArchID(ctx, repro.ArchIDConfig{
			Events:      events,
			ProfileRuns: req.Runs,
			AttackRuns:  req.AttackRuns,
			MaxInputs:   req.MaxInputs,
			Workers:     1,
			Seed:        req.Seed,
			Processes:   processes,
			Fabric:      fc,
			Obs:         rec,
		})
	case repro.StageMonitor:
		// The monitor report leads with the first-detection trace count:
		// how many monitored inferences the verdict cost this deployment.
		result, err = s.MonitorCtx(ctx, repro.MonitorConfig{
			Classes:   req.Classes,
			Events:    events,
			Budget:    req.Runs,
			Alpha:     req.Alpha,
			Workers:   1,
			Seed:      req.Seed,
			Tenants:   req.Tenants,
			NoStop:    req.NoStop,
			Processes: processes,
			Fabric:    fc,
			Obs:       rec,
		})
	case repro.StageTopo:
		result, err = s.Topo(ctx, repro.TopoConfig{
			Events:    events,
			Runs:      req.Runs,
			MaxInputs: req.MaxInputs,
			Workers:   1,
			Seed:      req.Seed,
			Processes: processes,
			Fabric:    fc,
			Obs:       rec,
		})
	default:
		return nil, fmt.Errorf("unknown stage %q", req.Stage)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(result)
}
