package fabric

// The worker side of the protocol: a shardworker process reads frames
// from its coordinator, builds the campaign runner from the init spec,
// and answers each shard frame with a result frame. Serve reads and
// writes plain streams; cmd/shardworker hands it its stdio pipes.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Runner executes shard plans for one campaign. *pipeline.Executor
// satisfies it; repro's worker glue builds one from a campaign spec.
type Runner interface {
	Execute(ctx context.Context, plan pipeline.Plan) ([]hpc.Profile, error)
}

// obsSettable is the optional runner seam for worker-side telemetry: a
// runner implementing it (e.g. *pipeline.Executor) gets the recorder
// Serve creates when the coordinator's init frame requests telemetry.
type obsSettable interface {
	SetObs(*obs.Recorder)
}

// BuildRunner constructs the campaign runner from the opaque spec in the
// init frame. It runs once per worker process.
type BuildRunner func(ctx context.Context, spec []byte) (Runner, error)

// ServeOptions carries test hooks into the serve loop. Production
// workers pass nil; the fault-injection suite uses the hooks to kill or
// fail a worker at precise protocol points.
type ServeOptions struct {
	// BeforeExecute runs after a shard frame is read, before the plan
	// executes. Returning an error fails the worker as if execution did.
	BeforeExecute func(plan pipeline.Plan) error
	// AfterResult runs after a result frame is written, with the count of
	// results written so far. Returning an error fails the worker.
	AfterResult func(sent int) error
}

// Serve runs the worker protocol until the coordinator sends shutdown or
// the transport closes. Shard execution errors are reported with an
// error frame and also returned, so the process exits non-zero and the
// coordinator sees the failure on both channels.
func Serve(ctx context.Context, r io.Reader, w io.Writer, build BuildRunner, opts *ServeOptions) error {
	if opts == nil {
		opts = &ServeOptions{}
	}
	init, err := ReadFrame(r)
	if err != nil {
		return fmt.Errorf("fabric: reading init frame: %w", err)
	}
	if init.Type != TypeInit {
		return fmt.Errorf("fabric: first frame is %q, want %q", init.Type, TypeInit)
	}
	runner, err := build(ctx, init.Spec)
	if err != nil {
		werr := fmt.Errorf("fabric: building campaign runner: %w", err)
		WriteFrame(w, Frame{Type: TypeError, Err: werr.Error()})
		return werr
	}
	var rec *obs.Recorder
	if init.Obs {
		rec = obs.New(obs.Config{Label: "shardworker"})
		if s, ok := runner.(obsSettable); ok {
			s.SetObs(rec)
		}
	}
	if err := WriteFrame(w, Frame{Type: TypeReady}); err != nil {
		return err
	}
	sent := 0
	for {
		f, err := ReadFrame(r)
		if err == io.EOF {
			return nil // coordinator closed the pipe: clean shutdown
		}
		if err != nil {
			return fmt.Errorf("fabric: reading frame: %w", err)
		}
		switch f.Type {
		case TypeShutdown:
			return nil
		case TypeShard:
			if f.Plan == nil {
				return failShard(w, fmt.Errorf("fabric: shard frame without a plan"))
			}
			if opts.BeforeExecute != nil {
				if err := opts.BeforeExecute(*f.Plan); err != nil {
					return failShard(w, err)
				}
			}
			sp := rec.ShardSpan(0, f.Plan.Index, f.Plan.Class)
			profs, err := runner.Execute(ctx, *f.Plan)
			sp.End()
			if err != nil {
				return failShard(w, err)
			}
			payload, err := pipeline.EncodeProfiles(profs)
			if err != nil {
				return failShard(w, err)
			}
			// Ship the worker's telemetry BEFORE the result, so the
			// coordinator's per-dispatch read loop ingests it and still
			// ends on the result frame it is waiting for.
			if rec != nil {
				if err := writeTelemetry(w, rec, f.Plan.Index); err != nil {
					return err
				}
			}
			res := Frame{
				Type:    TypeResult,
				Index:   f.Plan.Index,
				Payload: payload,
				Digest:  pipeline.PayloadDigest(payload),
			}
			if err := WriteFrame(w, res); err != nil {
				return err
			}
			sent++
			if opts.AfterResult != nil {
				if err := opts.AfterResult(sent); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("fabric: unexpected %q frame", f.Type)
		}
	}
}

// failShard reports a shard failure on the wire and returns it; the
// write error, if any, is secondary to the execution error. The error
// does not name the shard: the coordinator does that.
func failShard(w io.Writer, err error) error {
	WriteFrame(w, Frame{Type: TypeError, Err: err.Error()})
	return err
}

// writeTelemetry drains the worker recorder and sends the deltas as a
// telemetry frame for shard index. An empty drain sends nothing.
func writeTelemetry(w io.Writer, rec *obs.Recorder, index int) error {
	t := rec.Drain()
	if len(t.Events) == 0 && len(t.Counters) == 0 {
		return nil
	}
	payload, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("fabric: encoding telemetry: %w", err)
	}
	return WriteFrame(w, Frame{Type: TypeTelemetry, Index: index, Payload: payload})
}
