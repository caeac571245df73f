// Command shardworker is the worker process of the distributed audit
// fabric. A coordinator (any repro campaign with Processes ≥ 1) launches
// it, sends the campaign spec in an init frame and then streams shard
// plans; the worker rebuilds the full campaign state from the spec —
// seeds plus the coordinator's trained weights, which the campaign
// digest binds, so the rebuild is bit-identical to the coordinator's
// without retraining — and answers each plan with the shard's canonical
// profile payload and digest.
//
// Usage:
//
//	shardworker # frames on stdin/stdout
//
// The process is never run by hand: it speaks length-prefixed JSON
// frames (internal/fabric) on stdin/stdout and nothing else, and takes
// no flags, so a coordinator passing one fails loudly. os.Stdout is
// rebound to stderr before serving so stray prints from any library can
// never corrupt the framing.
//
// Fault-injection hooks, honoured only to make the failure-path test
// suite deterministic:
//
//	REPRO_FABRIC_TEST_KILL_BEFORE_SHARD=<sentinel path>
//	    SIGKILL the process right before executing a shard — but only
//	    for the one process that wins creating the sentinel file, so a
//	    campaign loses exactly one worker mid-shard.
//	REPRO_FABRIC_TEST_FAIL_AFTER_RESULTS=<n>
//	    Exit 1 with a message on stderr after n result frames.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro"
	"repro/internal/fabric"
	"repro/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardworker: ")
	flag.Parse()

	out := os.Stdout
	// Anything that prints to os.Stdout after this point lands on stderr
	// instead of corrupting the frame stream.
	os.Stdout = os.Stderr

	if err := fabric.Serve(context.Background(), os.Stdin, out, repro.NewWorkerRunner, faultHooks()); err != nil {
		log.Fatal(err)
	}
}

// faultHooks builds the test-only serve hooks from the environment;
// production runs get nil hooks.
func faultHooks() *fabric.ServeOptions {
	opts := &fabric.ServeOptions{}
	used := false
	if sentinel := os.Getenv("REPRO_FABRIC_TEST_KILL_BEFORE_SHARD"); sentinel != "" {
		used = true
		opts.BeforeExecute = func(plan pipeline.Plan) error {
			// O_EXCL makes the sentinel a one-shot claim across the whole
			// worker pool: exactly one process dies, exactly once.
			f, err := os.OpenFile(sentinel, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				return nil // another worker already took the kill
			}
			fmt.Fprintf(f, "killed before shard %d\n", plan.Index)
			f.Close()
			//detlint:allow seedpurity — fault-injection self-SIGKILL: the pid addresses this process for Kill, no campaign bytes derive from it
			proc, _ := os.FindProcess(os.Getpid())
			proc.Kill() // SIGKILL: no deferred cleanup, no error frame
			select {}   // unreachable; Kill is asynchronous on some platforms
		}
	}
	if after := os.Getenv("REPRO_FABRIC_TEST_FAIL_AFTER_RESULTS"); after != "" {
		used = true
		n, err := strconv.Atoi(after)
		if err != nil {
			log.Fatalf("REPRO_FABRIC_TEST_FAIL_AFTER_RESULTS: %v", err)
		}
		opts.AfterResult = func(sent int) error {
			if sent >= n {
				return fmt.Errorf("injected failure after %d results", sent)
			}
			return nil
		}
	}
	if !used {
		return nil
	}
	return opts
}
