package fabric

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// fakeDispatcher answers plans with deterministic synthetic payloads,
// records every dispatch, and can be told to fail or stall specific
// shards.
type fakeDispatcher struct {
	mu       sync.Mutex
	procs    int
	calls    []int
	failOn   map[int]error
	stallOn  map[int]bool // block until ctx cancellation
	delay    time.Duration
	canceled int // stalled dispatches that observed cancellation
}

func payloadFor(index int) []byte { return []byte(fmt.Sprintf("payload-%d", index)) }

func (d *fakeDispatcher) Dispatch(ctx context.Context, plan pipeline.Plan) ([]byte, error) {
	d.mu.Lock()
	d.calls = append(d.calls, plan.Index)
	fail := d.failOn[plan.Index]
	stall := d.stallOn[plan.Index]
	d.mu.Unlock()
	if stall {
		<-ctx.Done()
		d.mu.Lock()
		d.canceled++
		d.mu.Unlock()
		return nil, ctx.Err()
	}
	if fail != nil {
		return nil, fail
	}
	if d.delay > 0 {
		// Later shards finish sooner: completion order is the reverse of
		// plan order, which the merge must not care about.
		time.Sleep(d.delay * time.Duration(1+len(d.stallOn)) / time.Duration(1+plan.Index))
	}
	return payloadFor(plan.Index), nil
}

func (d *fakeDispatcher) Procs() int {
	if d.procs <= 0 {
		return 1
	}
	return d.procs
}

func (d *fakeDispatcher) Close() error { return nil }

func (d *fakeDispatcher) dispatched() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.calls...)
}

func makePlans(n int) []pipeline.Plan {
	plans := make([]pipeline.Plan, n)
	for i := range plans {
		plans[i] = pipeline.Plan{Index: i, Class: i % 2, Start: (i / 2) * 5, Count: 5, Seed: int64(100 + i)}
	}
	return plans
}

func TestCoordinatorMergesByPlanOrderNotArrival(t *testing.T) {
	d := &fakeDispatcher{procs: 4, delay: 2 * time.Millisecond}
	c := &Coordinator{Dispatcher: d}
	plans := makePlans(8)
	payloads, err := c.Run(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if string(payloads[i]) != string(payloadFor(plans[i].Index)) {
			t.Fatalf("payloads[%d] = %q, want %q", i, payloads[i], payloadFor(plans[i].Index))
		}
	}
	if len(d.dispatched()) != len(plans) {
		t.Fatalf("dispatched %d shards, want %d", len(d.dispatched()), len(plans))
	}
}

func TestCoordinatorResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resume.journal")
	camp := CampaignDigest([]byte("resume-campaign"))
	plans := makePlans(6)

	j, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	d1 := &fakeDispatcher{procs: 2}
	first, err := (&Coordinator{Dispatcher: d1, Journal: j}).Run(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// A rerun against the same journal dispatches nothing and returns the
	// exact same bytes.
	j2, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	d2 := &fakeDispatcher{procs: 2}
	second, err := (&Coordinator{Dispatcher: d2, Journal: j2}).Run(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d2.dispatched()); n != 0 {
		t.Fatalf("resumed run re-dispatched %d shards, want 0", n)
	}
	for i := range plans {
		if string(first[i]) != string(second[i]) {
			t.Fatalf("resumed payload %d differs", i)
		}
	}
}

func TestCoordinatorPartialJournalRunsOnlyMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.journal")
	camp := CampaignDigest([]byte("partial-campaign"))
	plans := makePlans(5)

	j, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-journal shards 0, 2 and 4: only 1 and 3 should dispatch.
	for _, idx := range []int{0, 2, 4} {
		if err := j.Append(idx, payloadFor(idx)); err != nil {
			t.Fatal(err)
		}
	}
	d := &fakeDispatcher{procs: 3}
	payloads, err := (&Coordinator{Dispatcher: d, Journal: j}).Run(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	got := d.dispatched()
	if len(got) != 2 {
		t.Fatalf("dispatched %v, want exactly shards 1 and 3", got)
	}
	for _, idx := range got {
		if idx != 1 && idx != 3 {
			t.Fatalf("dispatched journaled shard %d", idx)
		}
	}
	for i := range plans {
		if string(payloads[i]) != string(payloadFor(i)) {
			t.Fatalf("payloads[%d] = %q", i, payloads[i])
		}
	}
}

func TestCoordinatorFailureCancelsOutstanding(t *testing.T) {
	d := &fakeDispatcher{
		procs:   3,
		failOn:  map[int]error{1: errors.New("worker 1 exit status 1; stderr: synthetic crash")},
		stallOn: map[int]bool{0: true, 2: true},
	}
	c := &Coordinator{Dispatcher: d}
	done := make(chan struct{})
	var payloads [][]byte
	var err error
	go func() {
		payloads, err = c.Run(context.Background(), makePlans(6))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not cancel outstanding dispatches after a failure")
	}
	if err == nil || payloads != nil {
		t.Fatalf("failed run returned %v, %v", payloads, err)
	}
	if !strings.Contains(err.Error(), "synthetic crash") {
		t.Fatalf("worker stderr not surfaced in coordinator error: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("failing shard not named: %v", err)
	}
	d.mu.Lock()
	canceled := d.canceled
	d.mu.Unlock()
	if canceled == 0 {
		t.Fatal("no stalled dispatch observed cancellation")
	}
}

func TestCoordinatorJournalsBeforeFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.journal")
	camp := CampaignDigest([]byte("crash-campaign"))
	plans := makePlans(4)

	j, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential dispatcher failing on shard 2: shards 0 and 1 must be
	// journaled even though the run as a whole fails.
	d := &fakeDispatcher{procs: 1, failOn: map[int]error{2: errors.New("boom")}}
	if _, err := (&Coordinator{Dispatcher: d, Journal: j}).Run(context.Background(), plans); err == nil {
		t.Fatal("run succeeded despite failing shard")
	}
	j.Close()

	j2, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.done) != 2 {
		t.Fatalf("journal holds %d completions after crash, want 2", len(j2.done))
	}
	// The resumed run finishes the campaign, re-dispatching only 2 and 3.
	d2 := &fakeDispatcher{procs: 1}
	payloads, err := (&Coordinator{Dispatcher: d2, Journal: j2}).Run(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if got := d2.dispatched(); len(got) != 2 {
		t.Fatalf("resume dispatched %v, want shards 2 and 3", got)
	}
	for i := range plans {
		if string(payloads[i]) != string(payloadFor(i)) {
			t.Fatalf("payloads[%d] = %q", i, payloads[i])
		}
	}
}

func TestCoordinatorContextCancellation(t *testing.T) {
	d := &fakeDispatcher{procs: 2, stallOn: map[int]bool{0: true, 1: true}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := (&Coordinator{Dispatcher: d}).Run(ctx, makePlans(4))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled coordinator never returned")
	}
}
