package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce: every index in [0, n) runs exactly once on
// a lane below min(workers, n) (workers 0 → GOMAXPROCS), including n = 0
// and more workers than jobs.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{0, 0}, {1, 0}, {3, 0}, {1, 5}, {2, 5}, {3, 10}, {8, 3}, {0, 17},
	} {
		calls := make([]int, tc.n)
		lanes := make([]int, tc.n)
		err := Each(tc.workers, tc.n, func(w, i int) error {
			calls[i]++
			lanes[i] = w
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", tc.workers, tc.n, err)
		}
		lanesWanted := tc.workers
		if lanesWanted == 0 {
			lanesWanted = runtime.GOMAXPROCS(0)
		}
		lanesWanted = min(lanesWanted, tc.n)
		for i := range calls {
			if calls[i] != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, calls[i])
			}
			if lanes[i] < 0 || lanes[i] >= lanesWanted {
				t.Fatalf("workers=%d n=%d: index %d ran on lane %d, want < %d", tc.workers, tc.n, i, lanes[i], lanesWanted)
			}
		}
	}
}

// TestEachSingleWorkerRunsInline: at one worker Each is a plain loop on
// the caller's goroutine — jobs run in index order, and a job's panic
// unwinds into the caller, which only the caller's own goroutine allows.
func TestEachSingleWorkerRunsInline(t *testing.T) {
	var order []int
	if err := Each(1, 6, func(w, i int) error {
		if w != 0 {
			t.Errorf("job %d ran on lane %d", i, w)
		}
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Fatalf("serial order %v", order)
	}

	recovered := func() (r any) {
		defer func() { r = recover() }()
		Each(1, 3, func(_, i int) error {
			if i == 1 {
				panic("job 1")
			}
			return nil
		})
		return nil
	}()
	if recovered != "job 1" {
		t.Fatalf("job panic did not reach the caller: recovered %v", recovered)
	}
}

// TestEachReturnsLowestIndexError: with several failing jobs, Each
// returns the lowest index's error — the one a serial loop stops at —
// even when a higher index fails first, and every index below it ran.
func TestEachReturnsLowestIndexError(t *testing.T) {
	const n = 40
	failing := map[int]bool{5: true, 9: true, 23: true, 31: true}
	for _, workers := range []int{1, 2, 3, 8} {
		ran := make([]bool, n)
		err := Each(workers, n, func(_, i int) error {
			ran[i] = true
			if !failing[i] {
				return nil
			}
			if i == 5 {
				time.Sleep(20 * time.Millisecond) // let the later failures land first
			}
			return fmt.Errorf("job %d", i)
		})
		if err == nil || err.Error() != "job 5" {
			t.Fatalf("workers=%d: err = %v, want job 5's", workers, err)
		}
		for i := 0; i <= 5; i++ {
			if !ran[i] {
				t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
	}
}

// TestEachLeavesNoGoroutine: when Each returns — after success or a
// failure — no job is still running and every goroutine it started
// exits.
func TestEachLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	for _, failAt := range []int{-1, 7} {
		var inflight int32
		err := Each(4, 64, func(_, i int) error {
			atomic.AddInt32(&inflight, 1)
			defer atomic.AddInt32(&inflight, -1)
			time.Sleep(time.Millisecond)
			if i == failAt {
				return boom
			}
			return nil
		})
		if (failAt >= 0) != errors.Is(err, boom) {
			t.Fatalf("failAt=%d: err = %v", failAt, err)
		}
		if n := atomic.LoadInt32(&inflight); n != 0 {
			t.Fatalf("failAt=%d: %d jobs still running after Each returned", failAt, n)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Each, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEachOrderedDeliversInIndexOrder: with one lane per job and each
// job waiting for the next index to finish, jobs finish in reverse index
// order, yet deliver sees every index once, in increasing order, with its
// own job's value. At fewer lanes the order holds too.
func TestEachOrderedDeliversInIndexOrder(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 3, n} {
		done := make([]chan struct{}, n+1)
		for i := range done {
			done[i] = make(chan struct{})
		}
		close(done[n])
		var mu sync.Mutex
		var finished, got []int
		err := EachOrdered(context.Background(), workers, n, func(_ context.Context, _, i int) (int, error) {
			if workers == n {
				<-done[i+1] // later indices finish first
			}
			mu.Lock()
			finished = append(finished, i)
			mu.Unlock()
			close(done[i])
			return 10 * i, nil
		}, func(i, v int) error {
			if v != 10*i {
				t.Errorf("workers=%d: index %d delivered value %d", workers, i, v)
			}
			got = append(got, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fmt.Sprint(got) != "[0 1 2 3 4 5 6 7]" {
			t.Fatalf("workers=%d: delivery order %v", workers, got)
		}
		if workers == n && fmt.Sprint(finished) != "[7 6 5 4 3 2 1 0]" {
			t.Fatalf("workers=%d: completion order %v, want reversed", workers, finished)
		}
	}
}

// TestEachCtxReturnsCauseNotCancellation: when a high index fails while a
// lower one is still running, the lower job sees the cancellation and
// fails with it; EachCtx and EachOrdered return the failure itself, not
// the lower index's cancellation.
func TestEachCtxReturnsCauseNotCancellation(t *testing.T) {
	boom := errors.New("boom")
	job := func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		<-ctx.Done() // index 0 runs until the failure cancels it
		return fmt.Errorf("job %d: %w", i, ctx.Err())
	}
	if err := EachCtx(context.Background(), 2, 2, func(ctx context.Context, _, i int) error {
		return job(ctx, i)
	}); err != boom {
		t.Fatalf("EachCtx err = %v, want boom", err)
	}
	delivered := 0
	err := EachOrdered(context.Background(), 2, 2, func(ctx context.Context, _, i int) (int, error) {
		return i, job(ctx, i)
	}, func(int, int) error {
		delivered++
		return nil
	})
	if err != boom {
		t.Fatalf("EachOrdered err = %v, want boom", err)
	}
	if delivered != 0 {
		t.Fatalf("%d deliveries, want 0: index 0 never finished", delivered)
	}
}

// TestEachOrderedDeliverErrorVerbatim: a deliver error stops the run,
// cancels the jobs still outstanding and is returned as is, ahead of the
// cancellations it causes.
func TestEachOrderedDeliverErrorVerbatim(t *testing.T) {
	stop := errors.New("stop")
	var cancelled int32
	deliveries := 0
	err := EachOrdered(context.Background(), 2, 6, func(ctx context.Context, _, i int) (int, error) {
		if i >= 2 {
			<-ctx.Done() // outstanding until the deliver error cancels it
			atomic.AddInt32(&cancelled, 1)
			return 0, ctx.Err()
		}
		return i, nil
	}, func(i, _ int) error {
		deliveries++
		if i == 1 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err = %v, want the deliver error verbatim", err)
	}
	if deliveries != 2 {
		t.Fatalf("%d deliveries, want 2", deliveries)
	}
	if atomic.LoadInt32(&cancelled) == 0 {
		t.Fatal("no outstanding job saw the cancellation")
	}
}

// TestEachOrderedCancelledCaller: a caller cancelled mid-run gets its
// context's error and no further deliveries.
func TestEachOrderedCancelledCaller(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deliveries := 0
	err := EachOrdered(ctx, 2, 6, func(ctx context.Context, _, i int) (int, error) {
		if i >= 1 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return i, nil
	}, func(int, int) error {
		deliveries++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if deliveries != 1 {
		t.Fatalf("%d deliveries, want 1", deliveries)
	}
}

// TestEachOrderedLeavesNoGoroutine: when EachOrdered returns — after
// success, a job failure or a deliver error — no job is still running and
// every goroutine it started exits.
func TestEachOrderedLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	boom, stop := errors.New("boom"), errors.New("stop")
	for _, tc := range []struct{ failAt, stopAt int }{{-1, -1}, {7, -1}, {-1, 5}} {
		var inflight int32
		err := EachOrdered(context.Background(), 4, 64, func(ctx context.Context, _, i int) (int, error) {
			atomic.AddInt32(&inflight, 1)
			defer atomic.AddInt32(&inflight, -1)
			time.Sleep(time.Millisecond)
			if i == tc.failAt {
				return 0, boom
			}
			return i, nil
		}, func(i, _ int) error {
			if i == tc.stopAt {
				return stop
			}
			return nil
		})
		switch {
		case tc.failAt >= 0 && err != boom, tc.stopAt >= 0 && err != stop, tc.failAt < 0 && tc.stopAt < 0 && err != nil:
			t.Fatalf("%+v: err = %v", tc, err)
		}
		if n := atomic.LoadInt32(&inflight); n != 0 {
			t.Fatalf("%+v: %d jobs still running after EachOrdered returned", tc, n)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive EachOrdered, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
