package pipeline

import (
	"errors"
	"fmt"
	"runtime"
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
