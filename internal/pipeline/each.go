package pipeline

// The package's fan-out helpers. Each is the plain index fan-out with
// serial-loop error semantics; EachCtx adds a context and stops on the
// first failure in time; EachOrdered hands every job's value to the
// caller's goroutine in index order — the one ordered executor that both
// in-process shard collection (runShards) and the fabric coordinator
// (fabric.Coordinator.RunStream) run on.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs fn(w, i) for every i in [0, n) over min(workers, n)
// goroutines (workers 0 → GOMAXPROCS) and returns the lowest-index
// error, the one a serial loop would have stopped at. w is the lane
// (0..workers-1) running job i; it is scheduling-dependent, so a job may
// use it only for telemetry. Each job must write only its own index's
// slot of any shared output. Lanes claim indices in increasing order and
// stop claiming once a job has failed, but every claimed job runs, so
// every index below a failure runs too. At one worker Each is a plain
// loop on the caller's goroutine: the sequential reference.
func Each(workers, n int, fn func(w, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var (
		next   int64
		failed int32
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for atomic.LoadInt32(&failed) == 0 {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(w, i); errs[i] != nil {
					atomic.StoreInt32(&failed, 1)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EachCtx runs fn(ctx, w, i) for every i in [0, n) over workers lanes
// (Each), stopping on the first error or context cancellation and
// returning that first error. fn gets a context that is cancelled as
// soon as any job fails, so its siblings can stop early.
func EachCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, w, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	err := Each(workers, n, func(w, i int) error {
		err := ctx.Err()
		if err == nil {
			err = fn(ctx, w, i)
		}
		if err != nil {
			errOnce.Do(func() {
				firstErr = err
				cancel()
			})
		}
		return err
	})
	if err != nil {
		// The first failure in time, not Each's lowest-index one: a
		// failure cancels ctx, so lower-index jobs still running fail
		// with the cancellation, which is not the cause.
		return firstErr
	}
	return ctx.Err()
}

// EachOrdered runs job(ctx, w, i) for every i in [0, n) over workers
// lanes (EachCtx, indices claimed in increasing order) and calls
// deliver(i, v) on the caller's goroutine with each job's value,
// strictly in index order: index i is delivered once it and every index
// before it have finished. Each index has a 1-slot ready channel, so no
// job ever waits on the deliverer. A non-nil error from deliver cancels
// the outstanding jobs and is returned verbatim. Otherwise the first job
// error is returned, or the context's error once the caller is
// cancelled; a cancelled caller gets no further deliveries. Every job
// has returned when EachOrdered does.
func EachOrdered[T any](ctx context.Context, workers, n int, job func(ctx context.Context, w, i int) (T, error), deliver func(i int, v T) error) error {
	ready := make([]chan T, n)
	for i := range ready {
		ready[i] = make(chan T, 1)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobErr := make(chan error, 1)
	go func() {
		err := EachCtx(runCtx, workers, n, func(ctx context.Context, w, i int) error {
			v, err := job(ctx, w, i)
			if err == nil {
				ready[i] <- v // cap 1: never blocks
			}
			return err
		})
		cancel() // wake the deliverer if the jobs stopped short
		jobErr <- err
	}()

	var err error
delivery:
	for i, ch := range ready {
		var v T
		select {
		case v = <-ch:
		case <-runCtx.Done():
			// The context closes on failure or once every job has
			// finished; finished jobs are already buffered, so a
			// non-blocking take loses nothing.
			select {
			case v = <-ch:
			default:
				break delivery // the jobs stopped short; their error says why
			}
		}
		if err = ctx.Err(); err == nil {
			err = deliver(i, v)
		}
		if err != nil {
			cancel()
			break
		}
	}
	if jErr := <-jobErr; err == nil {
		err = jErr
	}
	return err
}
