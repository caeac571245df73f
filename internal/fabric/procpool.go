package fabric

// ProcPool is the subprocess Dispatcher: it launches N shardworker
// processes, initializes each with the campaign spec, and dispatches
// shard plans over length-prefixed frames on each worker's stdin/stdout
// pipes. A worker's death mid-shard fails the dispatch with the
// process's exit status and captured stderr, which the coordinator turns
// into prompt cancellation of everything outstanding.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// stderrTailLimit bounds how much worker stderr is retained for error
// reports — enough to show a panic or a failure message, never unbounded.
const stderrTailLimit = 8 << 10

// tailBuffer keeps the last stderrTailLimit bytes written to it and
// records how much it had to drop — a truncated tail must say so, or an
// over-chatty worker's first (usually most informative) output vanishes
// silently from every error report.
type tailBuffer struct {
	mu      sync.Mutex
	buf     []byte
	dropped int64
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - stderrTailLimit; over > 0 {
		t.buf = t.buf[over:]
		t.dropped += int64(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	tail := strings.TrimSpace(string(t.buf))
	if t.dropped > 0 {
		return fmt.Sprintf("[tail truncated, %d bytes dropped] %s", t.dropped, tail)
	}
	return tail
}

// Dropped reports how many stderr bytes fell off the retained tail.
func (t *tailBuffer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// PoolConfig configures a shardworker pool.
type PoolConfig struct {
	// Bin is the shardworker binary to launch.
	Bin string
	// Env are extra environment variables (the fault-injection hooks in
	// tests); workers inherit the parent environment plus these.
	Env []string
	// Spec is the opaque campaign spec sent in each worker's init frame.
	Spec []byte
	// Procs is the number of worker processes (0 → 1).
	Procs int
	// Obs, when non-nil, arms the fabric's telemetry: workers are asked
	// (via the init frame envelope, never the spec) to ship their spans
	// and counters back over telemetry frames, the pipes count frames
	// and bytes, and worker exits are recorded as events. The campaign's
	// bytes are identical with or without it.
	Obs *obs.Recorder
}

// worker is one shardworker process and its protocol channel.
type worker struct {
	id       int
	cmd      *exec.Cmd
	in       io.WriteCloser
	out      *bufio.Reader
	stderr   *tailBuffer
	waitOnce sync.Once
	waitErr  error
	exitOnce sync.Once // exit telemetry is recorded exactly once
}

// countingWriter tallies bytes written to a worker into the pool
// recorder; Close passes through so shutdown still closes the pipe.
type countingWriter struct {
	w   io.WriteCloser
	rec *obs.Recorder
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.rec.Add(obs.CBytesSent, int64(n))
	}
	return n, err
}

func (c *countingWriter) Close() error { return c.w.Close() }

// countingReader tallies bytes read from a worker into the pool recorder.
type countingReader struct {
	r   io.Reader
	rec *obs.Recorder
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.rec.Add(obs.CBytesReceived, int64(n))
	}
	return n, err
}

// kill tears the worker down hard: killing the process closes its end
// of the pipes, which unblocks any read the dispatcher is parked on.
func (w *worker) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}

func (w *worker) wait() error {
	w.waitOnce.Do(func() { w.waitErr = w.cmd.Wait() })
	return w.waitErr
}

// describe renders the worker's fate for an error message: exit status
// plus the retained stderr tail.
func (w *worker) describe() string {
	status := "exited cleanly"
	if err := w.wait(); err != nil {
		status = err.Error()
	}
	if tail := w.stderr.String(); tail != "" {
		return fmt.Sprintf("worker %d %s; stderr: %s", w.id, status, tail)
	}
	return fmt.Sprintf("worker %d %s", w.id, status)
}

// ProcPool implements pipeline.Dispatcher over a pool of shardworker
// processes.
type ProcPool struct {
	cfg     PoolConfig
	workers []*worker
	free    chan *worker
	closed  chan struct{}
	once    sync.Once
}

var _ pipeline.Dispatcher = (*ProcPool)(nil)

// StartPool launches and initializes the worker processes. It returns
// only once every worker has acknowledged the campaign spec with a ready
// frame, so dispatch latency never includes campaign construction.
//
// Workers are launched one at a time — start the process, send the init
// frame — and their handshakes then complete concurrently: every worker
// builds its campaign at once, and pool start costs one campaign
// construction, not Procs of them. If any worker fails, the others are
// killed, every launched process is reaped, and the error is the
// lowest-id failing worker's.
func StartPool(ctx context.Context, cfg PoolConfig) (*ProcPool, error) {
	if cfg.Bin == "" {
		return nil, fmt.Errorf("fabric: no shardworker binary configured")
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	p := &ProcPool{
		cfg:    cfg,
		free:   make(chan *worker, cfg.Procs),
		closed: make(chan struct{}),
	}
	abort := func(err error) (*ProcPool, error) {
		for _, w := range p.workers {
			w.kill()
		}
		p.Close()
		return nil, err
	}
	for i := 0; i < cfg.Procs; i++ {
		w, err := p.launch(i)
		if err != nil {
			return abort(err)
		}
		p.workers = append(p.workers, w)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(p.workers))
	var wg sync.WaitGroup
	for i, w := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = p.awaitReady(hctx, w); errs[i] != nil {
				cancel() // one failure fails the pool: stop the others' builds
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if err := handshakeErr(errs); err != nil {
		return abort(err)
	}
	for _, w := range p.workers {
		p.free <- w
	}
	return p, nil
}

// handshakeErr picks a pool's handshake error: the lowest-id worker's
// own failure, ahead of the cancellations that failure caused in the
// workers killed because of it.
func handshakeErr(errs []error) error {
	var canceled error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			if canceled == nil {
				canceled = err
			}
		default:
			return err
		}
	}
	return canceled
}

// launch starts worker id on its stdio pipes and sends it the init
// frame; awaitReady completes the handshake.
func (p *ProcPool) launch(id int) (*worker, error) {
	cmd := exec.Command(p.cfg.Bin)
	cmd.Env = append(os.Environ(), p.cfg.Env...)
	w := &worker{id: id, cmd: cmd, stderr: &tailBuffer{}}
	cmd.Stderr = w.stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	w.in, w.out = in, bufio.NewReader(p.countReads(out))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fabric: starting worker %d (%s): %w", id, p.cfg.Bin, err)
	}
	if p.cfg.Obs != nil {
		w.in = &countingWriter{w: w.in, rec: p.cfg.Obs}
	}

	if err := p.writeTo(w, Frame{Type: TypeInit, Spec: p.cfg.Spec, Obs: p.cfg.Obs != nil}); err != nil {
		w.kill()
		return nil, fmt.Errorf("fabric: initializing worker %d: %v (%s)", id, err, w.describe())
	}
	return w, nil
}

// awaitReady reads worker w's answer to its init frame.
func (p *ProcPool) awaitReady(ctx context.Context, w *worker) error {
	f, err := p.readFrom(ctx, w)
	if err != nil {
		return fmt.Errorf("fabric: worker %d handshake: %w", w.id, err)
	}
	switch f.Type {
	case TypeReady:
		return nil
	case TypeError:
		w.kill()
		return fmt.Errorf("fabric: worker %d rejected campaign spec: %s", w.id, f.Err)
	default:
		w.kill()
		return fmt.Errorf("fabric: worker %d sent %q during handshake, want %q", w.id, f.Type, TypeReady)
	}
}

// countReads wraps a worker's stdout pipe with byte telemetry when the
// pool recorder is armed; obs-off pools read the raw pipe.
func (p *ProcPool) countReads(r io.Reader) io.Reader {
	if p.cfg.Obs == nil {
		return r
	}
	return &countingReader{r: r, rec: p.cfg.Obs}
}

// writeTo sends one frame to a worker, tallying the frame counter.
func (p *ProcPool) writeTo(w *worker, f Frame) error {
	err := WriteFrame(w.in, f)
	if err == nil {
		p.cfg.Obs.Add(obs.CFramesSent, 1)
	}
	return err
}

// noteExit records a worker's fate — exit status and whether its stderr
// tail lost bytes — as telemetry, exactly once per worker.
func (p *ProcPool) noteExit(w *worker) {
	rec := p.cfg.Obs
	if rec == nil {
		return
	}
	w.exitOnce.Do(func() {
		status := "exited cleanly"
		if err := w.wait(); err != nil {
			status = err.Error()
		}
		if dropped := w.stderr.Dropped(); dropped > 0 {
			status = fmt.Sprintf("%s; stderr tail truncated (%d bytes dropped)", status, dropped)
		}
		rec.MarkExtra(w.id, "fabric", "worker-exit", status)
		rec.Add(obs.CWorkerExits, 1)
	})
}

// readFrom reads one frame from a worker under a context watchdog: if
// ctx is cancelled while the read blocks, the worker is killed, which
// unblocks the read immediately. The watchdog is gone when readFrom
// returns, so a later cancellation of ctx never reaches a worker whose
// read already succeeded.
func (p *ProcPool) readFrom(ctx context.Context, w *worker) (Frame, error) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			w.kill()
		case <-p.closed:
			w.kill()
		case <-done:
		}
	}()
	f, err := ReadFrame(w.out)
	close(done)
	<-exited
	if err != nil {
		w.kill()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Frame{}, ctxErr
		}
		return Frame{}, fmt.Errorf("%s: %v", w.describe(), err)
	}
	p.cfg.Obs.Add(obs.CFramesReceived, 1)
	return f, nil
}

// Dispatch sends one plan to an idle worker and returns its canonical
// result payload. A worker that dies or misbehaves mid-shard is removed
// from the pool and the dispatch fails with its exit status and stderr.
// Errors do not name the shard; the Coordinator does.
func (p *ProcPool) Dispatch(ctx context.Context, plan pipeline.Plan) ([]byte, error) {
	var w *worker
	select {
	case w = <-p.free:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.closed:
		return nil, fmt.Errorf("pool closed")
	}
	payload, err := p.dispatchTo(ctx, w, plan)
	if err != nil {
		// The worker is in an unknown protocol state (or dead): never
		// return it to the pool.
		w.kill()
		w.wait()
		p.noteExit(w)
		return nil, err
	}
	select {
	case p.free <- w:
	case <-p.closed:
		w.kill()
	}
	return payload, nil
}

func (p *ProcPool) dispatchTo(ctx context.Context, w *worker, plan pipeline.Plan) ([]byte, error) {
	sp := p.cfg.Obs.SpanT(w.id, "fabric", "dispatch")
	defer sp.End()
	p.cfg.Obs.Add(obs.CShardsDispatched, 1)
	if err := p.writeTo(w, Frame{Type: TypeShard, Plan: &plan}); err != nil {
		w.kill()
		return nil, fmt.Errorf("sending: %v (%s)", err, w.describe())
	}
	f, err := p.readFrom(ctx, w)
	if err != nil {
		return nil, err
	}
	// A worker ships telemetry frames ahead of its result; ingest them
	// and keep reading — the dispatch still ends on result or error.
	for f.Type == TypeTelemetry {
		p.ingestTelemetry(f)
		f, err = p.readFrom(ctx, w)
		if err != nil {
			return nil, err
		}
	}
	switch f.Type {
	case TypeResult:
		if f.Index != plan.Index {
			return nil, fmt.Errorf("worker %d answered with the result for shard %d", w.id, f.Index)
		}
		if got := pipeline.PayloadDigest(f.Payload); got != f.Digest {
			return nil, fmt.Errorf("payload digest mismatch: %s != %s", got, f.Digest)
		}
		return f.Payload, nil
	case TypeError:
		return nil, fmt.Errorf("failed on worker %d: %s", w.id, f.Err)
	default:
		return nil, fmt.Errorf("worker %d sent an unexpected %q frame", w.id, f.Type)
	}
}

// ingestTelemetry merges one telemetry frame into the pool recorder. A
// malformed payload is dropped — telemetry must never fail a campaign —
// and so is every event no Recorder records (see recordable), so one bad
// worker event cannot make the campaign's exported trace fail its schema
// check.
func (p *ProcPool) ingestTelemetry(f Frame) {
	if p.cfg.Obs == nil {
		return
	}
	var t obs.Telemetry
	if err := json.Unmarshal(f.Payload, &t); err != nil {
		return
	}
	kept := t.Events[:0]
	for _, e := range t.Events {
		if recordable(e) {
			kept = append(kept, e)
		}
	}
	t.Events = kept
	p.cfg.Obs.Merge(t)
}

// recordable reports whether e is an event a Recorder records: a named
// span ("X") or instant ("i") with a non-negative timestamp and
// duration — what cmd/obsview -check demands of every traced event.
func recordable(e obs.Event) bool {
	return e.Name != "" && e.TS >= 0 && e.Dur >= 0 && (e.Ph == "X" || e.Ph == "i")
}

// Procs reports the pool's process count.
func (p *ProcPool) Procs() int { return p.cfg.Procs }

// Close shuts the pool down: every worker gets a shutdown frame and a
// grace period, then anything still alive is killed.
func (p *ProcPool) Close() error {
	p.once.Do(func() { close(p.closed) })
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			p.writeTo(w, Frame{Type: TypeShutdown})
			w.in.Close()
			done := make(chan struct{})
			go func() {
				w.wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				w.kill()
				<-done
			}
			p.noteExit(w)
		}(w)
	}
	wg.Wait()
	return nil
}
