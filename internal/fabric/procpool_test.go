package fabric

// ProcPool process-level tests. The test binary doubles as the worker
// process: TestMain re-executes itself as a protocol-speaking fake
// shardworker when FABRIC_TEST_WORKER is set (its value picks the fake's
// behaviour), so the pool is exercised against a real subprocess without
// building cmd/shardworker.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func TestMain(m *testing.M) {
	switch os.Getenv("FABRIC_TEST_WORKER") {
	case "":
		os.Exit(m.Run())
	case "barrier":
		runBarrierWorker()
	case "reject-one":
		runRejectOneWorker()
	case "stall", "die", "fail":
		runShardFaultWorker(os.Getenv("FABRIC_TEST_WORKER"))
	default:
		runChattyWorker()
	}
	os.Exit(0)
}

// Fake-worker settings shared through the environment: a directory the
// pool's workers all see, and the pool size.
func fakeWorkerDir() string { return os.Getenv("FABRIC_TEST_DIR") }

func fakeWorkerProcs() int {
	n, _ := strconv.Atoi(os.Getenv("FABRIC_TEST_PROCS"))
	return n
}

// readInit reads a fake worker's init frame from stdin.
func readInit() *bufio.Reader {
	br := bufio.NewReader(os.Stdin)
	if f, err := ReadFrame(br); err != nil || f.Type != TypeInit {
		os.Exit(2)
	}
	return br
}

// awaitFiles polls until the fake-worker directory holds n files
// matching pattern, giving up after 10 s.
func awaitFiles(pattern string, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := filepath.Glob(filepath.Join(fakeWorkerDir(), pattern))
		if len(got) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers got their init frame within 10s", len(got), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serveShutdown answers frames until shutdown or a closed transport.
func serveShutdown(br *bufio.Reader) {
	for {
		if f, err := ReadFrame(br); err != nil || f.Type == TypeShutdown {
			return
		}
	}
}

// runBarrierWorker acknowledges its init frame only once every worker
// of the pool has received one: a pool that waits for one worker's
// ready frame before initializing the next never gets there.
func runBarrierWorker() {
	br := readInit()
	os.WriteFile(filepath.Join(fakeWorkerDir(), fmt.Sprintf("init-%d", os.Getpid())), nil, 0o644)
	if err := awaitFiles("init-*", fakeWorkerProcs()); err != nil {
		WriteFrame(os.Stdout, Frame{Type: TypeError, Err: err.Error()})
		os.Exit(1)
	}
	WriteFrame(os.Stdout, Frame{Type: TypeReady})
	serveShutdown(br)
}

// runRejectOneWorker records its pid, waits for every worker of the
// pool to do the same, and then exactly one worker (the first to claim
// the sentinel) rejects the spec while the others stay busy "building"
// for 20 s.
func runRejectOneWorker() {
	os.WriteFile(filepath.Join(fakeWorkerDir(), fmt.Sprintf("pid-%d", os.Getpid())), nil, 0o644)
	br := readInit()
	if err := awaitFiles("pid-*", fakeWorkerProcs()); err != nil {
		WriteFrame(os.Stdout, Frame{Type: TypeError, Err: err.Error()})
		os.Exit(1)
	}
	if f, err := os.OpenFile(filepath.Join(fakeWorkerDir(), "reject"), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
		f.Close()
		WriteFrame(os.Stdout, Frame{Type: TypeError, Err: "fake worker rejects the spec"})
		os.Exit(1)
	}
	time.Sleep(20 * time.Second)
	WriteFrame(os.Stdout, Frame{Type: TypeReady})
	serveShutdown(br)
}

// fakePool is the pool config of the fake-worker tests.
func fakePool(mode, dir string, procs int) PoolConfig {
	return PoolConfig{
		Bin: os.Args[0],
		Env: []string{"FABRIC_TEST_WORKER=" + mode, "FABRIC_TEST_DIR=" + dir,
			"FABRIC_TEST_PROCS=" + strconv.Itoa(procs)},
		Spec:  []byte(`{"fixture":true}`),
		Procs: procs,
	}
}

// TestStartPoolHandshakesConcurrently: every worker receives its init
// frame before the pool waits on any ready frame, so workers that each
// need all the others initialized complete the handshake.
// The subtest is the pipe transport, the fabric's only one: its name
// still says it is not TCP, so its results stay comparable with runs of
// the suite from before the TCP transport was removed.
func TestStartPoolHandshakesConcurrently(t *testing.T) {
	t.Run("tcp=false", func(t *testing.T) {
		pool, err := StartPool(context.Background(), fakePool("barrier", t.TempDir(), 3))
		if err != nil {
			t.Fatalf("StartPool: %v", err)
		}
		pool.Close()
	})
}

// TestStartPoolHandshakeFailureReapsAll: one worker of three rejects the
// spec while the others are still building. StartPool fails with that
// worker's rejection (not the others' cancellation), kills the workers
// still building instead of waiting them out, and reaps every process.
func TestStartPoolHandshakeFailureReapsAll(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	pool, err := StartPool(context.Background(), fakePool("reject-one", dir, 3))
	if err == nil {
		pool.Close()
		t.Fatal("StartPool succeeded with a rejecting worker")
	}
	if !regexp.MustCompile(`worker \d rejected campaign spec: fake worker rejects the spec`).MatchString(err.Error()) {
		t.Fatalf("error does not name the rejecting worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("StartPool took %v: it waited out the building workers instead of killing them", elapsed)
	}
	pids, err := filepath.Glob(filepath.Join(dir, "pid-*"))
	if err != nil || len(pids) != 3 {
		t.Fatalf("pid files = %v (%v), want 3", pids, err)
	}
	for _, f := range pids {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(f), "pid-"))
		if err != nil {
			t.Fatal(err)
		}
		// A reaped process is gone; a running or unreaped one still
		// answers signal 0.
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("worker process %d still exists after StartPool failed (kill 0: %v)", pid, err)
		}
	}
}

// runChattyWorker speaks the worker protocol on stdio after spewing far
// more stderr than the pool's retained tail.
func runChattyWorker() {
	chunk := bytes.Repeat([]byte("chatter "), 512) // 4 KiB per write
	for i := 0; i < 8; i++ {                       // 32 KiB total, 4x the tail limit
		os.Stderr.Write(chunk)
	}
	br := bufio.NewReader(os.Stdin)
	f, err := ReadFrame(br)
	if err != nil || f.Type != TypeInit {
		os.Exit(2)
	}
	if err := WriteFrame(os.Stdout, Frame{Type: TypeReady}); err != nil {
		os.Exit(2)
	}
	for {
		f, err := ReadFrame(br)
		if err != nil || f.Type == TypeShutdown {
			return
		}
		if f.Type == TypeShard {
			WriteFrame(os.Stdout, Frame{Type: TypeError, Index: f.Plan.Index, Err: "chatty worker declines every shard"})
		}
	}
}

// TestTailBufferRecordsTruncation: an over-limit stderr stream keeps the
// newest bytes, counts the dropped ones, and says so in error text.
func TestTailBufferRecordsTruncation(t *testing.T) {
	tb := &tailBuffer{}
	tb.Write(bytes.Repeat([]byte("a"), stderrTailLimit))
	if tb.Dropped() != 0 {
		t.Fatalf("Dropped() = %d before overflow, want 0", tb.Dropped())
	}
	if strings.Contains(tb.String(), "truncated") {
		t.Fatalf("untruncated tail claims truncation: %q", tb.String()[:60])
	}
	tb.Write([]byte("bbbb"))
	if tb.Dropped() != 4 {
		t.Fatalf("Dropped() = %d after 4-byte overflow, want 4", tb.Dropped())
	}
	s := tb.String()
	if !strings.HasPrefix(s, "[tail truncated, 4 bytes dropped] ") {
		t.Fatalf("truncated tail does not say so: %q", s[:60])
	}
	if !strings.HasSuffix(s, "bbbb") {
		t.Fatalf("tail lost the newest bytes: %q", s[len(s)-20:])
	}
}

// TestProcPoolChattyWorkerExitTelemetry: a worker that floods stderr
// past the retained tail gets its truncation recorded — in the dispatch
// error text and in the worker-exit obs event — instead of its earliest
// output vanishing silently.
func TestProcPoolChattyWorkerExitTelemetry(t *testing.T) {
	ctx := context.Background()
	rec := obs.New(obs.Config{Label: "pool-test"})
	pool, err := StartPool(ctx, PoolConfig{
		Bin:   os.Args[0],
		Env:   []string{"FABRIC_TEST_WORKER=1"},
		Spec:  []byte(`{"fixture":true}`),
		Procs: 1,
		Obs:   rec,
	})
	if err != nil {
		t.Fatalf("StartPool: %v", err)
	}
	defer pool.Close()

	if _, err := pool.Dispatch(ctx, pipeline.Plan{Index: 0, Class: 0, Start: 0, Count: 1, Seed: 1}); err == nil {
		t.Fatal("Dispatch succeeded against the declining worker")
	}
	pool.Close()

	tel := rec.Drain()
	var exit *obs.Event
	for i, e := range tel.Events {
		if e.Cat == "fabric" && e.Name == "worker-exit" {
			exit = &tel.Events[i]
		}
	}
	if exit == nil {
		t.Fatalf("no worker-exit event in telemetry (%d events)", len(tel.Events))
	}
	if !strings.Contains(exit.Extra, "stderr tail truncated") || !strings.Contains(exit.Extra, "bytes dropped") {
		t.Fatalf("worker-exit event does not record the truncation: %q", exit.Extra)
	}
	exits := int64(0)
	for _, cv := range tel.Counters {
		if cv.C == obs.CWorkerExits {
			exits = cv.N
		}
	}
	if exits != 1 {
		t.Fatalf("worker_exits counter = %d, want 1 (exit telemetry must be once per worker)", exits)
	}
}

// failingRunner fails every plan it is asked to execute.
type failingRunner struct{}

func (failingRunner) Execute(context.Context, pipeline.Plan) ([]hpc.Profile, error) {
	return nil, errors.New("synthetic execution failure")
}

// runShardFaultWorker handshakes and then faults on its first shard:
// "stall" marks the shard received and never answers it, "die" exits
// without an answer, and "fail" serves the real worker loop with a
// runner that fails every plan.
func runShardFaultWorker(mode string) {
	if mode == "fail" {
		build := func(context.Context, []byte) (Runner, error) { return failingRunner{}, nil }
		if Serve(context.Background(), os.Stdin, os.Stdout, build, nil) != nil {
			os.Exit(1)
		}
		return
	}
	br := readInit()
	WriteFrame(os.Stdout, Frame{Type: TypeReady})
	if f, err := ReadFrame(br); err != nil || f.Type != TypeShard {
		return
	}
	if mode == "die" {
		os.Stderr.WriteString("fake worker dies mid-shard")
		os.Exit(3)
	}
	os.WriteFile(filepath.Join(fakeWorkerDir(), "shard"), nil, 0o644)
	serveShutdown(br)
}

// TestCoordinatorNamesShardOnce: whether the campaign is cancelled while
// a shard is out, the worker dies mid-shard, or the worker reports the
// shard failed, the campaign error names the shard exactly once.
func TestCoordinatorNamesShardOnce(t *testing.T) {
	for _, tc := range []struct{ mode, cause string }{
		{"stall", "context canceled"},
		{"die", "fake worker dies mid-shard"},
		{"fail", "synthetic execution failure"},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			dir := t.TempDir()
			pool, err := StartPool(context.Background(), fakePool(tc.mode, dir, 1))
			if err != nil {
				t.Fatalf("StartPool: %v", err)
			}
			defer pool.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.mode == "stall" {
				// Cancel only once the worker holds the shard, so the
				// dispatch is in flight when the campaign gives up.
				go func() {
					for {
						if _, err := os.Stat(filepath.Join(dir, "shard")); err == nil {
							cancel()
							return
						}
						time.Sleep(time.Millisecond)
					}
				}()
			}
			plans := []pipeline.Plan{{Index: 7, Class: 1, Count: 1, Seed: 1}}
			_, err = (&Coordinator{Dispatcher: pool}).Run(ctx, plans)
			if err == nil {
				t.Fatal("campaign succeeded against a faulting worker")
			}
			if !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("error does not carry the cause %q: %v", tc.cause, err)
			}
			if n := strings.Count(err.Error(), "fabric: shard 7:"); n != 1 {
				t.Fatalf("error names the shard %d times, want once: %v", n, err)
			}
		})
	}
}
