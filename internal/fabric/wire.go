// Package fabric is the distributed audit fabric: the coordinator,
// worker protocol and completion journal that distribute a campaign's
// shard plans across worker processes while preserving the repo's
// foundational guarantee — processes=1 ≡ processes=N, byte for byte.
//
// # Architecture
//
//	coordinator ── plans ──► ProcPool ── frames ──► cmd/shardworker × N
//	     ▲                                               │
//	     └──── payloads (merged by shard id) ◄───────────┘
//	     └──── journal (append-only JSONL, resumable)
//
// The unit of distribution is the pipeline's wire Plan: (class, start,
// count, seed). A worker process is initialized once with an opaque
// campaign spec (seeds plus the trained network's weights, from which it
// rebuilds the victims, pools and evaluator; the weights are part of the
// spec bytes, so CampaignDigest binds them), then executes plans on demand, returning each shard's
// canonically-encoded profiles. The coordinator merges results keyed by
// shard id — never arrival order — journals completions so a crashed
// campaign resumes without re-measuring finished shards, and on any
// worker failure cancels the outstanding dispatches and surfaces the
// worker's stderr.
//
// Transport is length-prefixed JSON frames over each worker's
// stdin/stdout pipes.
package fabric

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/pipeline"
)

// ProtocolVersion is the fabric wire-protocol version. Every frame
// carries it; a mismatch anywhere fails the campaign loudly — merging
// bytes produced by a different protocol would silently corrupt results.
const ProtocolVersion = 1

// maxFrame bounds a single frame; a corrupt length prefix must not make
// a reader attempt a multi-gigabyte allocation.
const maxFrame = 64 << 20

// frameChunk is the most ReadFrame reserves for a body before any of it
// has arrived.
const frameChunk = 64 << 10

// Frame types.
const (
	// TypeInit carries the opaque campaign spec, coordinator → worker,
	// exactly once per worker at startup.
	TypeInit = "init"
	// TypeReady acknowledges a successful init, worker → coordinator.
	TypeReady = "ready"
	// TypeShard carries one wire plan, coordinator → worker.
	TypeShard = "shard"
	// TypeResult carries one shard's encoded profiles, worker → coordinator.
	TypeResult = "result"
	// TypeError reports a fatal worker-side failure, worker → coordinator.
	TypeError = "error"
	// TypeShutdown asks the worker to exit cleanly, coordinator → worker.
	TypeShutdown = "shutdown"
	// TypeTelemetry carries a worker's drained obs.Telemetry (spans and
	// counter deltas), worker → coordinator, immediately before the shard's
	// result frame. Telemetry frames are observational only: they carry no
	// Digest, are excluded from PayloadDigest and the campaign digest by
	// construction (neither covers them), and are only ever sent when the
	// coordinator asked for them in the init frame — so an obs-off campaign
	// sees a byte-identical frame sequence to every earlier protocol
	// version.
	TypeTelemetry = "telemetry"
)

// Frame is the single message envelope of the worker protocol.
type Frame struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	// Spec is the opaque campaign spec (init frames).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Plan is the dispatched shard (shard frames).
	Plan *pipeline.Plan `json:"plan,omitempty"`
	// Index, Payload and Digest describe a finished shard (result
	// frames): the plan index, the canonical pipeline.EncodeProfiles
	// payload and its pipeline.PayloadDigest.
	Index   int    `json:"index,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	Digest  string `json:"digest,omitempty"`
	// Err is the failure description (error frames).
	Err string `json:"err,omitempty"`
	// Obs asks the worker to collect and ship telemetry (init frames).
	// It rides the frame envelope, NOT the campaign spec: the spec bytes
	// feed CampaignDigest and the journals, and toggling observability
	// must never change a campaign's identity.
	Obs bool `json:"obs,omitempty"`
}

// WriteFrame serializes one frame as a 4-byte big-endian length prefix
// followed by the frame's JSON encoding.
func WriteFrame(w io.Writer, f Frame) error {
	f.V = ProtocolVersion
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("fabric: encoding %s frame: %w", f.Type, err)
	}
	if len(data) > maxFrame {
		return fmt.Errorf("fabric: %s frame of %d bytes exceeds the %d-byte limit", f.Type, len(data), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("fabric: writing %s frame: %w", f.Type, err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("fabric: writing %s frame: %w", f.Type, err)
	}
	return nil
}

// ReadFrame reads and validates one frame. The protocol version is
// checked here, at the lowest layer, so no higher layer can ever act on
// a frame from an incompatible peer.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err // io.EOF propagates untouched: it means "peer gone"
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return Frame{}, fmt.Errorf("fabric: frame length %d outside (0, %d]", n, maxFrame)
	}
	// Read the body in chunks that double up to the declared length, so
	// a header that declares a huge frame costs about the bytes the peer
	// actually sends; a frame up to frameChunk is one read, as before.
	data := make([]byte, 0, min(n, frameChunk))
	for uint32(len(data)) < n {
		data = slices.Grow(data, min(int(n)-len(data), len(data)))
		k, err := io.ReadFull(r, data[len(data):min(int(n), cap(data))])
		data = data[:len(data)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, fmt.Errorf("fabric: truncated frame: %w", err)
		}
	}
	var f Frame
	if err := json.Unmarshal(data, &f); err != nil {
		return Frame{}, fmt.Errorf("fabric: corrupt frame: %w", err)
	}
	if f.V != ProtocolVersion {
		return Frame{}, fmt.Errorf("fabric: protocol version %d, want %d — coordinator and shardworker binaries are out of sync", f.V, ProtocolVersion)
	}
	return f, nil
}
