package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeInit, Spec: json.RawMessage(`{"stage":"report"}`)},
		{Type: TypeReady},
		{Type: TypeShard, Plan: &pipeline.Plan{Index: 3, Class: 1, Start: 6, Count: 6, Seed: -42}},
		{Type: TypeResult, Index: 3, Payload: []byte(`[{"x":1}]`), Digest: "abc"},
		{Type: TypeError, Err: "boom"},
		{Type: TypeShutdown},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Err != want.Err || got.Index != want.Index ||
			got.Digest != want.Digest || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame round trip: got %+v want %+v", got, want)
		}
		if want.Plan != nil && (got.Plan == nil || *got.Plan != *want.Plan) {
			t.Fatalf("plan round trip: got %+v want %+v", got.Plan, want.Plan)
		}
		if got.V != ProtocolVersion {
			t.Fatalf("frame version %d, want %d", got.V, ProtocolVersion)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream returned %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsVersionMismatch(t *testing.T) {
	// Hand-build a frame claiming a future protocol version; WriteFrame
	// cannot produce one, which is the point.
	data, err := json.Marshal(Frame{V: ProtocolVersion + 1, Type: TypeReady})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	buf.Write(hdr[:])
	buf.Write(data)
	_, err = ReadFrame(&buf)
	if err == nil {
		t.Fatal("version-mismatched frame accepted silently")
	}
	if !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("mismatch error does not name the protocol: %v", err)
	}
}

func TestReadFrameRejectsCorruptStream(t *testing.T) {
	// Truncated body.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Absurd length prefix must not trigger a giant allocation.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	buf.Write(hdr[:])
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Valid length, invalid JSON.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 4)
	buf.Write(hdr[:])
	buf.WriteString("{{{{")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("corrupt JSON frame accepted")
	}
}

// TestReadFrameShortBodyAllocatesLittle sends a header that declares a
// ~64 MiB frame followed by one byte: the reader must fail "truncated
// frame" having allocated about what arrived, not what was declared.
func TestReadFrameShortBodyAllocatesLittle(t *testing.T) {
	in := []byte{0x03, 0xff, 0xff, 0xff, '{'}
	_, err := ReadFrame(bytes.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("short body: err = %v, want a truncated frame", err)
	}
	if got := readFrameAlloc(in, 1<<20-1); got >= 1<<20 {
		t.Fatalf("reading a 5-byte stream allocated %d bytes, want under 1 MiB", got)
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes. The
// runtime/metrics read does not stop the world, unlike ReadMemStats.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readFrameAlloc is the heap allocation across one ReadFrame of b. The
// counter is process-wide, so a goroutine left running by another test
// can add to one reading; when a reading exceeds bound it is repeated,
// and the least of three is returned. ReadFrame's own allocation is the
// same on every repeat, so only an allocation that is really its own
// keeps all three above the bound.
func readFrameAlloc(b []byte, bound uint64) uint64 {
	least := ^uint64(0)
	for range 3 {
		before := heapAllocs()
		ReadFrame(bytes.NewReader(b))
		least = min(least, heapAllocs()-before)
		if least <= bound {
			break
		}
	}
	return least
}

// frameBytes is one frame's wire encoding.
func frameBytes(t testing.TB, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame: arbitrary bytes on a worker transport give a frame or
// an error, never a panic, and a frame that reads is one of this
// protocol version. Reading allocates in proportion to the bytes the
// peer actually sent, whatever length its header declares: at most
// 2×len(input) + 1 MiB across the call.
func FuzzReadFrame(f *testing.F) {
	shard := frameBytes(f, Frame{Type: TypeShard, Plan: &pipeline.Plan{Index: 3, Class: 1, Start: 6, Count: 6, Seed: -42}})
	f.Add(frameBytes(f, Frame{Type: TypeInit, Spec: json.RawMessage(`{"stage":"report"}`)}))
	f.Add(shard)
	f.Add(frameBytes(f, Frame{Type: TypeResult, Index: 3, Payload: []byte(`[{"x":1}]`), Digest: "abc"}))
	f.Add(shard[:len(shard)-3])                     // truncated body
	f.Add([]byte{0, 0, 0, 0})                       // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'}) // length past maxFrame
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, '{'})      // declares ~64 MiB, sends 1 byte
	f.Add(append([]byte{0, 0, 0, 16}, `{"v":9,"type":1}`...))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := ReadFrame(bytes.NewReader(b))
		if err == nil && fr.V != ProtocolVersion {
			t.Fatalf("ReadFrame returned a version-%d frame", fr.V)
		}
		bound := uint64(2*len(b) + 1<<20)
		if got := readFrameAlloc(b, bound); got > bound {
			t.Fatalf("reading %d bytes allocated %d, want at most %d", len(b), got, bound)
		}
	})
}
