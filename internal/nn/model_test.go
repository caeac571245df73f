package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// mnistBlob is the canonical encoding of a freshly built MNIST network.
func mnistBlob(t testing.TB) []byte {
	t.Helper()
	n, err := Build(MNISTArch(), testRNG())
	if err != nil {
		t.Fatal(err)
	}
	return EncodeModel(MNISTArch(), n)
}

// oversizedArchBlob is a well-formed header whose architecture implies a
// multi-gigabyte tensor.
func oversizedArchBlob() []byte {
	le := binary.LittleEndian
	b := append([]byte(modelMagic), le.AppendUint32(nil, modelVersion)...)
	b = appendModelString(b, "huge")
	for _, d := range []uint32{4096, 4096, 64, 4096, 4096, 3, 4096} {
		b = le.AppendUint32(b, d)
	}
	return le.AppendUint32(b, 6)
}

// TestModelRoundTripDuplicateLayerNames: two conv layers with the same
// kernel and channel count share a layer name, and both must survive a
// save/load round trip with every parameter bit intact.
func TestModelRoundTripDuplicateLayerNames(t *testing.T) {
	arch := Arch{InH: 12, InW: 12, InC: 8, Conv1: 8, Conv2: 8, Kernel: 3, Classes: 10}
	n, err := Build(arch, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	ps := n.Params()
	if ps[0].Name != ps[2].Name {
		t.Fatalf("fixture has distinct conv names %q and %q; it must collide", ps[0].Name, ps[2].Name)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, n); err != nil {
		t.Fatal(err)
	}
	_, n2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range n2.Params() {
		for j, v := range p.Value.Data {
			if v != ps[i].Value.Data[j] {
				t.Fatalf("param %d (%s) value %d: %v after round trip, want %v", i, p.Name, j, v, ps[i].Value.Data[j])
			}
		}
	}
}

// TestEncodeModelDeterministic: one network always encodes to the same
// bytes, and encode∘decode∘encode is the identity on them.
func TestEncodeModelDeterministic(t *testing.T) {
	for _, arch := range []Arch{MNISTArch(), CIFARArch()} {
		n, err := Build(arch, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if total, _ := arch.tensorSizes(); total != n.ParamCount() {
			t.Fatalf("%s: tensorSizes counts %d parameters, Build made %d", arch.Name, total, n.ParamCount())
		}
		b1, b2 := EncodeModel(arch, n), EncodeModel(arch, n)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: two encodes of one network differ", arch.Name)
		}
		a, n2, err := DecodeModel(b1)
		if err != nil {
			t.Fatal(err)
		}
		if a != arch {
			t.Fatalf("%s: decoded arch %+v", arch.Name, a)
		}
		if !bytes.Equal(EncodeModel(a, n2), b1) {
			t.Fatalf("%s: encode∘decode∘encode changed the bytes", arch.Name)
		}
	}
}

// TestDecodeModelRejectsMalformed: every malformed fuzz seed fails with
// an error naming what is wrong.
func TestDecodeModelRejectsMalformed(t *testing.T) {
	blob := mnistBlob(t)
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"truncated", "truncated", blob[:len(blob)/2]},
		{"bad magic", "bad magic", append([]byte("XNNMODEL"), blob[8:]...)},
		{"trailing", "trailing", append(append([]byte(nil), blob...), 0)},
		{"oversized arch", "bound", oversizedArchBlob()},
		{"empty", "bad magic", nil},
	} {
		if _, _, err := DecodeModel(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeModel: arbitrary bytes decode to a network or an error,
// never a panic or an allocation past the size bound, and whatever
// decodes re-encodes to exactly its input.
func FuzzDecodeModel(f *testing.F) {
	blob := mnistBlob(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(append([]byte("XNNMODEL"), blob[8:]...))
	f.Add(append(append([]byte(nil), blob...), 0))
	f.Add(oversizedArchBlob())
	f.Fuzz(func(t *testing.T, b []byte) {
		a, n, err := DecodeModel(b)
		if err != nil {
			return
		}
		if got := EncodeModel(a, n); !bytes.Equal(got, b) {
			t.Fatalf("re-encoding a decoded model changed its %d bytes (now %d)", len(b), len(got))
		}
	})
}
