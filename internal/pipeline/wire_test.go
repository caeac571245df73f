package pipeline

// Property tests for the fabric wire encoding: the shard-plan and
// shard-result serializations must be canonical (encode∘decode∘encode is
// the identity on bytes) and lossless (decoded values bit-equal), over
// randomized inputs from a seeded generator — the foundation the
// processes=1 ≡ processes=N guarantee rests on.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/tensor"
)

// randomPlan draws a plan with adversarial field values (negatives, zero,
// extremes) — the wire form must survive all of them.
func randomPlan(rng *rand.Rand) Plan {
	pick := func(extremes ...int) int {
		switch rng.Intn(4) {
		case 0:
			return extremes[rng.Intn(len(extremes))]
		default:
			return rng.Intn(1 << 20)
		}
	}
	return Plan{
		Index: pick(0, -1, math.MaxInt32),
		Class: pick(0, -7, 255),
		Start: pick(0, 1, math.MaxInt32),
		Count: pick(0, 1, 50),
		Seed:  rng.Int63() - rng.Int63(),
	}
}

func TestPlanWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 500; i++ {
		p := randomPlan(rng)
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var dec Plan
		if err := json.Unmarshal(enc, &dec); err != nil {
			t.Fatal(err)
		}
		if dec != p {
			t.Fatalf("plan round trip lost data: %+v -> %+v", p, dec)
		}
		re, err := json.Marshal(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("plan encoding not canonical:\n%s\n%s", enc, re)
		}
	}
}

// randomProfile draws event subsets and float64 values spanning the
// range real counters produce (large magnitudes, fractions from counter
// scaling, exact zeros) plus denormal-ish extremes.
func randomProfile(rng *rand.Rand) hpc.Profile {
	events := march.ExtendedEvents()
	p := hpc.Profile{}
	n := 1 + rng.Intn(len(events))
	perm := rng.Perm(len(events))
	for _, idx := range perm[:n] {
		var v float64
		switch rng.Intn(5) {
		case 0:
			v = 0
		case 1:
			v = float64(rng.Uint64() >> 11) // large integer-valued counts
		case 2:
			v = rng.Float64() * 1e12 // scaled counts with fractional bits
		case 3:
			v = math.Nextafter(rng.Float64(), 2) // awkward mantissas
		default:
			v = float64(rng.Intn(1e6)) + rng.Float64()
		}
		p[events[idx]] = v
	}
	return p
}

func TestProfilesWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		profs := make([]hpc.Profile, rng.Intn(6))
		for j := range profs {
			profs[j] = randomProfile(rng)
		}
		enc, err := EncodeProfiles(profs)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeProfiles(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, profs) {
			t.Fatalf("profiles round trip lost data:\n%v\n%v", profs, dec)
		}
		re, err := EncodeProfiles(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("profile encoding not canonical:\n%s\n%s", enc, re)
		}
	}
}

func TestEncodeProfilesEmpty(t *testing.T) {
	enc, err := EncodeProfiles(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeProfiles(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("empty round trip produced %d profiles", len(dec))
	}
}

func TestDecodeProfilesRejectsUnknownEvent(t *testing.T) {
	if _, err := DecodeProfiles([]byte(`[{"no-such-counter": 1}]`)); err == nil {
		t.Fatal("unknown event name decoded silently")
	}
	if _, err := DecodeProfiles([]byte(`{"not":"an array"}`)); err == nil {
		t.Fatal("malformed payload decoded silently")
	}
}

func TestPlanOfShardRoundTrip(t *testing.T) {
	pool := []*tensor.Tensor{tensor.New(1, 2, 2)}
	sh := core.Shard{Index: 3, Class: 7, Pool: pool, Start: 50, Count: 25, Seed: -12345}
	got := PlanOf(sh).Shard(pool)
	if !reflect.DeepEqual(got, sh) {
		t.Fatalf("Plan/Shard round trip: %+v != %+v", got, sh)
	}
}

func TestPayloadDigestStable(t *testing.T) {
	a := PayloadDigest([]byte("payload"))
	b := PayloadDigest([]byte("payload"))
	c := PayloadDigest([]byte("payloae"))
	if a != b {
		t.Fatal("digest not deterministic")
	}
	if a == c {
		t.Fatal("digest ignores content")
	}
	if len(a) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(a))
	}
}

// FuzzDecodeProfiles: a worker payload is untrusted bytes off a pipe or
// socket. Any input must either fail to decode or decode to profiles
// whose canonical re-encoding is a fixed point: decoding and
// re-encoding it reproduces the same bytes and the same profiles.
func FuzzDecodeProfiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		profs, err := DecodeProfiles(payload)
		if err != nil {
			return
		}
		enc, err := EncodeProfiles(profs)
		if err != nil {
			t.Fatalf("decoded profiles do not re-encode: %v", err)
		}
		again, err := DecodeProfiles(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(again, profs) {
			t.Fatalf("canonical round trip changed the profiles:\n%v\n%v", profs, again)
		}
		re, err := EncodeProfiles(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, re)
		}
	})
}
