package pipeline

// Wire encoding for the distributed audit fabric: shard plans and shard
// results serialized canonically, so a coordinator can dispatch the
// already-self-contained shard units to worker *processes* and merge the
// returned bytes with the same determinism guarantee the in-process
// pipeline gives. Two properties carry the whole design:
//
//   - a Plan is pool-free: (class, start, count, seed) plus the campaign
//     configuration the worker was initialized with fully determine the
//     shard's observations, so no image data ever crosses the wire;
//   - profiles are encoded canonically (JSON objects keyed by event name —
//     encoding/json sorts map keys — and float64 values printed in Go's
//     shortest round-trip form), so encode∘decode∘encode is the identity
//     on bytes and a result digest is well-defined.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/tensor"
)

// Plan is the wire form of one shard: the self-contained unit of
// distribution. It omits the image pool — workers rebuild pools from the
// campaign spec they were initialized with — and carries everything else
// core.Shard does, so Plan(shard).Shard(pool) round-trips exactly.
type Plan struct {
	// Index is the shard's position in the deterministic plan order; the
	// coordinator merges results by it, never by arrival order.
	Index int `json:"index"`
	// Class is the category label whose runs this shard measures.
	Class int `json:"class"`
	// Start is the first measured run index within the class.
	Start int `json:"start"`
	// Count is the number of measured runs.
	Count int `json:"count"`
	// Seed is the shard's derived RNG seed; the worker builds a fresh
	// target from it, so observations are identical in any process.
	Seed int64 `json:"seed"`
}

// PlanOf strips a planned shard to its wire form.
func PlanOf(sh core.Shard) Plan {
	return Plan{Index: sh.Index, Class: sh.Class, Start: sh.Start, Count: sh.Count, Seed: sh.Seed}
}

// Shard rehydrates the plan with a class pool into an executable shard.
func (p Plan) Shard(pool []*tensor.Tensor) core.Shard {
	return core.Shard{Index: p.Index, Class: p.Class, Pool: pool, Start: p.Start, Count: p.Count, Seed: p.Seed}
}

// EncodeProfiles serializes per-run profiles into the canonical wire
// payload: a JSON array of objects keyed by event name. The encoding is
// byte-deterministic (sorted keys, shortest round-trip floats), so equal
// observations always produce equal payloads and digests.
func EncodeProfiles(profs []hpc.Profile) ([]byte, error) {
	out := make([]map[string]float64, len(profs))
	for i, p := range profs {
		m := make(map[string]float64, len(p))
		for e, v := range p {
			m[e.String()] = v
		}
		out[i] = m
	}
	return json.Marshal(out)
}

// DecodeProfiles parses a wire payload back into per-run profiles.
// Unknown event names fail loudly: silently dropping a counter would
// corrupt the merged feature vectors.
func DecodeProfiles(payload []byte) ([]hpc.Profile, error) {
	var raw []map[string]float64
	if err := json.Unmarshal(payload, &raw); err != nil {
		return nil, fmt.Errorf("pipeline: decoding shard payload: %w", err)
	}
	profs := make([]hpc.Profile, len(raw))
	for i, m := range raw {
		p := make(hpc.Profile, len(m))
		for name, v := range m {
			e, err := march.ParseEvent(name)
			if err != nil {
				return nil, fmt.Errorf("pipeline: shard payload run %d: %w", i, err)
			}
			p[e] = v
		}
		profs[i] = p
	}
	return profs, nil
}

// PayloadDigest is the canonical digest of an encoded shard result
// (sha256 hex) — what the completion journal records and verifies.
func PayloadDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// WirePlans plans the campaign's shards (exactly as
// CollectProfilesByClass and Stream do — all paths share planShards) and
// returns their wire form, in plan order.
func (p *Pipeline) WirePlans(perClass map[int][]*tensor.Tensor) ([]Plan, error) {
	shards, err := p.planShards(perClass)
	if err != nil {
		return nil, err
	}
	return plansOf(shards), nil
}

// plansOf strips shards to their wire form, keeping their order.
func plansOf(shards []core.Shard) []Plan {
	plans := make([]Plan, len(shards))
	for i, sh := range shards {
		plans[i] = PlanOf(sh)
	}
	return plans
}

// placeProfiles is the one profile-placement routine of the package: a
// shard's per-run profiles land at their (class, start) offsets in
// byClass, independent of completion order. Both the in-process merge
// (CollectProfilesByClass) and the fabric merge (MergeEncoded) go
// through it, so the two substrates cannot drift in merge semantics.
func (p *Pipeline) placeProfiles(byClass map[int][]hpc.Profile, pl Plan, profs []hpc.Profile) error {
	runs := p.ev.Config().RunsPerClass
	if len(profs) != pl.Count {
		return fmt.Errorf("pipeline: shard %d has %d profiles, want %d", pl.Index, len(profs), pl.Count)
	}
	if pl.Start+pl.Count > runs {
		return fmt.Errorf("pipeline: shard %d runs [%d,%d) exceed %d runs per class",
			pl.Index, pl.Start, pl.Start+pl.Count, runs)
	}
	if byClass[pl.Class] == nil {
		byClass[pl.Class] = make([]hpc.Profile, runs)
	}
	copy(byClass[pl.Class][pl.Start:pl.Start+pl.Count], profs)
	return nil
}

// MergeEncoded decodes per-shard result payloads (payloads[i] belongs to
// plans[i]) and merges them into the labelled per-run profiles,
// byClass[class][run] — the exact placement CollectProfilesByClass
// performs (both call placeProfiles) and therefore independent of
// completion order.
func (p *Pipeline) MergeEncoded(plans []Plan, payloads [][]byte) (map[int][]hpc.Profile, error) {
	if len(plans) != len(payloads) {
		return nil, fmt.Errorf("pipeline: %d plans but %d payloads", len(plans), len(payloads))
	}
	byClass := map[int][]hpc.Profile{}
	for i, pl := range plans {
		if payloads[i] == nil {
			return nil, fmt.Errorf("pipeline: missing payload for shard %d", pl.Index)
		}
		profs, err := DecodeProfiles(payloads[i])
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d: %w", pl.Index, err)
		}
		if err := p.placeProfiles(byClass, pl, profs); err != nil {
			return nil, err
		}
	}
	return byClass, nil
}
