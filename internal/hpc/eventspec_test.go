package hpc

import (
	"slices"
	"testing"

	"repro/internal/march"
)

func TestParseEventSpecNamedSets(t *testing.T) {
	base, err := ParseEventSpec("base")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || base[0] != march.EvCacheMisses || base[1] != march.EvBranches {
		t.Fatalf("base = %v", base)
	}
	fig, err := ParseEventSpec("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig) != len(march.AllEvents()) {
		t.Fatalf("fig2b has %d events, want %d", len(fig), len(march.AllEvents()))
	}
	ext, err := ParseEventSpec("extended")
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != march.NumEvents {
		t.Fatalf("extended has %d events, want %d", len(ext), march.NumEvents)
	}
}

func TestParseEventSpecCommaList(t *testing.T) {
	evs, err := ParseEventSpec("cycles, instructions")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0] != march.EvCycles || evs[1] != march.EvInstructions {
		t.Fatalf("list = %v", evs)
	}
	if _, err := ParseEventSpec("no-such-event"); err == nil {
		t.Fatal("unknown event accepted")
	}
	if _, err := ParseEventSpec(""); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// FuzzParseEventSpec: ParseEventSpec never panics, and a spec it accepts
// is a non-empty list of distinct events, each of which re-parses from
// its printed name.
func FuzzParseEventSpec(f *testing.F) {
	for _, s := range []string{
		"base", "fig2b", "extended",
		"cycles, instructions", " cache-misses ,branches ",
		"", " , ", "no-such-event",
		"branches,cycles,instructions,cache-misses,bus-cycles,ref-cycles,branches",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := ParseEventSpec(s)
		if err != nil {
			return
		}
		if len(evs) == 0 {
			t.Fatalf("ParseEventSpec(%q) accepted an empty list", s)
		}
		for i, e := range evs {
			if slices.Contains(evs[:i], e) {
				t.Fatalf("ParseEventSpec(%q) = %v lists %s twice", s, evs, e)
			}
			back, err := ParseEventSpec(e.String())
			if err != nil || len(back) != 1 || back[0] != e {
				t.Fatalf("event %s from %q re-parses as %v, %v", e, s, back, err)
			}
		}
	})
}
