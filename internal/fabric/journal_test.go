package fabric

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureCampaign matches the campaign digest baked into the testdata
// fixtures: CampaignDigest([]byte("spec-bytes")).
const fixtureCampaign = "a4679a4ff0ee30b04d6e0e8f1ef926c65052d2faac3c609656e10fbea45852ed"

// copyFixture copies a testdata journal into a temp dir — OpenJournal
// truncates and appends, and fixtures must stay pristine.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalFixtureDigest(t *testing.T) {
	if got := CampaignDigest([]byte("spec-bytes")); got != fixtureCampaign {
		t.Fatalf("fixture campaign digest drifted: %s", got)
	}
}

func TestJournalLoadsValidFixture(t *testing.T) {
	j, err := OpenJournal(copyFixture(t, "valid.journal"), fixtureCampaign)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.done) != 2 {
		t.Fatalf("loaded %d completions, want 2", len(j.done))
	}
	for i, want := range []string{"hello", "world"} {
		p, ok := j.Payload(i)
		if !ok || string(p) != want {
			t.Fatalf("shard %d payload = %q, %v; want %q", i, p, ok, want)
		}
	}
}

func TestJournalTruncatesCorruptTail(t *testing.T) {
	path := copyFixture(t, "corrupt-tail.journal")
	j, err := OpenJournal(path, fixtureCampaign)
	if err != nil {
		t.Fatal(err)
	}
	// Only the torn final record is lost; the clean prefix survives.
	if len(j.done) != 1 {
		t.Fatalf("loaded %d completions, want 1", len(j.done))
	}
	if _, ok := j.Payload(1); ok {
		t.Fatal("corrupt shard 1 record survived the load")
	}
	// The missing shard can be re-recorded, and a reopen then sees both.
	if err := j.Append(1, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, fixtureCampaign)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(j2.done) != 2 {
		t.Fatalf("after repair reopen loaded %d completions, want 2", len(j2.done))
	}
}

func TestJournalRejectsForeignCampaign(t *testing.T) {
	path := copyFixture(t, "valid.journal")
	other := CampaignDigest([]byte("a different campaign"))
	j, err := OpenJournal(path, other)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.done) != 0 {
		t.Fatalf("foreign journal yielded %d completions, want 0", len(j.done))
	}
	if err := j.Append(0, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The file was reset to the new campaign; the old entries are gone.
	j2, err := OpenJournal(path, other)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(j2.done) != 1 {
		t.Fatalf("reset journal reopened with %d completions, want 1", len(j2.done))
	}
	if p, ok := j2.Payload(0); !ok || string(p) != "fresh" {
		t.Fatalf("shard 0 payload = %q, %v; want %q", p, ok, "fresh")
	}
}

func TestJournalDigestMismatchInvalidatesSuffix(t *testing.T) {
	path := copyFixture(t, "valid.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the shard-1 record: its digest no longer
	// matches, so the record (and everything after) must be dropped.
	tampered := strings.Replace(string(data), `"payload":"d29ybGQ="`, `"payload":"d29yBGQ="`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found in fixture")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, fixtureCampaign)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.done) != 1 {
		t.Fatalf("tampered journal yielded %d completions, want 1", len(j.done))
	}
	if _, ok := j.Payload(1); ok {
		t.Fatal("digest-mismatched record survived")
	}
}

func TestJournalAppendDuplicateKeepsFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.journal")
	camp := CampaignDigest([]byte("dup"))
	j, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(7, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if p, _ := j.Payload(7); string(p) != "first" {
		t.Fatalf("duplicate append overwrote payload: %q", p)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(j2.done) != 1 {
		t.Fatalf("duplicate append left %d records, want 1", len(j2.done))
	}
}

func TestJournalFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.journal")
	camp := CampaignDigest([]byte("fresh"))
	j, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.done) != 0 {
		t.Fatalf("fresh journal has %d completions", len(j.done))
	}
	if err := j.Append(0, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, camp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if p, ok := j2.Payload(0); !ok || string(p) != "zero" {
		t.Fatalf("reopen lost shard 0: %q, %v", p, ok)
	}
}

// FuzzJournalLoad: whatever a journal file holds, OpenJournal either
// fails or keeps a valid prefix of it (or starts the file fresh), and
// reopening the repaired file loads the same completions and leaves it
// unchanged.
func FuzzJournalLoad(f *testing.F) {
	for _, name := range []string{"valid.journal", "corrupt-tail.journal"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(bytes.Replace(data, []byte("aGVsbG8="), []byte("aGVsbG9="), 1)) // digest mismatch
	}
	f.Add([]byte(nil))
	f.Add([]byte(`{"v":1,"campaign":"` + fixtureCampaign + `"}` + "\n"))
	f.Add([]byte(`{"v":1,"campaign":"someone-else"}` + "\n" + `{"v":1,"shard":0}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, fixtureCampaign)
		if err != nil {
			return
		}
		done := len(j.done)
		j.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := json.Marshal(journalHeader{V: ProtocolVersion, Campaign: fixtureCampaign})
		if !bytes.HasPrefix(data, kept) && !bytes.Equal(kept, append(fresh, '\n')) {
			t.Fatalf("repaired journal is neither a prefix of its input nor a fresh one: %q", kept)
		}
		j2, err := OpenJournal(path, fixtureCampaign)
		if err != nil {
			t.Fatalf("reopening a repaired journal: %v", err)
		}
		defer j2.Close()
		if len(j2.done) != done {
			t.Fatalf("reopen loaded %d completions, first open %d", len(j2.done), done)
		}
		again, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(again, kept) {
			t.Fatalf("reopening changed the repaired journal (%v)", err)
		}
	})
}
