package fabric

// The shard-completion journal: an append-only JSONL file recording each
// finished shard's index, result digest and payload. A campaign that
// crashes — coordinator or worker, mid-shard or mid-write — resumes by
// loading the journal's valid prefix and re-running only the shards that
// are missing or whose trailing record was torn. Because shard payloads
// are canonical bytes, replaying a journaled shard is indistinguishable
// from re-measuring it, so resumed campaigns stay byte-identical to
// clean runs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/pipeline"
)

// journalHeader is the first line of every journal, binding the file to
// one campaign. Resuming against a journal written for a different
// campaign spec would merge foreign bytes; the digest check turns that
// into a fresh start instead.
type journalHeader struct {
	V        int    `json:"v"`
	Campaign string `json:"campaign"`
}

// journalEntry is one completed shard.
type journalEntry struct {
	V      int    `json:"v"`
	Shard  int    `json:"shard"`
	Digest string `json:"digest"`
	// Payload is the shard's canonical result payload. JSON []byte is
	// base64-encoded on disk, keeping each record a single line.
	Payload []byte `json:"payload"`
}

// Journal is the append-only completion log for one campaign.
type Journal struct {
	mu       sync.Mutex
	path     string
	campaign string
	f        *os.File
	done     map[int][]byte // shard index → payload, the loaded valid prefix
}

// OpenJournal opens (or creates) the journal at path for the campaign
// with the given digest. If the file already holds a valid prefix for
// this campaign, those completions are loaded and will be served from
// Payload instead of re-executed; a torn or corrupt tail is truncated
// away so only the affected shard re-runs. A journal for a different
// campaign digest is discarded and started fresh.
func OpenJournal(path, campaign string) (*Journal, error) {
	j := &Journal{path: path, campaign: campaign, done: map[int][]byte{}}
	keep, err := j.loadValidPrefix()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: opening journal %s: %w", path, err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: truncating journal %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: seeking journal %s: %w", path, err)
	}
	j.f = f
	if keep == 0 {
		// Fresh (or reset) journal: write the campaign-binding header.
		j.done = map[int][]byte{}
		hdr, err := json.Marshal(journalHeader{V: ProtocolVersion, Campaign: campaign})
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := j.writeLine(hdr); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// loadValidPrefix scans the existing file and returns the byte offset of
// the end of its valid prefix, populating j.done along the way. Any line
// that fails to parse, fails its digest check, or follows a wrong-
// campaign header invalidates itself and everything after it.
func (j *Journal) loadValidPrefix() (int64, error) {
	data, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("fabric: reading journal %s: %w", j.path, err)
	}
	var offset int64
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), maxFrame)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		// A final line without a trailing newline is a torn write:
		// everything up to the previous record survives, this line does not.
		end := offset + int64(len(line)) + 1
		if end > int64(len(data)) {
			break
		}
		if first {
			var hdr journalHeader
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.V != ProtocolVersion || hdr.Campaign != j.campaign {
				return 0, nil // foreign or unreadable journal: start fresh
			}
			first = false
			offset = end
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			break
		}
		if e.V != ProtocolVersion || e.Shard < 0 || e.Digest != pipeline.PayloadDigest(e.Payload) {
			break
		}
		j.done[e.Shard] = e.Payload
		offset = end
	}
	if first {
		return 0, nil
	}
	return offset, nil
}

func (j *Journal) writeLine(line []byte) error {
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("fabric: appending to journal %s: %w", j.path, err)
	}
	return j.f.Sync()
}

// Payload returns the journaled result for a shard, if one survived the
// valid-prefix load.
func (j *Journal) Payload(index int) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.done[index]
	return p, ok
}

// Append records a completed shard. The record is synced before Append
// returns, so a completion acknowledged here survives any later crash.
func (j *Journal) Append(index int, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.done[index]; ok {
		return nil // duplicate completion (e.g. re-dispatch race): keep first
	}
	line, err := json.Marshal(journalEntry{
		V:       ProtocolVersion,
		Shard:   index,
		Digest:  pipeline.PayloadDigest(payload),
		Payload: payload,
	})
	if err != nil {
		return err
	}
	if err := j.writeLine(line); err != nil {
		return err
	}
	j.done[index] = payload
	return nil
}

// Close closes the underlying file. The journal is left on disk — it is
// the campaign's resume state, deleted only by the caller once the
// campaign has fully succeeded.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
