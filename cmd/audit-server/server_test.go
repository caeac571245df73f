package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// newTestServer builds a server around run and an httptest front-end.
func newTestServer(t *testing.T, run runFunc) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(run)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postCampaign(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /campaigns: %v", err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// waitState polls GET /campaigns/<id> until the campaign reaches want.
func waitState(t *testing.T, ts *httptest.Server, id int, want campaignState) campaign {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/campaigns/%d", ts.URL, id))
		if err != nil {
			t.Fatalf("GET campaign %d: %v", id, err)
		}
		var c campaign
		decodeBody(t, resp, &c)
		if c.State == want {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %d stuck in %q, want %q", id, c.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

const validBody = `{"stage":"report","scenario":{"dataset":"mnist","defense":"baseline"}}`

func TestServerQueuesAndServesReport(t *testing.T) {
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"stage":%q,"ok":true}`, req.Stage)), nil
	})

	resp := postCampaign(t, ts, validBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	var ack struct {
		ID    int           `json:"id"`
		State campaignState `json:"state"`
	}
	decodeBody(t, resp, &ack)
	if ack.ID != 1 || ack.State != stateQueued {
		t.Fatalf("ack = %+v, want id 1 queued", ack)
	}

	c := waitState(t, ts, ack.ID, stateDone)
	var compact bytes.Buffer
	if err := json.Compact(&compact, c.Report); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if compact.String() != `{"stage":"report","ok":true}` {
		t.Fatalf("report = %s", c.Report)
	}
	if c.Error != "" {
		t.Fatalf("unexpected error %q", c.Error)
	}
}

func TestServerRunsCampaignsSequentiallyInOrder(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	running := 0
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		mu.Lock()
		running++
		if running > 1 {
			mu.Unlock()
			return nil, fmt.Errorf("overlapping campaigns")
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		running--
		ran = append(ran, req.Stage)
		mu.Unlock()
		return json.RawMessage(`{}`), nil
	})

	stages := []string{repro.StageReport, repro.StageAttack, repro.StageArchID, repro.StageTopo}
	var lastID int
	for _, st := range stages {
		resp := postCampaign(t, ts, fmt.Sprintf(`{"stage":%q,"scenario":{"dataset":"mnist","defense":"baseline"}}`, st))
		var ack struct {
			ID int `json:"id"`
		}
		decodeBody(t, resp, &ack)
		lastID = ack.ID
	}
	waitState(t, ts, lastID, stateDone)

	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(ran) != fmt.Sprint(stages) {
		t.Fatalf("ran %v, want FIFO %v", ran, stages)
	}
}

func TestServerReportsCampaignFailure(t *testing.T) {
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		return nil, fmt.Errorf("synthetic campaign failure")
	})
	resp := postCampaign(t, ts, validBody)
	var ack struct {
		ID int `json:"id"`
	}
	decodeBody(t, resp, &ack)

	c := waitState(t, ts, ack.ID, stateFailed)
	if !strings.Contains(c.Error, "synthetic campaign failure") {
		t.Fatalf("error = %q", c.Error)
	}
	if len(c.Report) != 0 {
		t.Fatalf("failed campaign has a report: %s", c.Report)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		t.Error("run called for a rejected request")
		return nil, nil
	})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"stage":`},
		{"unknown field", `{"stage":"report","bogus":1}`},
		{"unknown stage", `{"stage":"exfiltrate","scenario":{"dataset":"mnist"}}`},
		{"missing dataset", `{"stage":"report","scenario":{}}`},
		// The process count is the server's -processes flag; a request
		// cannot set it.
		{"per-request processes", `{"stage":"report","scenario":{"dataset":"mnist","defense":"baseline"},"processes":4}`},
	}
	for _, tc := range cases {
		resp := postCampaign(t, ts, tc.body)
		var e struct {
			Error string `json:"error"`
		}
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
}

// TestServerRejectsUnrunnableCampaigns: a request naming an unknown
// defense, an unknown event or an event twice is refused with 400 at
// submission — it never reaches the worker, never takes a queue slot and
// never uses up a campaign id.
func TestServerRejectsUnrunnableCampaigns(t *testing.T) {
	var mu sync.Mutex
	var ran []CampaignRequest
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		mu.Lock()
		ran = append(ran, req)
		mu.Unlock()
		return json.RawMessage(`{}`), nil
	})
	cases := []struct {
		name, body, want string
	}{
		{"unknown defense", `{"stage":"report","scenario":{"dataset":"mnist","defense":"bogus"}}`, "unknown defense"},
		{"missing defense", `{"stage":"report","scenario":{"dataset":"mnist"}}`, "unknown defense"},
		{"unknown event", `{"stage":"report","scenario":{"dataset":"mnist","defense":"baseline"},"events":["nope"]}`, "nope"},
		{"unknown event in list", `{"stage":"attack","scenario":{"dataset":"mnist","defense":"baseline"},"events":["branches,nope"]}`, "nope"},
		{"event across entries", `{"stage":"report","scenario":{"dataset":"mnist","defense":"baseline"},"events":["base","cache-misses"]}`, "listed twice"},
		{"event within a list", `{"stage":"monitor","scenario":{"dataset":"mnist","defense":"baseline"},"events":["branches,branches"]}`, "listed twice"},
		{"shipped weights", `{"stage":"report","scenario":{"dataset":"mnist","defense":"baseline","net":"AAAA"}}`, "scenario.net"},
	}
	for _, tc := range cases {
		resp := postCampaign(t, ts, tc.body)
		var e errorJSON
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, e.Error, tc.want)
		}
	}

	// The rejected requests used up no id: the next valid submission is
	// campaign 1 and is the only campaign listed or run.
	resp := postCampaign(t, ts, `{"stage":"report","scenario":{"dataset":"mnist","defense":"baseline"},"events":["base","instructions"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid request status %d, want 202", resp.StatusCode)
	}
	var ack enqueuedJSON
	decodeBody(t, resp, &ack)
	if ack.ID != 1 {
		t.Fatalf("first accepted id = %d, want 1", ack.ID)
	}
	waitState(t, ts, ack.ID, stateDone)
	listResp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []campaign
	decodeBody(t, listResp, &list)
	if len(list) != 1 || list[0].ID != 1 {
		t.Fatalf("campaign list = %+v, want campaign 1 only", list)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 {
		t.Fatalf("worker ran %d campaigns, want 1", len(ran))
	}
}

func TestServerListsCampaignsAndHandles404(t *testing.T) {
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	var lastID int
	for i := 0; i < 3; i++ {
		resp := postCampaign(t, ts, validBody)
		var ack struct {
			ID int `json:"id"`
		}
		decodeBody(t, resp, &ack)
		lastID = ack.ID
	}
	waitState(t, ts, lastID, stateDone)

	resp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []campaign
	decodeBody(t, resp, &list)
	if len(list) != 3 {
		t.Fatalf("listed %d campaigns, want 3", len(list))
	}
	for i, c := range list {
		if c.ID != i+1 {
			t.Fatalf("list order %v, want submission order", list)
		}
	}

	resp, err = http.Get(ts.URL + "/campaigns/99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing campaign status = %d, want 404", resp.StatusCode)
	}
}

func TestResponseBytesMatchLegacyMapEncoding(t *testing.T) {
	// The enqueue ack and error envelope moved from bare map literals
	// (flagged by detlint's wiredigest analyzer) to the named enqueuedJSON
	// / errorJSON structs; their field order mirrors the sorted map keys,
	// so client-visible bytes must be unchanged.
	marshal := func(v any) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	got := marshal(enqueuedJSON{ID: 3, State: stateQueued})
	want := marshal(map[string]any{"id": 3, "state": stateQueued})
	if got != want {
		t.Errorf("enqueue ack drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	got = marshal(errorJSON{Error: "no campaign 9"})
	want = marshal(map[string]string{"error": "no campaign 9"})
	if got != want {
		t.Errorf("error envelope drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestServerProgressAndMetrics: the /progress endpoint serves a running
// campaign's live stage and shard counts straight off its recorder, and
// /metrics folds finished campaigns into the server-wide totals.
func TestServerProgressAndMetrics(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		rec.SetPhase("collect")
		rec.Add(obs.CShardsPlanned, 8)
		rec.Add(obs.CShardsDone, 3)
		close(started)
		<-release
		rec.Add(obs.CShardsDone, 5)
		return json.RawMessage(`{}`), nil
	})

	resp := postCampaign(t, ts, validBody)
	var ack enqueuedJSON
	decodeBody(t, resp, &ack)
	<-started

	getProgress := func() progressJSON {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/campaigns/%d/progress", ts.URL, ack.ID))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("progress status = %d, want 200", resp.StatusCode)
		}
		var p progressJSON
		decodeBody(t, resp, &p)
		return p
	}

	p := getProgress()
	if p.State != stateRunning || p.Phase != "collect" || p.ShardsDone != 3 || p.ShardsTotal != 8 {
		t.Fatalf("mid-campaign progress = %+v, want running/collect 3 of 8", p)
	}

	close(release)
	waitState(t, ts, ack.ID, stateDone)
	p = getProgress()
	if p.State != stateDone || p.ShardsDone != 8 || p.ShardsTotal != 8 {
		t.Fatalf("finished progress = %+v, want done 8 of 8", p)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q, want text/plain", ct)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := body.String()
	for _, want := range []string{"obs_shards_planned 8\n", "obs_shards_done 8\n", "obs_elapsed_ms "} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestServerProgressErrors: unknown campaigns and unknown sub-resources
// under /campaigns/<id>/ both 404.
func TestServerProgressErrors(t *testing.T) {
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	for _, path := range []string{"/campaigns/99/progress", "/campaigns/99", "/campaigns/1/bogus"} {
		resp := postCampaign(t, ts, validBody) // ensure campaign 1 exists for the bogus case
		resp.Body.Close()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServerMonitorStage: the monitor stage is accepted, its knobs reach
// the runner, and the served report surfaces the first-detection trace
// count — the number a fleet operator reads off the endpoint.
func TestServerMonitorStage(t *testing.T) {
	var got CampaignRequest
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		got = req
		return json.RawMessage(`{"name":"mnist/baseline","stopped":true,"detection":{"event_name":"cache-misses","traces":58},"traces_seen":58}`), nil
	})

	body := `{"stage":"monitor","scenario":{"dataset":"mnist","defense":"baseline"},"runs":60,"alpha":0.01,"tenants":2,"no_stop":false}`
	resp := postCampaign(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	var ack enqueuedJSON
	decodeBody(t, resp, &ack)
	c := waitState(t, ts, ack.ID, stateDone)

	if got.Stage != repro.StageMonitor || got.Runs != 60 || got.Alpha != 0.01 || got.Tenants != 2 {
		t.Fatalf("runner saw %+v, monitor knobs lost in transit", got)
	}
	var rep struct {
		Stopped   bool `json:"stopped"`
		Detection struct {
			Traces int `json:"traces"`
		} `json:"detection"`
	}
	if err := json.Unmarshal(c.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Stopped || rep.Detection.Traces != 58 {
		t.Fatalf("served report %s does not surface the detection trace count", c.Report)
	}
}

func TestServerRejectsOversizedRequest(t *testing.T) {
	_, ts := newTestServer(t, func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		t.Error("run called for an oversized request")
		return nil, nil
	})
	body := `{"stage":"report","scenario":{"dataset":"` + strings.Repeat("x", maxRequestBytes) + `"}}`
	resp := postCampaign(t, ts, body)
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if e.Error == "" {
		t.Fatal("no error message")
	}
	listResp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []campaign
	decodeBody(t, listResp, &list)
	if len(list) != 0 {
		t.Fatalf("oversized request registered %d campaigns", len(list))
	}
}

// TestServerQueueFullReturns503: with every queue slot taken, a POST is
// refused immediately with 503 instead of blocking, and leaves no
// phantom entry in the campaign list; once the queue drains, the next
// submission gets the next id.
func TestServerQueueFullReturns503(t *testing.T) {
	release := make(chan struct{})
	s := newServerWithQueue(func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}, obs.SystemClock(), 1)
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	defer close(release)

	ack := func(resp *http.Response) int {
		t.Helper()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST status = %d, want 202", resp.StatusCode)
		}
		var a enqueuedJSON
		decodeBody(t, resp, &a)
		return a.ID
	}
	// Campaign 1 occupies the worker; campaign 2 fills the one slot.
	waitState(t, ts, ack(postCampaign(t, ts, validBody)), stateRunning)
	ack(postCampaign(t, ts, validBody))

	resp := postCampaign(t, ts, validBody)
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full-queue POST status = %d, want 503", resp.StatusCode)
	}
	if e.Error == "" {
		t.Fatal("no error message")
	}
	listResp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []campaign
	decodeBody(t, listResp, &list)
	if len(list) != 2 || list[0].ID != 1 || list[1].ID != 2 {
		t.Fatalf("campaign list after 503 = %+v, want ids 1 and 2 only", list)
	}
	refused, err := http.Get(ts.URL + "/campaigns/3")
	if err != nil {
		t.Fatal(err)
	}
	refused.Body.Close()
	if refused.StatusCode != http.StatusNotFound {
		t.Fatalf("refused campaign is addressable: status %d", refused.StatusCode)
	}

	release <- struct{}{} // campaign 1 finishes; campaign 2 takes the worker
	waitState(t, ts, 2, stateRunning)
	if id := ack(postCampaign(t, ts, validBody)); id != 3 {
		t.Fatalf("next accepted id = %d, want 3", id)
	}
}

// FuzzCampaignRequest: whatever body is POSTed to /campaigns, the server
// answers 202 or 4xx — never a panic or a 5xx — and the campaign runner
// sees a request only when the server accepted it, and then only one
// that validateRequest accepts.
func FuzzCampaignRequest(f *testing.F) {
	for _, body := range []string{
		`{"stage":`,
		`{"stage":"report","bogus":1}`,
		`{"stage":"exfiltrate","scenario":{"dataset":"mnist"}}`,
		`{"stage":"report","scenario":{}}`,
		`{"stage":"report","scenario":{"dataset":"mnist","defense":"baseline"},"processes":4}`,
		validBody,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var mu sync.Mutex
		var ran []CampaignRequest
		s := newServer(func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error) {
			mu.Lock()
			ran = append(ran, req)
			mu.Unlock()
			return json.RawMessage(`{}`), nil
		})
		w := httptest.NewRecorder()
		s.handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(body)))
		s.Close() // waits for an accepted campaign to run
		code := w.Code
		if code != http.StatusAccepted && (code < 400 || code >= 500) {
			t.Fatalf("status %d for body %q, want 202 or 4xx", code, body)
		}
		mu.Lock()
		defer mu.Unlock()
		want := 0
		if code == http.StatusAccepted {
			want = 1
		}
		if len(ran) != want {
			t.Fatalf("status %d but the runner ran %d campaigns, want %d", code, len(ran), want)
		}
		for _, req := range ran {
			if err := validateRequest(req); err != nil {
				t.Fatalf("runner got a request validateRequest rejects: %v", err)
			}
		}
	})
}
