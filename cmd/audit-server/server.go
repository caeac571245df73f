package main

// The audit server's queue and HTTP surface, separated from main so the
// handlers and lifecycle are unit-testable with an injected run
// function instead of multi-minute real campaigns.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/hpc"
	"repro/internal/obs"
)

// CampaignRequest is the POST /campaigns body: one audit campaign,
// declared with the same spec vocabulary the fabric's worker protocol
// uses. Budgets left zero take the stage's documented defaults.
type CampaignRequest struct {
	// Stage selects the audit: report, attack, archid, topo or monitor.
	Stage string `json:"stage"`
	// Scenario is the case study to rebuild (repro.ScenarioSpec).
	Scenario repro.ScenarioSpec `json:"scenario"`
	// Events are the monitored counters; empty uses the stage default.
	Events []string `json:"events,omitempty"`
	// Classes are the report/attack input categories.
	Classes []int `json:"classes,omitempty"`
	// Runs is the main per-class/per-victim run budget of the stage.
	Runs int `json:"runs,omitempty"`
	// AttackRuns is the held-out scoring budget (attack/archid).
	AttackRuns int `json:"attack_runs,omitempty"`
	// MaxInputs caps the stage's input pool.
	MaxInputs int `json:"max_inputs,omitempty"`
	// Seed overrides the campaign root seed; 0 uses the scenario seed.
	Seed int64 `json:"seed,omitempty"`
	// Alpha is the monitor stage's overall significance level; 0 uses
	// the default 0.05.
	Alpha float64 `json:"alpha,omitempty"`
	// Tenants ≥ 2 runs the monitor stage in co-residency mode.
	Tenants int `json:"tenants,omitempty"`
	// NoStop disables the monitor stage's early stopping.
	NoStop bool `json:"no_stop,omitempty"`
}

// campaignState is a queued campaign's lifecycle phase.
type campaignState string

const (
	stateQueued  campaignState = "queued"
	stateRunning campaignState = "running"
	stateDone    campaignState = "done"
	stateFailed  campaignState = "failed"
)

// campaign is one queued audit and its outcome.
type campaign struct {
	ID        int             `json:"id"`
	State     campaignState   `json:"state"`
	Request   CampaignRequest `json:"request"`
	Error     string          `json:"error,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
	Submitted time.Time       `json:"submitted"`

	// rec is the campaign's telemetry recorder, armed when the campaign
	// starts running. Observational output only: the report bytes never
	// depend on it. Unexported, so campaign JSON is unchanged.
	rec *obs.Recorder
}

// runFunc executes one campaign and returns its JSON report, recording
// progress telemetry into rec. main installs runCampaign; tests install
// fakes.
type runFunc func(ctx context.Context, req CampaignRequest, rec *obs.Recorder) (json.RawMessage, error)

// server queues campaigns and serves their reports. Campaigns run one
// at a time in submission order — the fabric already parallelizes
// inside a campaign, so the queue stays strictly FIFO and every report
// is reproducible independent of what else was submitted.
type server struct {
	run runFunc
	// clock is the server's only wall-clock source (display-only fields
	// like Submitted and /metrics uptime; no campaign bytes derive from
	// it). Tests inject fakes.
	clock obs.Clock
	// metrics aggregates finished campaigns' counters for GET /metrics;
	// its elapsed gauge is the server uptime.
	metrics *obs.Recorder

	mu        sync.Mutex
	campaigns map[int]*campaign
	order     []int
	nextID    int

	queue chan int
	done  chan struct{}
}

// queueSlots is how many submitted campaigns may wait behind the
// running one; a POST beyond that is refused with 503 rather than
// blocking the handler.
const queueSlots = 1024

// maxRequestBytes bounds a POST /campaigns body; larger bodies get 413.
const maxRequestBytes = 1 << 20

func newServer(run runFunc) *server {
	return newServerWithQueue(run, obs.SystemClock(), queueSlots)
}

func newServerWithQueue(run runFunc, clock obs.Clock, slots int) *server {
	s := &server{
		run:       run,
		clock:     clock,
		metrics:   obs.New(obs.Config{Clock: clock, Label: "audit-server"}),
		campaigns: map[int]*campaign{},
		nextID:    1,
		queue:     make(chan int, slots),
		done:      make(chan struct{}),
	}
	go s.worker()
	return s
}

// worker drains the queue sequentially until Close.
func (s *server) worker() {
	for id := range s.queue {
		s.mu.Lock()
		c := s.campaigns[id]
		c.State = stateRunning
		c.rec = obs.New(obs.Config{Clock: s.clock, Label: fmt.Sprintf("campaign-%d", id)})
		req, rec := c.Request, c.rec
		s.mu.Unlock()

		report, err := s.run(context.Background(), req, rec)

		s.mu.Lock()
		if err != nil {
			c.State = stateFailed
			c.Error = err.Error()
		} else {
			c.State = stateDone
			c.Report = report
		}
		// Fold the finished campaign's counters into the server-wide
		// /metrics totals (running campaigns are visible per-campaign via
		// their /progress endpoint until they land here).
		for _, ctr := range obs.AllCounters() {
			s.metrics.Add(ctr, rec.Get(ctr))
		}
		s.mu.Unlock()
	}
	close(s.done)
}

// Close stops accepting work and waits for the in-flight campaign.
func (s *server) Close() {
	close(s.queue)
	<-s.done
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaigns", s.handleCampaigns)
	mux.HandleFunc("/campaigns/", s.handleCampaign)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// handleCampaigns serves POST /campaigns (enqueue) and GET /campaigns
// (list all, newest last).
func (s *server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req CampaignRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, "campaign request exceeds %d bytes", maxRequestBytes)
				return
			}
			httpError(w, http.StatusBadRequest, "decoding campaign request: %v", err)
			return
		}
		if err := validateRequest(req); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.mu.Lock()
		id := s.nextID
		// Enqueue before registering, without blocking: a full queue is
		// refused and leaves no entry behind. The worker cannot look the
		// id up before the entry exists, since it takes s.mu first.
		select {
		case s.queue <- id:
		default:
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "campaign queue is full (%d waiting); retry later", cap(s.queue))
			return
		}
		s.nextID++
		// Submitted is display-only operator telemetry read off the obs
		// clock — the repo's one sanctioned wall-clock source; no campaign
		// bytes derive from it.
		c := &campaign{ID: id, State: stateQueued, Request: req, Submitted: s.clock.Now().UTC()}
		s.campaigns[id] = c
		s.order = append(s.order, id)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, enqueuedJSON{ID: id, State: stateQueued})
	case http.MethodGet:
		s.mu.Lock()
		list := make([]*campaign, 0, len(s.order))
		for _, id := range s.order {
			list = append(list, snapshot(s.campaigns[id]))
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, list)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleCampaign serves GET /campaigns/<id> (state plus, once done, the
// full JSON report) and GET /campaigns/<id>/progress (live telemetry).
func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	sub := ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest, sub = rest[:i], rest[i+1:]
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "campaign ids are integers")
		return
	}
	s.mu.Lock()
	c, ok := s.campaigns[id]
	if ok {
		c = snapshot(c)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no campaign %d", id)
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, c)
	case "progress":
		// Every read below is nil-safe: a queued campaign has no recorder
		// yet and reports zeros.
		writeJSON(w, http.StatusOK, progressJSON{
			ID:          c.ID,
			State:       c.State,
			Phase:       c.rec.Phase(),
			ShardsDone:  c.rec.Get(obs.CShardsDone),
			ShardsTotal: c.rec.Get(obs.CShardsPlanned),
			ElapsedMS:   c.rec.ElapsedMS(),
		})
	default:
		httpError(w, http.StatusNotFound, "no campaign resource %q", sub)
	}
}

// handleMetrics serves GET /metrics: the server-wide counter totals over
// finished campaigns in obs's fixed-order text format, with the elapsed
// gauge reporting server uptime.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.WriteMetrics(w)
}

// progressJSON is the GET /campaigns/<id>/progress body: the campaign's
// live stage, shard progress and elapsed wall time.
type progressJSON struct {
	ID          int           `json:"id"`
	State       campaignState `json:"state"`
	Phase       string        `json:"phase,omitempty"`
	ShardsDone  int64         `json:"shards_done"`
	ShardsTotal int64         `json:"shards_total"`
	ElapsedMS   int64         `json:"elapsed_ms"`
}

// snapshot copies a campaign under the caller's lock so handlers never
// serialize a struct the worker goroutine is mutating.
func snapshot(c *campaign) *campaign {
	cp := *c
	return &cp
}

// validateRequest rejects a request the worker could only fail on, so a
// bad campaign is refused with 400 before it takes a queue slot or an id.
func validateRequest(req CampaignRequest) error {
	switch req.Stage {
	case repro.StageReport, repro.StageAttack, repro.StageArchID, repro.StageTopo, repro.StageMonitor:
	default:
		return fmt.Errorf("unknown stage %q (want report, attack, archid, topo or monitor)", req.Stage)
	}
	if req.Scenario.Dataset == "" {
		return fmt.Errorf("campaign needs a scenario dataset")
	}
	if len(req.Scenario.Net) != 0 {
		return fmt.Errorf("scenario.net is not accepted: the server trains the network from the scenario's seeds")
	}
	if _, err := repro.ParseDefense(req.Scenario.Defense); err != nil {
		return err
	}
	_, err := parseEvents(req.Events)
	return err
}

// parseEvents expands the request's event entries — each a named set or
// a perf-style comma list — into one event list, rejecting an event the
// expansion lists twice. No entries yields nil (the stage default).
func parseEvents(names []string) ([]repro.Event, error) {
	var events []repro.Event
	for _, name := range names {
		evs, err := hpc.ParseEventSpec(name)
		if err != nil {
			return nil, err
		}
		for _, e := range evs {
			if slices.Contains(events, e) {
				return nil, fmt.Errorf("event %s listed twice", e)
			}
			events = append(events, e)
		}
	}
	return events, nil
}

// enqueuedJSON acknowledges POST /campaigns. A named struct (not a bare
// map) keeps the response schema explicit and its key order a property
// of the type; fields stay in the alphabetical order the former map
// encoding produced, so client-visible bytes are unchanged.
type enqueuedJSON struct {
	ID    int           `json:"id"`
	State campaignState `json:"state"`
}

// errorJSON is the uniform error envelope for every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}
