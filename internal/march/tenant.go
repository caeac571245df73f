package march

// Multi-tenant execution: two victims time-sharing one simulated core.
// The deployment scenario the streaming monitor audits is a victim
// model co-located with another tenant on the same physical core —
// cross-tenant contention (shared caches, predictor, TLB) then shows up
// in the victim's own measured counters, exactly the leakage channel
// the paper's co-residency threat model worries about.
//
// Ring serializes the two tenants in strict quantum turns using the
// engine's SetQuantumYield hook: the victim runs on the caller's
// goroutine (inside the PMU's measured interval), the co-tenant on its
// own goroutine, and an unbuffered channel pair passes a single token
// between them. Exactly one goroutine ever drives the engine — the
// token holder — so the interleaving is a pure function of the quantum
// and both tenants' instruction streams: byte-identical on every run,
// race-clean by happens-before on the channel handoffs.

// Ring interleaves a victim (the caller) with one co-tenant workload on
// a shared engine, quantum-by-quantum. The co-tenant goroutine starts
// lazily at the victim's first yield and is always drained before
// Drain returns, so no goroutine outlives a measured interval.
type Ring struct {
	eng *Engine
	// coWork runs one unit of co-tenant work (one classification). It
	// is called repeatedly, back to back, while the co-tenant holds the
	// core; the engine's quantum hook suspends it mid-unit.
	coWork func()

	toCo     chan struct{}
	toVictim chan struct{}
	done     chan struct{}
	// onCo routes yields: true while the co-tenant holds the token. It
	// is only ever written by the current token holder, immediately
	// before a handoff, so the channel send orders every write.
	onCo bool
	// draining makes co-tenant yields no-ops so the in-flight coWork
	// unit runs to completion; its tail lands inside the victim's
	// measured interval at a deterministic point (the drain).
	draining bool
	started  bool
}

// NewRing wires a two-tenant ring onto eng: every quantum retired
// instructions, control passes to the other tenant. The victim simply
// keeps using the engine from the calling goroutine; coWork supplies
// the co-tenant's workload. Call Drain at the end of each victim
// classification to park the co-tenant deterministically.
func NewRing(eng *Engine, quantum uint64, coWork func()) *Ring {
	r := &Ring{
		eng:      eng,
		coWork:   coWork,
		toCo:     make(chan struct{}),
		toVictim: make(chan struct{}),
	}
	eng.SetQuantumYield(quantum, r.yield)
	return r
}

// yield is the engine's quantum hook. It runs on whichever goroutine
// currently drives the engine and hands the token to the other tenant,
// blocking until it comes back.
func (r *Ring) yield() {
	if r.draining {
		return // drain: the co-tenant keeps the core until its unit completes
	}
	if r.onCo {
		r.onCo = false
		r.toVictim <- struct{}{}
		<-r.toCo
		r.onCo = true
		return
	}
	if !r.started {
		r.started = true
		r.done = make(chan struct{})
		go r.coMain()
	}
	r.onCo = true
	r.toCo <- struct{}{}
	<-r.toVictim
}

// coMain is the co-tenant goroutine: it waits for its first quantum,
// then runs coWork units back to back — the engine's hook suspends and
// resumes it between quanta — until a drain lets the current unit
// finish and exits.
func (r *Ring) coMain() {
	<-r.toCo
	for {
		r.coWork()
		if r.draining {
			close(r.done)
			return
		}
	}
}

// Drain parks the co-tenant at a deterministic point: the in-flight
// coWork unit (if any) runs to completion with yields disabled, the
// co-tenant goroutine exits, and the ring is ready for the next
// measured interval. A ring whose co-tenant never started is already
// parked. The victim must not be mid-operation when calling Drain.
func (r *Ring) Drain() {
	if !r.started {
		return
	}
	r.draining = true
	r.toCo <- struct{}{}
	<-r.done
	r.started = false
	r.draining = false
	r.onCo = false
}
