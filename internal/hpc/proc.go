package hpc

import (
	"fmt"
	"sync"

	"repro/internal/march"
)

// Process is a simulated process whose hardware activity runs on a
// dedicated engine. It mirrors the paper's deployment: the classifier runs
// as an opaque process, and the Evaluator attaches to it by pid without
// seeing its inputs or internals.
type Process struct {
	PID    int
	Name   string
	Engine *march.Engine
}

// Registry is the simulated process table. It is safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	nextPID int
	procs   map[int]*Process
}

// NewRegistry creates an empty process table; PIDs start at 1000 to look
// like real ones.
func NewRegistry() *Registry {
	return &Registry{nextPID: 1000, procs: map[int]*Process{}}
}

// Spawn registers a process running on the given engine and returns it.
func (r *Registry) Spawn(name string, engine *march.Engine) (*Process, error) {
	if engine == nil {
		return nil, fmt.Errorf("hpc: Spawn needs an engine")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &Process{PID: r.nextPID, Name: name, Engine: engine}
	r.nextPID++
	r.procs[p.PID] = p
	return p, nil
}

// Lookup finds a process by pid.
func (r *Registry) Lookup(pid int) (*Process, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.procs[pid]
	if !ok {
		return nil, fmt.Errorf("hpc: no such process %d", pid)
	}
	return p, nil
}

// Attach creates a PMU bound to the process's engine — the simulated
// equivalent of `perf stat -e <events> -p <pid>`. The attached observer
// sees only hardware event counts, never the process's data.
func (r *Registry) Attach(pid int, registers int) (*PMU, error) {
	p, err := r.Lookup(pid)
	if err != nil {
		return nil, err
	}
	return NewPMU(p.Engine, registers)
}
