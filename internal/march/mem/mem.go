// Package mem provides the simulated 64-bit address space used by the
// micro-architecture simulator.
//
// The instrumented CNN inference (package instrument) allocates its weights
// and activations here instead of relying on Go runtime addresses, so the
// cache simulation is deterministic, stable across runs, and independent of
// the host allocator.
package mem

import (
	"fmt"
)

// Addr is a simulated virtual address.
type Addr uint64

// Region is a named allocation inside the address space.
type Region struct {
	Name string
	Base Addr
	Size uint64
}

// Arena is a bump allocator over the simulated address space. Allocations
// are aligned to cache-line boundaries so a tensor's footprint in the cache
// simulator matches what an aligned malloc would produce.
type Arena struct {
	next  Addr
	align uint64
}

// DefaultBase mirrors a typical Linux mmap region base so printed addresses
// look like real pointers.
const DefaultBase Addr = 0x7f0000000000

// NewArena creates an arena starting at base with the given alignment
// (typically the cache line size). align must be a power of two.
func NewArena(base Addr, align uint64) (*Arena, error) {
	if align == 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	return &Arena{next: base, align: align}, nil
}

// Alloc reserves size bytes and returns the region. Zero-size allocations
// are rejected: a tensor with no elements has no footprint to simulate.
func (a *Arena) Alloc(name string, size uint64) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("mem: zero-size allocation %q", name)
	}
	aligned := (uint64(a.next) + a.align - 1) &^ (a.align - 1)
	r := Region{Name: name, Base: Addr(aligned), Size: size}
	a.next = Addr(aligned + size)
	return r, nil
}

// Mark returns a pseudo-region representing the current bump pointer; the
// instrumented classifier lays its activation scratch out above it.
func (a *Arena) Mark() Region { return Region{Name: "<mark>", Base: a.next} }

// Align returns the arena's allocation alignment.
func (a *Arena) Align() uint64 { return a.align }
