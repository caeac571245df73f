package mem

import (
	"testing"
	"testing/quick"
)

func TestNewArenaValidation(t *testing.T) {
	if _, err := NewArena(0, 0); err == nil {
		t.Fatal("zero alignment accepted")
	}
	if _, err := NewArena(0, 48); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
	if _, err := NewArena(DefaultBase, 64); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAlignment(t *testing.T) {
	a, _ := NewArena(0x1000, 64)
	r1, err := a.Alloc("weights", 100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(r1.Base)%64 != 0 {
		t.Fatalf("region base %#x not 64-aligned", r1.Base)
	}
	r2, _ := a.Alloc("bias", 10)
	if uint64(r2.Base)%64 != 0 {
		t.Fatalf("second region base %#x not aligned", r2.Base)
	}
	if r2.Base < r1.Base+Addr(r1.Size) {
		t.Fatal("regions overlap")
	}
}

func TestAllocZeroSizeRejected(t *testing.T) {
	a, _ := NewArena(0, 64)
	if _, err := a.Alloc("empty", 0); err == nil {
		t.Fatal("zero-size allocation accepted")
	}
}

// TestMarkReset: Mark is the bump pointer, so the next allocation lands
// at the first aligned address at or above it, past every earlier one.
func TestMarkReset(t *testing.T) {
	a, _ := NewArena(0, 64)
	w, _ := a.Alloc("weights", 200)
	mark := a.Mark()
	if mark.Base != w.Base+Addr(w.Size) {
		t.Fatalf("mark at %#x, want the end of the weights %#x", mark.Base, w.Base+Addr(w.Size))
	}
	a1, _ := a.Alloc("act1", 128)
	if a1.Base != 256 {
		t.Fatalf("first allocation after the mark at %#x, want 0x100", a1.Base)
	}
}

func TestQuickAllocationsNeverOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		a, _ := NewArena(0, 64)
		var regions []Region
		for i, s := range sizes {
			if s == 0 {
				continue
			}
			if i >= 64 {
				break
			}
			r, err := a.Alloc("r", uint64(s))
			if err != nil {
				return false
			}
			regions = append(regions, r)
		}
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				ri, rj := regions[i], regions[j]
				if ri.Base < rj.Base+Addr(rj.Size) && rj.Base < ri.Base+Addr(ri.Size) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
