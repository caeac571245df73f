package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"syscall"
)

// digest is the output-check fingerprint of a campaign's canonical bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// median returns the middle value of xs (0 for an empty set, so a run
// whose every campaign failed still prints numbers).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanOfMedians averages the medians of the non-empty groups.
func meanOfMedians(groups [][]float64) float64 {
	var meds []float64
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, median(g))
		}
	}
	return ratio(sum(meds), float64(len(meds)))
}

// tailPercentiles is the ladder .tail metrics climb: the highest rung
// that still leaves at least tailBeyond samples above it is reported.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const tailBeyond = 10

// tail returns the highest ladder percentile of xs (nearest rank) with at
// least tailBeyond samples beyond it, and that percentile. Fewer than
// 2·tailBeyond samples fall back to the median.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 50
	}
	s := sorted(xs)
	n := len(s)
	for _, q := range tailPercentiles {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailBeyond {
			return s[rank-1], q
		}
	}
	return median(s), 50
}

// spread formats the range of xs for the human-readable lines.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "[]"
	}
	s := sorted(xs)
	return fmt.Sprintf("[%.4g .. %.4g]", s[0], s[len(s)-1])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when the denominator is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // RUSAGE_SELF/CHILDREN cannot fail on a valid buffer
	}
	return ru
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// cpuSeconds is the user+system CPU time of this process plus every child
// it has reaped (the shardworkers).
func cpuSeconds() float64 {
	self, kids := rusage(syscall.RUSAGE_SELF), rusage(syscall.RUSAGE_CHILDREN)
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB returns the peak resident set of this process and of its
// largest reaped child, in MiB (Linux reports ru_maxrss in KiB).
func peakRSSMB() (self, children float64) {
	return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024,
		float64(rusage(syscall.RUSAGE_CHILDREN).Maxrss) / 1024
}
