package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even n), 0
// for no samples. It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values: the right average for
// per-program medians, where each program should weigh the same whatever
// its absolute launch time.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// tailPermille are the candidate percentiles of the tail rule in tenths of a
// per cent, highest first (integers, so "ten samples beyond" is exact).
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tail reports the pooled samples at the highest candidate percentile that
// still has at least ten samples beyond it. With fewer than twenty samples
// no percentile qualifies, and the maximum is reported as percentile 100.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPermille {
		if beyond := n * (1000 - p) / 1000; beyond >= 10 {
			return float64(p) / 10, s[n-1-beyond]
		}
	}
	return 100, s[n-1]
}

// perSlotMedians groups op wall times (ms) by slot and returns each slot's
// median, in slot order.
func perSlotMedians(ops []opResult, slots int) []float64 {
	by := make([][]float64, slots)
	for _, op := range ops {
		by[op.slot] = append(by[op.slot], ms(op.wall))
	}
	out := make([]float64, 0, slots)
	for _, xs := range by {
		if len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of its interval that its child spans
// cover (children are clipped to the parent and overlapping children are
// counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}
