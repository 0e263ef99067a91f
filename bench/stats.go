package main

import (
	"fmt"
	"sort"
)

// quantile returns the p-quantile (0 < p < 1) of sorted values by the
// method of Python's statistics.quantiles (exclusive), which is what the
// PR driver uses for its spread check; compare.go mirrors it.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	med := quantile(s, 0.5)
	if med == 0 || len(s) < 2 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// tailLadder is tried from the wanted percentile downwards: a percentile is
// reportable only when at least ten samples lie beyond it.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tail returns the highest percentile of the ladder, no higher than want,
// with at least ten samples beyond it, and that percentile's label. Each
// workload fixes want well inside its usual sample count so the gated
// percentile does not change from run to run. With too few samples for any
// rung there is no tail to speak of — the maximum of a handful of samples is
// host noise — and tail returns the median, labelled "p50".
func tail(sorted []float64, want float64) (float64, string) {
	n := len(sorted)
	if n == 0 {
		return 0, "none"
	}
	for _, p := range tailLadder {
		if idx := int(float64(n) * p); p <= want && n-1-idx >= 10 {
			return sorted[idx], fmt.Sprintf("p%g", p*100)
		}
	}
	return quantile(sorted, 0.5), "p50"
}

// summary is how every timing is reported: median, tail, sample count.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"` // p90, p95, p99 are informative; the gated tail is Tail
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Tail    float64 `json:"tail"`
	TailPct string  `json:"tail_pct"`
}

func summarize(samples []float64, wantTail float64) summary {
	s := sortedCopy(samples)
	t, label := tail(s, wantTail)
	return summary{N: len(s), P50: quantile(s, 0.5), P90: quantile(s, 0.9), P95: quantile(s, 0.95), P99: quantile(s, 0.99), Tail: t, TailPct: label}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
