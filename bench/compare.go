package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"teco/bench/spec"
)

// readResults loads a results file: one JSON result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges one (metric, workload) pair between two sets of plain runs:
// "regressed" when B's median is worse than A's by more than the bound;
// "unresolved" when either side's own spread (interquartile distance over
// median) exceeds the bound, unless every B run reads better than every A
// run; "ok" otherwise. worse is B's relative worsening, signed.
func verdict(m spec.Metric, a, b []float64) (status string, worse float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if m.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case worse > m.Bound:
		return "regressed", worse
	case allBetter:
		return "ok", worse
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", worse
	}
	return "ok", worse
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference and the bound, and checks that digests and counts
// recorded for the same workload and seed agree exactly. It returns the
// process exit code: 1 on any regression or exact mismatch.
func compareFiles(w io.Writer, pathA, pathB string) int {
	ra, err := readResults(pathA)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s: no results", pathA)
	}
	rb, errB := readResults(pathB)
	if err == nil {
		err = errB
	}
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	values := func(rs []result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && !r.Traced {
				out = append(out, r.Metrics[metric])
			}
		}
		return out
	}
	bad := 0
	fmt.Fprintf(w, "%-15s %-14s %4s %14s %14s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "n", "median A", "median B", "B worse", "bound", "iqr A", "iqr B", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(ra, wl.Name, m.Name), values(rb, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			status, worse := verdict(m, a, b)
			if status == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-14s %2d/%-2d %14.6g %14.6g %+8.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, len(a), len(b), median(a), median(b), 100*worse, 100*m.Bound, 100*spread(a), 100*spread(b), status)
		}
	}
	// Exact figures: same workload, same seed, same key -> same value.
	type at struct {
		workload string
		seed     int64
		key      string
	}
	seen := map[at]string{}
	for _, r := range ra {
		for k, v := range r.Exact {
			seen[at{r.Workload, r.Seed, k}] = v
		}
	}
	reported := map[at]bool{}
	for _, r := range rb {
		for _, k := range sortedKeys(r.Exact) {
			key := at{r.Workload, r.Seed, k}
			if va, ok := seen[key]; ok && va != r.Exact[k] && !reported[key] {
				reported[key] = true
				bad++
				fmt.Fprintf(w, "exact mismatch: %s seed %d %s: A %s, B %s\n", r.Workload, r.Seed, k, va, r.Exact[k])
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s) or exact mismatch(es)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no regression; exact figures agree")
	return 0
}
