package main

import (
	"context"

	"teco/internal/parallel"
)

// parallelGroup times the sweep pool's per-task cost over no-op tasks and
// the chunked loop's per-chunk cost over a no-op body, both on W workers:
// what the suite pays to turn CPU time into wall time.
var parallelGroup = group{"parallel", []string{"parallel.run_ns_per_task", "parallel.forchunks_ns_per_chunk"}, func(c *ctx) (map[string]float64, error) {
	const tasks, words = 20000, 1 << 22
	var runErr error
	run := medianTime(9, func() {
		_, err := parallel.Run(context.Background(), c.w, tasks, func(context.Context, int) (int, error) { return 0, nil })
		if err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	const loops = 50
	chunks := medianTime(9, func() {
		for i := 0; i < loops; i++ {
			parallel.ForChunks(c.w, words, func(lo, hi int) {})
		}
	})
	return map[string]float64{
		"parallel.run_ns_per_task":        float64(run) / tasks,
		"parallel.forchunks_ns_per_chunk": float64(chunks) / loops / float64(parallel.Chunks(words)),
	}, nil
}}
