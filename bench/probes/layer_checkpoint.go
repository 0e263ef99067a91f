package main

import (
	"os"

	"teco/internal/checkpoint"
	"teco/internal/realtrain"
)

// checkpointGroup times the SDC guard's tensor checksum (4 MiB of
// parameters) and one durable snapshot save of an MLP trainer, which is
// what the recovery experiment does at every checkpoint interval.
var checkpointGroup = group{"checkpoint", []string{"checkpoint.checksum_mb_per_s", "checkpoint.save_ms"}, func(c *ctx) (map[string]float64, error) {
	const n = 1 << 20
	_, v := seededWords(c.seed, n)
	var crc uint16
	sum := medianTime(9, func() { crc = checkpoint.Checksum(v) })
	_ = crc

	tr, err := realtrain.NewTrainer(realtrain.Config{Steps: 8, Batch: 32, Seed: c.seed, PreSteps: 1, DBA: true})
	if err != nil {
		return nil, err
	}
	snap := tr.Snapshot()
	dir, err := os.MkdirTemp(c.tmp, "ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir, 2)
	if err != nil {
		return nil, err
	}
	var saveErr error
	save := medianTime(9, func() {
		snap.Step++
		if _, _, err := store.Save(snap); err != nil {
			saveErr = err
		}
	})
	if saveErr != nil {
		return nil, saveErr
	}
	return map[string]float64{
		"checkpoint.checksum_mb_per_s": 4 * n / 1e6 / sum.Seconds(),
		"checkpoint.save_ms":           float64(save) / 1e6,
	}, nil
}}
