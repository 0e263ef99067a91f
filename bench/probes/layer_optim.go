package main

import "teco/internal/optim"

// optimGroup times the ADAM update over 1 Mi parameters, plain and with the
// fused gradient scaling the trainer's clip uses.
var optimGroup = group{"optim", []string{"optim.step_ns_per_param", "optim.stepfused_ns_per_param"}, func(c *ctx) (map[string]float64, error) {
	const n = 1 << 20
	ad, err := optim.NewAdam(n, optim.AdamConfig{})
	if err != nil {
		return nil, err
	}
	params, grads := make([]float32, n), make([]float32, n)
	for i := range params {
		params[i] = float32(i%97) * 0.01
		grads[i] = float32(i%89)*0.001 - 0.04
	}
	var stepErr error
	keep := func(err error) {
		if err != nil {
			stepErr = err
		}
	}
	plain := medianTime(7, func() { keep(ad.Step(params, grads)) })
	touched := 0
	fused := medianTime(7, func() {
		keep(ad.StepFused(params, grads, 0.5, func(_, lo, hi int) { touched += hi - lo }))
	})
	if stepErr != nil {
		return nil, stepErr
	}
	return map[string]float64{
		"optim.step_ns_per_param":      float64(plain) / n,
		"optim.stepfused_ns_per_param": float64(fused) / n,
	}, nil
}}
