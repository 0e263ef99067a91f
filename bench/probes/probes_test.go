package main

import (
	"testing"

	"teco/bench/spec"
)

// TestGroupsMatchSpec: every probe reports a metric the spec lists, once,
// with at least one workload that measures it.
func TestGroupsMatchSpec(t *testing.T) {
	inSpec := map[string]spec.LayerMetric{}
	for _, m := range spec.PerLayer {
		inSpec[m.Name] = m
	}
	seen := map[string]string{}
	for _, g := range groups {
		for _, m := range g.metrics {
			if _, ok := inSpec[m]; !ok {
				t.Errorf("%s reports %s, which spec.PerLayer does not list", g.layer, m)
			}
			if other, dup := seen[m]; dup {
				t.Errorf("%s is reported by both %s and %s", m, other, g.layer)
			}
			seen[m] = g.layer
		}
	}
}
