package fleet

import (
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// Test support for the external test package (fleet_test), whose tests
// drive engines that import fleet themselves (baselines) and so cannot be
// imported by the internal tests.

// RunGroups replays a trace against a static fleet built from cfg.Groups.
func RunGroups(trace []workload.TimedRequest, cfg Config) (*Result, error) {
	sim := simevent.New()
	g, err := NewGatewayGroups(cfg, sim)
	if err != nil {
		return nil, err
	}
	return runTrace(g, sim, trace)
}

// RequireIdentical asserts two runs are observationally byte-identical.
var RequireIdentical = requireIdentical

// ChaosFaults is the fault schedule of the chaos determinism tests.
var ChaosFaults = chaosFaults
