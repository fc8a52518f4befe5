package main

import (
	"math"
	"testing"
)

// TestReplayReproducesStepForces steps tiny water boxes and replays each
// force evaluation layer by layer: the folded forces and the energy terms
// must equal the step's bitwise, on the Verlet and cell-list paths and
// for both mesh methods.
func TestReplayReproducesStepForces(t *testing.T) {
	skinless := paperTME(tinySize)
	skinless.Skin = 0
	for name, cfg := range map[string]mdConfig{
		"spme":         productionSPME(tinySize),
		"tme":          paperTME(tinySize),
		"tme_skinless": skinless,
	} {
		t.Run(name, func(t *testing.T) {
			sys := genWater(3, tinySize)
			integ, err := newIntegrator(cfg, sys.Box)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := newStepReplay(cfg, sys.Box, sys.N(), probeConfigs(cfg, tinySize))
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTracer(nowNs)
			e := integ.FF.Compute(sys)
			rp.replay(tr, sys, false)
			if err := rp.check(sys, e); err != nil {
				t.Fatalf("first evaluation: %v", err)
			}
			for s := 1; s <= 12; s++ {
				rp.remember(sys)
				e = integ.Step(sys)
				rp.replay(tr, sys, true)
				if err := rp.check(sys, e); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
			}
			if Sum(Summarize(tr.Spans()), "nonbond.rebuild").Count == 0 {
				t.Fatal("the replay never rebuilt its pair list")
			}
			// The check must notice a one-ulp difference.
			rp.fSum[7][0] = math.Nextafter(rp.fSum[7][0], math.Inf(1))
			if rp.check(sys, e) == nil {
				t.Fatal("check accepted a perturbed force")
			}
		})
	}
}
