package main

import (
	"fmt"
	"math"
	"math/rand"

	"tme4a/internal/md"
	"tme4a/internal/serve"
	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

const (
	dt          = 0.001 // ps, every workload
	rtol        = 1e-4  // erfc(α·rc), the convention cmd/mdrun and mdserve use
	equilSteps  = 50    // cutoff-only thermalisation of a generated water box
	heldOutSeed = 7919  // never used while tuning; kept for re-checking later claims
)

// mdConfig is the force-field and solver setting of one water workload.
type mdConfig struct {
	Method string // "spme" or "tme"; "cutoff" (no mesh) for a serve_mix job
	Rc     float64
	Skin   float64
	Grid   int
	M, Gc  int
	Levels int
	Ranks  int // > 0 steps through rank.Engine
}

func (c mdConfig) alpha() float64 { return spme.AlphaFromRTol(c.Rc, rtol) }

func (c mdConfig) solverConfig() solver.Config {
	return solver.Config{Alpha: c.alpha(), Rc: c.Rc, Order: 6, N: [3]int{c.Grid, c.Grid, c.Grid},
		Levels: c.Levels, M: c.M, Gc: c.Gc}
}

// newSolver builds the workload's mesh solver through the registry.
func (c mdConfig) newSolver(box vec.Box) (md.MeshSolver, error) {
	return solver.New(c.Method, c.solverConfig(), box)
}

// size scales the water workloads: the full size is the ROADMAP's
// production point, the tiny one keeps every code path for the tests.
// Cutoffs scale with the box edge and grids stay, so α·h is the same at
// both sizes; the tiny box's force error is still about three times
// larger, and so is its ceiling.
type size struct {
	Side     int     // waters per box edge
	Scale    float64 // cutoff scale
	ErrScale float64 // force_rel_err ceiling scale
}

var (
	fullSize = size{Side: 8, Scale: 1, ErrScale: 1}
	tinySize = size{Side: 4, Scale: 0.5, ErrScale: 3}
)

// productionSPME is water1536_spme's setting: SPME p=6 on 16³, rc 1.0 nm.
func productionSPME(sz size) mdConfig {
	return mdConfig{Method: "spme", Rc: 1.0 * sz.Scale, Skin: 0.1, Grid: 16}
}

// paperTME is the paper's method on the same box: TME p=6, L=1, M=3,
// g_c=8 on 32³ with rc 0.45 nm, so α·h (0.47) matches production (0.43).
func paperTME(sz size) mdConfig {
	return mdConfig{Method: "tme", Rc: 0.45 * sz.Scale, Skin: 0.1, Grid: 32, M: 3, Gc: 8, Levels: 1}
}

// rankTME is paperTME stepped skinless by rank.Engine at 2 ranks.
func rankTME(sz size) mdConfig {
	c := paperTME(sz)
	c.Skin = 0
	c.Ranks = 2
	return c
}

// genWater makes a workload's inputs from its seed: a TIP3P lattice with
// seeded orientations, thermalised for equilSteps cutoff-only steps.
func genWater(seed int64, sz size) *md.System {
	box := water.CubicBoxFor(sz.Side * sz.Side * sz.Side)
	sys := water.Build(sz.Side, sz.Side, sz.Side, box, seed)
	water.Equilibrate(sys, equilSteps, dt, 300, math.Min(0.9, 0.45*box.L[0]), seed+1)
	return sys
}

// cloneSystem deep-copies the mutable state; topology is shared.
func cloneSystem(s *md.System) *md.System {
	c := md.NewSystem(s.N(), s.Box)
	copy(c.Pos, s.Pos)
	copy(c.Vel, s.Vel)
	copy(c.Frc, s.Frc)
	copy(c.Mass, s.Mass)
	copy(c.Q, s.Q)
	c.LJ = s.LJ
	c.Excl = s.Excl
	c.RigidWaters = s.RigidWaters
	c.WaterModel = s.WaterModel
	return c
}

// newIntegrator builds the serial integrator of cfg for box.
func newIntegrator(cfg mdConfig, box vec.Box) (*md.Integrator, error) {
	mesh, err := cfg.newSolver(box)
	if err != nil {
		return nil, err
	}
	return &md.Integrator{
		FF: &md.ForceField{Alpha: cfg.alpha(), Rc: cfg.Rc, Skin: cfg.Skin, Mesh: mesh},
		Dt: dt,
	}, nil
}

// jobSteps is the length of every serve_mix job.
const jobSteps = 100

// mixKinds is serve_mix's fixed composition, one cycle of twelve jobs:
// every method at both box sizes, weighted so the median and the 90th
// percentile of job latency and step latency fall inside a block of
// one kind rather than on the edge between two.
var mixKinds = []struct {
	Method string
	Side   int
	Count  int
}{
	{"cutoff", 2, 1}, {"spme", 2, 1}, {"cutoff", 3, 1}, {"spme", 3, 1},
	{"auto", 2, 1}, {"auto", 3, 2}, {"tme", 2, 2}, {"tme", 3, 3},
}

// mixSpecs returns the serve_mix job cycle for a seed: the composition
// and order are fixed, the seed draws each job's box seed.
func mixSpecs(seed int64, steps int) []serve.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []serve.Spec
	for _, k := range mixKinds {
		for i := 0; i < k.Count; i++ {
			sp := serve.Spec{Method: k.Method, Side: k.Side, Steps: steps, Seed: 1 + rng.Int63n(1<<30)}
			if k.Method == "auto" {
				sp.ErrBudget = autoBudget
			}
			sp.Name = fmt.Sprintf("%s-%d-%d", k.Method, k.Side, i)
			specs = append(specs, sp)
		}
	}
	return specs
}

// jobConfig maps a normalized serve spec onto the workload setting its
// integrator runs (mesh parameters as serve.Spec resolves them).
func jobConfig(sp serve.Spec) mdConfig {
	return mdConfig{Method: sp.Method, Rc: sp.Rc, Skin: sp.Skin, Grid: sp.Grid, M: sp.M, Gc: sp.Gc, Levels: sp.Levels}
}

// buildJob reproduces a normalized spec's initial state and integrator
// outside the scheduler: the lattice build, its cheap thermalisation
// and the velocity draw, exactly as mdserve starts a fresh job. The
// serve_mix checks compare the resulting trajectory's hash with
// Spec.RunDirect, so any drift from the service's recipe fails the run.
func buildJob(sp serve.Spec) (*md.System, *md.Integrator, error) {
	sys := water.Build(sp.Side, sp.Side, sp.Side, sp.Box(), sp.Seed)
	if sp.Equil > 0 {
		water.Equilibrate(sys, sp.Equil, sp.Dt, sp.Temp, math.Min(0.9, sp.Rc), sp.Seed+1)
	}
	sys.InitVelocities(sp.Temp, rand.New(rand.NewSource(sp.Seed+2)))
	var mesh md.MeshSolver
	if sp.Method != "cutoff" {
		s, err := jobConfig(sp).newSolver(sys.Box)
		if err != nil {
			return nil, nil, err
		}
		mesh = s
	}
	integ := &md.Integrator{
		FF:        &md.ForceField{Alpha: spme.AlphaFromRTol(sp.Rc, rtol), Rc: sp.Rc, Skin: sp.Skin, Mesh: mesh},
		Dt:        sp.Dt,
		MeshEvery: sp.MeshEvery,
	}
	return sys, integ, nil
}
