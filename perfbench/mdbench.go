package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"tme4a/internal/celllist"
	"tme4a/internal/ewald"
	"tme4a/internal/md"
	"tme4a/internal/nonbond"
	"tme4a/internal/rank"
	"tme4a/internal/vec"
)

const (
	setupReps   = 9  // set-ups per run; setup_s is their median
	warmupSteps = 3  // steps before timing starts (pair list, pools, caches)
	minSteps    = 20 // a run measures at least this many steps
	hashStep    = 50 // the rank workload's state is compared with the serial path here
)

// options are one run's settings.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Size     size
	OutDir   string // run files (spans, serve directories), inside the checkout
}

// outcome is what a run measured and the output checks it failed.
type outcome struct {
	vals      map[string]float64
	attempted int
	failed    int
	errs      []string
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{vals: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// stepper advances one MD workload by a step.
type stepper struct {
	step  func() (md.Energies, error)
	close func()
}

// newStepper builds cfg's engine over sys: the serial integrator, or
// rank.Engine when cfg.Ranks > 0.
func newStepper(cfg mdConfig, sys *md.System) (stepper, error) {
	integ, err := newIntegrator(cfg, sys.Box)
	if err != nil {
		return stepper{}, err
	}
	if cfg.Ranks > 0 {
		eng, err := rank.New(rank.Config{Ranks: cfg.Ranks}, sys, integ.FF, dt)
		if err != nil {
			return stepper{}, err
		}
		return stepper{step: eng.Step, close: eng.Close}, nil
	}
	return stepper{step: func() (md.Energies, error) { return integ.Step(sys), nil }, close: func() {}}, nil
}

// timeSetup measures one set-up from the generated inputs: solver
// construction, plans and the pair list, up to the first force
// evaluation. rank.Engine runs its first force evaluation inside its
// first step, so its set-up ends with that step.
func timeSetup(cfg mdConfig, inputs *md.System) (float64, error) {
	sys := cloneSystem(inputs)
	t0 := time.Now()
	if cfg.Ranks > 0 {
		st, err := newStepper(cfg, sys)
		if err != nil {
			return 0, err
		}
		_, err = st.step()
		d := time.Since(t0)
		st.close()
		return d.Seconds(), err
	}
	integ, err := newIntegrator(cfg, sys.Box)
	if err != nil {
		return 0, err
	}
	integ.FF.Compute(sys)
	return time.Since(t0).Seconds(), nil
}

// forceRelErr is the RMS relative Coulomb force error of cfg on the
// first frame against ewald.Reference at 1e-12, in the Table-1
// convention (no exclusions, LJ off), computed through the short-range
// and mesh entry points the step uses.
func forceRelErr(cfg mdConfig, sys *md.System) (float64, error) {
	f := make([]vec.V, sys.N())
	if cfg.Skin > 0 {
		vl := nonbond.NewVerletList(sys.Box, cfg.Rc, cfg.Skin)
		vl.Rebuild(sys.Pos, nil)
		vl.Compute(sys.Pos, sys.Q, nil, cfg.alpha(), f)
	} else {
		cl := celllist.New(sys.Box, cfg.Rc)
		cl.Rebuild(sys.Pos)
		nonbond.ComputeWithList(cl, sys.Box, sys.Pos, sys.Q, nil, cfg.alpha(), nil, f)
	}
	if cfg.Method != "cutoff" {
		mesh, err := cfg.newSolver(sys.Box)
		if err != nil {
			return 0, err
		}
		mesh.LongRange(sys.Pos, sys.Q, f)
	}
	_, ref := ewald.Reference(sys.Box, sys.Pos, sys.Q, nil, 1e-12)
	var num, den float64
	for i := range f {
		num += f[i].Sub(ref[i]).Norm2()
		den += ref[i].Norm2()
	}
	return math.Sqrt(num / den), nil
}

// errCeiling is the force_rel_err above which a run fails: about twice
// what these settings show on the generated water (SPME 7e-5, TME 2.5e-4).
func errCeiling(cfg mdConfig, sz size) float64 {
	if cfg.Method == "spme" {
		return 1.5e-4 * sz.ErrScale
	}
	return 5e-4 * sz.ErrScale
}

// stateFinite reports whether every position and velocity is finite.
func stateFinite(sys *md.System) bool {
	for i := range sys.Pos {
		if !finite(sys.Pos[i][0], sys.Pos[i][1], sys.Pos[i][2], sys.Vel[i][0], sys.Vel[i][1], sys.Vel[i][2]) {
			return false
		}
	}
	return true
}

// heapMB is the live heap once forced collections stop shrinking it:
// a pooled object survives one collection in the sync.Pool victim cache,
// and what it references one more.
func heapMB() float64 {
	var m runtime.MemStats
	last := uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= last {
			break
		}
		last = m.HeapAlloc
	}
	return float64(m.HeapAlloc) / 1e6
}

// runMD is the untraced run of one water workload.
func runMD(o options, cfg mdConfig) (*outcome, error) {
	out := newOutcome()
	inputs := genWater(o.Seed, o.Size)

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		s, err := timeSetup(cfg, inputs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	out.vals["setup_s"] = quantile(setups, 0.5)

	relErr, err := forceRelErr(cfg, inputs)
	if err != nil {
		return nil, err
	}
	out.vals["force_rel_err"] = relErr
	if ceil := errCeiling(cfg, o.Size); !(relErr <= ceil) {
		out.fail("force_rel_err %.3g above the %.3g ceiling", relErr, ceil)
	}

	sys := cloneSystem(inputs)
	st, err := newStepper(cfg, sys)
	if err != nil {
		return nil, err
	}
	defer st.close()
	steps := 0
	var hash uint64
	stepOnce := func() (md.Energies, error) {
		e, err := st.step()
		steps++
		if steps == hashStep {
			hash = md.StateHash(sys)
		}
		return e, err
	}
	for i := 0; i < warmupSteps; i++ {
		if _, err := stepOnce(); err != nil {
			return nil, err
		}
	}
	ms := make([]float64, 0, 4096)
	deadline := time.Duration(o.Seconds * float64(time.Second))
	start := time.Now()
	for len(ms) < minSteps || time.Since(start) < deadline {
		t0 := time.Now()
		e, err := stepOnce()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		out.attempted++
		if err != nil || !finite(e.Total(), e.Potential(), e.Kinetic) {
			out.failed++
		}
	}
	if !stateFinite(sys) {
		out.fail("non-finite position or velocity after %d steps", steps)
	}
	if cfg.Ranks > 0 {
		at := min(steps, hashStep)
		if steps < hashStep {
			hash = md.StateHash(sys)
		}
		want, err := serialHash(cfg, inputs, at)
		if err != nil {
			return nil, err
		}
		if hash != want {
			out.fail("rank.Engine state hash %016x after %d steps differs from the serial integrator's %016x", hash, at, want)
		}
	}
	out.vals["heap_mb"] = heapMB()
	runtime.KeepAlive(sys)
	runtime.KeepAlive(st)

	bp50, bp90, bRate := blockStats(ms)
	p50, p90, perSec := slices.Min(bp50), slices.Min(bp90), slices.Max(bRate)
	out.vals["step_ms_p50"] = p50
	out.vals["step_ms_p90"] = p90
	out.vals["ns_per_day"] = perSec * dt * 1e-3 * 86400
	out.vals["jobs_per_s"] = perSec
	out.vals["job_s_p50"] = p50 / 1e3
	out.vals["job_s_p90"] = p90 / 1e3
	out.vals["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
	out.info["step_samples"] = len(ms)
	out.info["block_step_ms_p50"] = bp50
	out.info["block_step_ms_p90"] = bp90
	out.info["block_steps_per_s"] = bRate
	out.info["setup_samples"] = len(setups)
	return out, nil
}

// blockSteps is the smallest block of consecutive steps blockStats
// summarises: its 90th percentile has ten samples beyond it.
const blockSteps = 100

// blockStats splits the per-step wall times into consecutive blocks of
// at least blockSteps steps and returns, per block, the median, the 90th
// percentile and the steps per second. On a shared 2-vCPU VM neighbours
// slow stretches of a run at random and never speed it up, so the run
// reports its best block (the ROADMAP's minimum-of-N rule for timings):
// on the same runs that is steadier than the median over blocks or over
// the whole run.
func blockStats(ms []float64) (p50, p90, perSec []float64) {
	blocks := max(1, len(ms)/blockSteps)
	for b := 0; b < blocks; b++ {
		blk := ms[b*len(ms)/blocks : (b+1)*len(ms)/blocks]
		var sum float64
		for _, m := range blk {
			sum += m
		}
		p50 = append(p50, quantile(blk, 0.5))
		p90 = append(p90, quantile(blk, 0.9))
		perSec = append(perSec, float64(len(blk))/(sum/1e3))
	}
	return p50, p90, perSec
}

// serialHash is the state hash after steps steps of the skinless serial
// integrator on the same inputs — the trajectory rank.Engine must
// reproduce bitwise.
func serialHash(cfg mdConfig, inputs *md.System, steps int) (uint64, error) {
	sys := cloneSystem(inputs)
	cfg.Ranks = 0
	integ, err := newIntegrator(cfg, sys.Box)
	if err != nil {
		return 0, err
	}
	for i := 0; i < steps; i++ {
		integ.Step(sys)
	}
	return md.StateHash(sys), nil
}
