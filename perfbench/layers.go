package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/rank"
	"tme4a/internal/serve"
	"tme4a/internal/solver"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
)

// Shares of --seconds the traced run gives its timed phases; the probes
// after them are fixed-count and short.
const (
	traceShare  = 0.4  // traced steps with the layer replay
	abShare     = 0.2  // untraced steps alternating GOMAXPROCS 1 and 2
	rankShare   = 0.15 // untraced steps alternating rank counts 1 and 2
	minTraced   = 8    // traced steps at least
	abBlock     = 5    // steps per GOMAXPROCS / rank-count block
	probeReps   = 5    // repetitions of the set-up probes (median)
	parReps     = 2000 // empty dispatches timed by the par probe
	ckptReps    = 5    // checkpoints written by the ckpt probe
	probeSteps  = 20   // steps of the workload-sized mdserve probe job
	probeEquil  = 5    // equilibration steps of that job
	minABRounds = 2    // alternating rounds at least
)

var clockBase = time.Now()

// nowNs is the traced run's clock: monotonic ns since start.
func nowNs() int64 { return int64(time.Since(clockBase)) }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the cumulative count of heap allocations.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// traceAcc accumulates a traced run across one or more trajectories.
type traceAcc struct {
	tr       *Tracer
	stepMs   []float64 // traced step spans
	allocs   uint64    // heap allocations inside the real steps
	steps    int
	drifts   []float64 // |energy drift|, kJ/mol/atom/ns, one per trajectory
	useful   int64     // replayed short-range pairs inside rc
	replays  int       // force evaluations replayed
	untraced []float64 // untraced steps at the workload's GOMAXPROCS
	single   []float64 // untraced steps at GOMAXPROCS 1
}

// tracedSteps advances st with a span around each real step and replays
// the step's layer calls after it, until the deadline has passed and at
// least minN steps ran, or maxN (if positive) steps ran. check (nil for
// rank.Engine, whose forces stay in its workers) compares the replay
// with the step.
func (a *traceAcc) tracedSteps(sys *md.System, st stepper, rp *stepReplay, deadline time.Time, minN, maxN int,
	check func(md.Energies) error, out *outcome) error {
	var energies []float64
	for n := 0; (n < minN || time.Now().Before(deadline)) && (maxN <= 0 || n < maxN); n++ {
		rp.remember(sys)
		a0 := heapAllocs()
		sp := a.tr.Begin("step")
		e, err := st.step()
		a.tr.End(sp, 1)
		a.allocs += heapAllocs() - a0
		if err != nil {
			return err
		}
		s := a.tr.Spans()[sp]
		a.stepMs = append(a.stepMs, float64(s.End-s.Start)/1e6)
		a.steps++
		out.attempted++
		energies = append(energies, e.Total())
		rp.replay(a.tr, sys, true)
		a.replays++
		if check != nil {
			if err := check(e); err != nil {
				out.failed++
				out.fail("step %d: %v", n+1, err)
				break
			}
		}
		if !finite(e.Total()) || !stateFinite(sys) {
			out.failed++
			out.fail("step %d: non-finite energy or state", n+1)
			break
		}
	}
	a.useful += rp.usefulPairs
	rp.usefulPairs = 0
	// kJ/mol per step → kJ/mol/atom/ns (a step is dt ps = dt·1e-3 ns).
	a.drifts = append(a.drifts, math.Abs(slope(energies))/float64(sys.N())/(dt*1e-3))
	return nil
}

// abSteps times untraced steps in alternating blocks at GOMAXPROCS 1 and
// at the workload's GOMAXPROCS, so host load hits both sides alike.
func (a *traceAcc) abSteps(step func() error, deadline time.Time) error {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for round := 0; round < minABRounds || time.Now().Before(deadline); round++ {
		for _, p := range []int{procs, 1} {
			runtime.GOMAXPROCS(p)
			for i := 0; i < abBlock; i++ {
				t0 := time.Now()
				if err := step(); err != nil {
					return err
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				if p == 1 {
					a.single = append(a.single, ms)
				} else {
					a.untraced = append(a.untraced, ms)
				}
			}
		}
	}
	return nil
}

// layerMetrics turns the spans and counts into the per-layer metrics
// that come from the replay.
func (a *traceAcc) layerMetrics(vals map[string]float64) {
	st := Summarize(a.tr.Spans())
	under := func(name string, parents ...string) LayerStat {
		var t LayerStat
		for _, p := range parents {
			s := st["replay/"+p+"/"+name]
			if name == "" {
				s = st["replay/"+p]
			}
			t.Count += s.Count
			t.Dur += s.Dur
			t.Self += s.Self
			t.Work += s.Work
		}
		return t
	}
	compute := Sum(st, "nonbond.compute")
	rebuild := Sum(st, "nonbond.rebuild")
	vals["nonbond.verlet_ns_per_pair"] = compute.NsPerWork()
	vals["nonbond.pairs_per_step"] = float64(compute.Work) / float64(max(compute.Count, 1))
	vals["nonbond.useful_pair_frac"] = float64(a.useful) / float64(max(compute.Work, 1))
	vals["nonbond.rebuild_ms"] = rebuild.MeanMs()
	vals["nonbond.steps_per_rebuild"] = float64(compute.Count) / float64(max(rebuild.Count, 1))
	vals["nonbond.cell_ns_per_pair"] = Sum(st, "nonbond.cell_compute").NsPerWork()
	vals["celllist.rebuild_ns_per_atom"] = Sum(st, "celllist.rebuild").NsPerWork()
	core := under("", "core", "probe.core")
	vals["core.longrange_ms"] = core.MeanMs()
	vals["core.self_ms"] = float64(core.Self) / float64(max(core.Count, 1)) / 1e6
	own := []string{"core", "spme"}
	vals["pmesh.assign_ns_per_atom"] = under("pmesh.assign", own...).NsPerWork()
	vals["pmesh.interp_ns_per_atom"] = under("pmesh.interp", own...).NsPerWork()
	tme := []string{"core", "probe.core"}
	vals["grid.conv_ns_per_point"] = under("grid.conv", tme...).NsPerWork()
	vals["grid.restrict_ns_per_point"] = under("grid.restrict", tme...).NsPerWork()
	vals["grid.prolong_ns_per_point"] = under("grid.prolong", tme...).NsPerWork()
	vals["spme.longrange_ms"] = under("", "spme", "probe.spme").MeanMs()
	fft := under("fft", own...)
	vals["fft.ns_per_point"] = fft.NsPerWork()
	vals["fft.transforms_per_step"] = float64(fft.Count) / float64(max(a.replays, 1))
	vals["ewald.excl_ns_per_pair"] = Sum(st, "ewald.excl").NsPerWork()
	vals["constraint.settle_ns_per_water"] = Sum(st, "constraint.settle").NsPerWork()
	vals["md.step_ms"] = quantile(a.stepMs, 0.5)
	vals["md.trace_overhead_frac"] = quantile(a.stepMs, 0.5)/quantile(a.untraced, 0.5) - 1
	vals["md.allocs_per_step"] = float64(a.allocs) / float64(max(a.steps, 1))
	vals["md.energy_drift"] = mean(a.drifts)
	vals["par.speedup_1to2"] = quantile(a.single, 0.5) / quantile(a.untraced, 0.5)
}

// probeConfigs are the long-range settings a workload's replay times
// besides its own: the production SPME and the paper's TME, whichever
// the step does not run.
func probeConfigs(cfg mdConfig, sz size) []mdConfig {
	var out []mdConfig
	if cfg.Method != "spme" {
		out = append(out, productionSPME(sz))
	}
	if cfg.Method != "tme" {
		out = append(out, paperTME(sz))
	}
	return out
}

// traceMD is the traced run of one water workload.
func traceMD(o options, cfg mdConfig) (*outcome, []Span, error) {
	out := newOutcome()
	start := time.Now()
	phase := func(share float64) time.Time {
		return time.Now().Add(time.Duration(share * o.Seconds * float64(time.Second)))
	}
	inputs := genWater(o.Seed, o.Size)
	sys := cloneSystem(inputs)
	integ, err := newIntegrator(cfg, sys.Box)
	if err != nil {
		return nil, nil, err
	}
	rp, err := newStepReplay(cfg, sys.Box, sys.N(), probeConfigs(cfg, o.Size))
	if err != nil {
		return nil, nil, err
	}
	acc := &traceAcc{tr: NewTracer(nowNs)}

	var st stepper
	var check func(md.Energies) error
	if cfg.Ranks > 0 {
		eng, err := rank.New(rank.Config{Ranks: cfg.Ranks}, sys, integ.FF, dt)
		if err != nil {
			return nil, nil, err
		}
		defer eng.Close()
		st = stepper{step: eng.Step}
		rp.replay(acc.tr, sys, false)
		acc.replays++
	} else {
		// The first force evaluation, made explicitly so its replay can be
		// checked too; the integrator's bootstrap then finds the pair list
		// current and recomputes the same forces.
		e0 := integ.FF.Compute(sys)
		rp.replay(acc.tr, sys, false)
		acc.replays++
		if err := rp.check(sys, e0); err != nil {
			out.fail("first force evaluation: %v", err)
		}
		st = stepper{step: func() (md.Energies, error) { return integ.Step(sys), nil }}
		check = func(e md.Energies) error { return rp.check(sys, e) }
	}
	if err := acc.tracedSteps(sys, st, rp, phase(traceShare), minTraced, 0, check, out); err != nil {
		return nil, nil, err
	}
	if err := acc.abSteps(func() error { _, err := st.step(); return err }, phase(abShare)); err != nil {
		return nil, nil, err
	}
	acc.layerMetrics(out.vals)

	if err := rankProbe(acc.tr, inputs, o.Size, phase(rankShare), out.vals); err != nil {
		return nil, nil, err
	}
	parProbe(acc.tr, sys.N(), out.vals)
	if err := setupProbes(acc.tr, sys.Box, sys.N(), productionSPME(o.Size), paperTME(o.Size), out.vals); err != nil {
		return nil, nil, err
	}
	if err := ckptProbe(acc.tr, filepath.Join(o.OutDir, fmt.Sprintf("ckpt-%d", os.Getpid())), integ, sys, out.vals); err != nil {
		return nil, nil, err
	}
	sp := serve.Spec{Name: o.Workload, Method: cfg.Method, Side: o.Size.Side, Steps: probeSteps, Rc: cfg.Rc,
		Grid: cfg.Grid, M: cfg.M, Gc: cfg.Gc, Levels: cfg.Levels, Equil: probeEquil, Seed: o.Seed}
	if err := serveProbe(acc.tr, o, []serve.Spec{sp}, out); err != nil {
		return nil, nil, err
	}
	out.info["traced_steps"] = acc.steps
	out.info["untraced_steps"] = len(acc.untraced)
	out.info["trace_s"] = time.Since(start).Seconds()
	return out, acc.tr.Spans(), nil
}

// rankProbe steps the paper's TME skinless through rank.Engine at one
// and at two ranks on the workload's inputs, in alternating blocks:
// bytes exchanged per step at two ranks and the step-time ratio.
func rankProbe(tr *Tracer, inputs *md.System, sz size, deadline time.Time, vals map[string]float64) error {
	root := tr.Begin("probe.rank")
	defer tr.End(root, 0)
	cfg := rankTME(sz)
	var engs [2]*rank.Engine
	for i := range engs {
		cfg.Ranks = i + 1
		integ, err := newIntegrator(cfg, inputs.Box)
		if err != nil {
			return err
		}
		eng, err := rank.New(rank.Config{Ranks: cfg.Ranks}, cloneSystem(inputs), integ.FF, dt)
		if err != nil {
			return err
		}
		defer eng.Close()
		for s := 0; s < warmupSteps; s++ {
			if _, err := eng.Step(); err != nil {
				return err
			}
		}
		engs[i] = eng
	}
	bytes0 := engs[1].CommBytes()
	var ms [2][]float64
	for round := 0; round < minABRounds || time.Now().Before(deadline); round++ {
		for i, eng := range engs {
			for s := 0; s < abBlock; s++ {
				t0 := time.Now()
				if _, err := eng.Step(); err != nil {
					return err
				}
				ms[i] = append(ms[i], float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}
	}
	vals["rank.comm_bytes_per_step"] = float64(engs[1].CommBytes()-bytes0) / float64(len(ms[1]))
	vals["rank.speedup_1to2"] = quantile(ms[0], 0.5) / quantile(ms[1], 0.5)
	return nil
}

// parProbe times empty dispatches at the workload's atom count: one
// ForRange over n and one three-task Do, the pattern of a force
// evaluation's merge and overlap.
func parProbe(tr *Tracer, n int, vals map[string]float64) {
	body := func(lo, hi int) {}
	task := func() {}
	sp := tr.Begin("probe.par")
	a0 := heapAllocs()
	t0 := time.Now()
	for i := 0; i < parReps; i++ {
		par.ForRange(n, body)
		par.Do(task, task, task)
	}
	d := time.Since(t0)
	a := heapAllocs() - a0
	tr.End(sp, 2*parReps)
	vals["par.dispatch_us"] = float64(d.Nanoseconds()) / 1e3 / (2 * parReps)
	vals["par.allocs_per_dispatch"] = float64(a) / (2 * parReps)
}

// setupProbes times solver construction per method through the registry
// and the auto-tuner's plan for the box.
func setupProbes(tr *Tracer, box vec.Box, n int, spmeCfg, tmeCfg mdConfig, vals map[string]float64) error {
	for _, c := range []mdConfig{spmeCfg, tmeCfg} {
		var ms []float64
		for i := 0; i < probeReps; i++ {
			sp := tr.Begin("probe.solver.new." + c.Method)
			t0 := time.Now()
			_, err := solver.New(c.Method, c.solverConfig(), box)
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.End(sp, 1)
			if err != nil {
				return err
			}
		}
		vals["solver.new_ms."+c.Method] = quantile(ms, 0.5)
	}
	var ms []float64
	for i := 0; i < probeReps; i++ {
		sp := tr.Begin("probe.tune.plan")
		t0 := time.Now()
		_, err := tune.PlanFor(tune.Request{Box: box, Atoms: n, ErrBudget: autoBudget})
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.End(sp, 1)
		if err != nil {
			return err
		}
	}
	vals["tune.plan_ms"] = quantile(ms, 0.5)
	return nil
}

// ckptProbe writes checkpoints of the integrator's resume state through
// a durable ckpt.Store under dir, then removes dir.
func ckptProbe(tr *Tracer, dir string, integ *md.Integrator, sys *md.System, vals map[string]float64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.Open(dir, 3, ckpt.ConfigHash("perfbench probe"), ckpt.OS())
	if err != nil {
		return err
	}
	rec := obs.New()
	store.SetObs(rec)
	var ms []float64
	for i := 0; i < ckptReps; i++ {
		snap := integ.CaptureResume(sys, map[string]int64{"probe": 1})
		snap.Step = int64(i + 1)
		sp := tr.Begin("probe.ckpt.save")
		t0 := time.Now()
		err := store.Save(snap)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.End(sp, 1)
		if err != nil {
			return err
		}
	}
	vals["ckpt.save_ms"] = quantile(ms, 0.5)
	vals["ckpt.bytes_per_save"] = float64(rec.CounterValue(obs.CounterCkptBytes)) / float64(rec.CounterValue(obs.CounterCkptWrites))
	return nil
}

// serveProbe serves each spec once from a single client and runs it
// again with Spec.RunDirect: the submit latency and the share of the
// served latency that is not the simulation itself. Each served job
// must end with the direct run's hash.
func serveProbe(tr *Tracer, o options, specs []serve.Spec, out *outcome) error {
	root := tr.Begin("probe.serve")
	defer tr.End(root, int64(len(specs)))
	d, err := startDaemon(filepath.Join(o.OutDir, fmt.Sprintf("serve-probe-%d", os.Getpid())))
	if err != nil {
		return err
	}
	recs := closedLoop(d, specs, 1, math.Inf(1), len(specs))
	if err := d.stop(); err != nil {
		return err
	}
	var served, direct, submit float64
	for _, r := range recs {
		if r.err != nil {
			return r.err
		}
		t0 := time.Now()
		h, err := specs[r.spec].RunDirect()
		direct += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if want := fmt.Sprintf("%016x", h); r.st.State != serve.StateDone || r.st.FinalHash != want {
			out.fail("probe job %s: state %q hash %s, want done with %s", specs[r.spec].Name, r.st.State, r.st.FinalHash, want)
		}
		served += r.doneS - r.submitS
		submit += r.submitMs
	}
	out.vals["serve.submit_ms"] = submit / float64(len(recs))
	out.vals["serve.overhead_frac"] = (served - direct) / served
	return nil
}

// traceServe is the traced run of serve_mix: every job of the cycle is
// rebuilt outside the daemon and stepped with the layer replay, then the
// set-up, rank, par, checkpoint and daemon probes run on the mix's
// sizes (rank.Engine cannot decompose a tiny box, so its probe uses the
// water inputs of the same seed).
func traceServe(o options, steps int) (*outcome, []Span, error) {
	out := newOutcome()
	start := time.Now()
	specs := mixSpecs(o.Seed, steps)
	want, err := directHashes(specs)
	if err != nil {
		return nil, nil, err
	}
	acc := &traceAcc{tr: NewTracer(nowNs)}
	var big serve.Spec // the largest mesh job, for the set-up probes
	var bigSys *md.System
	var bigInteg *md.Integrator
	for i, sp := range specs {
		sp.Normalize()
		sys, integ, err := buildJob(sp)
		if err != nil {
			return nil, nil, err
		}
		cfg := jobConfig(sp)
		var probes []mdConfig
		for _, m := range []string{"spme", "tme"} {
			if m != sp.Method {
				probes = append(probes, mdConfig{Method: m, Rc: sp.Rc, Skin: sp.Skin, Grid: sp.Grid, M: sp.M, Gc: sp.Gc, Levels: sp.Levels})
			}
		}
		rp, err := newStepReplay(cfg, sys.Box, sys.N(), probes)
		if err != nil {
			return nil, nil, err
		}
		e0 := integ.FF.Compute(sys)
		rp.replay(acc.tr, sys, false)
		acc.replays++
		if err := rp.check(sys, e0); err != nil {
			out.fail("job %s first force evaluation: %v", sp.Name, err)
		}
		st := stepper{step: func() (md.Energies, error) { return integ.Step(sys), nil }}
		check := func(e md.Energies) error { return rp.check(sys, e) }
		if err := acc.tracedSteps(sys, st, rp, time.Time{}, sp.Steps, sp.Steps, check, out); err != nil {
			return nil, nil, err
		}
		if got := fmt.Sprintf("%016x", md.StateHash(sys)); got != want[i] {
			out.fail("job %s replica hash %s differs from Spec.RunDirect's %s", sp.Name, got, want[i])
		}
		if sp.Method != "cutoff" && sys.N() >= big.Side*big.Side*big.Side*3 {
			big, bigSys, bigInteg = sp, sys, integ
		}
	}
	// Untraced job steps at GOMAXPROCS 2 and 1 for the tracing overhead
	// and the speed-up.
	for _, sp := range specs {
		sp.Normalize()
		sys, integ, err := buildJob(sp)
		if err != nil {
			return nil, nil, err
		}
		if err := acc.abSteps(func() error { integ.Step(sys); return nil }, time.Time{}); err != nil {
			return nil, nil, err
		}
	}
	acc.layerMetrics(out.vals)

	inputs := genWater(o.Seed, o.Size)
	deadline := time.Now().Add(time.Duration(rankShare * o.Seconds * float64(time.Second)))
	if err := rankProbe(acc.tr, inputs, o.Size, deadline, out.vals); err != nil {
		return nil, nil, err
	}
	parProbe(acc.tr, bigSys.N(), out.vals)
	spmeCfg := jobConfig(big)
	spmeCfg.Method = "spme"
	tmeCfg := jobConfig(big)
	tmeCfg.Method, tmeCfg.M, tmeCfg.Gc, tmeCfg.Levels = "tme", 3, 8, 1
	if err := setupProbes(acc.tr, bigSys.Box, bigSys.N(), spmeCfg, tmeCfg, out.vals); err != nil {
		return nil, nil, err
	}
	if err := ckptProbe(acc.tr, filepath.Join(o.OutDir, fmt.Sprintf("ckpt-%d", os.Getpid())), bigInteg, bigSys, out.vals); err != nil {
		return nil, nil, err
	}
	if err := serveProbe(acc.tr, o, specs, out); err != nil {
		return nil, nil, err
	}
	out.info["traced_steps"] = acc.steps
	out.info["untraced_steps"] = len(acc.untraced)
	out.info["trace_s"] = time.Since(start).Seconds()
	return out, acc.tr.Spans(), nil
}
