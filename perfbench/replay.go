package main

import (
	"fmt"

	"tme4a/internal/celllist"
	"tme4a/internal/core"
	"tme4a/internal/ewald"
	"tme4a/internal/fft"
	"tme4a/internal/grid"
	"tme4a/internal/md"
	"tme4a/internal/nonbond"
	"tme4a/internal/pmesh"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

// meshReplay re-executes one long-range solve through the public entry
// points of the layers beneath it — pmesh assignment and interpolation,
// the grid restriction, separable convolution and prolongation with the
// solver's own kernels, and the top-level real FFT with the solver's own
// Green function — in the order the solver runs them, with
// benchmark-owned grids and plans. Its forces and energy are bitwise
// those of the solver's LongRange.
type meshReplay struct {
	name   string // span name: "core" (TME) or "spme", "probe." prefixed when the step does not use it
	alpha  float64
	mesher *pmesh.Mesher
	green  []float64
	plan   *fft.RealPlan3
	spec   []complex128
	pool   *grid.Pool

	// TME only: two-scale coefficients, kernels and the level grids
	// (levels[l] is level l+1; levels[L] is the top grid).
	tme    *core.Solver
	levels []*grid.G
	up     []*grid.G // prolongation targets, same shapes as levels[:L]
	t1, t2 []*grid.G // convolution scratch per level
	phiTop *grid.G
	phi    *grid.G // SPME potential grid
}

// newMeshReplay builds a replay for a TME or SPME solver. The replay
// reads the solver's kernels, two-scale coefficients and Green function;
// everything it writes is its own.
func newMeshReplay(s md.MeshSolver) (*meshReplay, error) {
	switch s := s.(type) {
	case *core.Solver:
		top := s.TopSolver()
		r := &meshReplay{name: "core", alpha: s.Prm.Alpha, mesher: s.Mesher, green: top.Green(), tme: s, pool: grid.NewPool()}
		n := s.Prm.N
		for l := 0; l <= s.Prm.Levels; l++ {
			r.levels = append(r.levels, grid.New(n[0], n[1], n[2]))
			if l < s.Prm.Levels {
				r.up = append(r.up, grid.New(n[0], n[1], n[2]))
				r.t1 = append(r.t1, grid.New(n[0], n[1], n[2]))
				r.t2 = append(r.t2, grid.New(n[0], n[1], n[2]))
			}
			n = [3]int{n[0] / 2, n[1] / 2, n[2] / 2}
		}
		tn := top.Prm.N
		r.phiTop = grid.New(tn[0], tn[1], tn[2])
		r.plan = fft.NewRealPlan3(tn[0], tn[1], tn[2])
		r.spec = make([]complex128, r.plan.SpectrumLen())
		return r, nil
	case *spme.Solver:
		n := s.Prm.N
		r := &meshReplay{name: "spme", alpha: s.Prm.Alpha, mesher: s.Mesher, green: s.Green(), pool: grid.NewPool()}
		r.levels = []*grid.G{grid.New(n[0], n[1], n[2])}
		r.phi = grid.New(n[0], n[1], n[2])
		r.plan = fft.NewRealPlan3(n[0], n[1], n[2])
		r.spec = make([]complex128, r.plan.SpectrumLen())
		return r, nil
	default:
		return nil, fmt.Errorf("perfbench: no layer replay for mesh solver %T", s)
	}
}

// solve replays LongRange(pos, q, f), returning the mesh + self energy.
func (r *meshReplay) solve(tr *Tracer, pos []vec.V, q []float64, f []vec.V) float64 {
	root := tr.Begin(r.name)
	qg := r.levels[0]
	qg.Zero()
	sp := tr.Begin("pmesh.assign")
	r.mesher.AssignTo(qg, pos, q)
	tr.End(sp, int64(len(pos)))

	var phi *grid.G
	if r.tme == nil {
		r.topSolve(tr, r.phi, qg)
		phi = r.phi
	} else {
		J := r.tme.TwoScale()
		L := len(r.up)
		for l := 0; l < L; l++ {
			sp := tr.Begin("grid.restrict")
			grid.RestrictInto(r.levels[l+1], r.levels[l], J, r.pool)
			tr.End(sp, int64(r.levels[l].Len()))
		}
		r.topSolve(tr, r.phiTop, r.levels[L])
		phi = r.phiTop
		kern := r.tme.Kernels()
		kernZ := r.tme.LevelZKernels()
		for l := L - 1; l >= 0; l-- {
			up := r.up[l]
			sp := tr.Begin("grid.prolong")
			grid.ProlongInto(up, phi, J, r.pool)
			tr.End(sp, int64(up.Len()))
			for v := range kern {
				sp := tr.Begin("grid.conv")
				grid.ConvSeparableAccum(up, r.levels[l], kern[v][0], kern[v][1], kernZ[l][v], r.t1[l], r.t2[l])
				tr.End(sp, int64(up.Len()))
			}
			phi = up
		}
	}
	sp = tr.Begin("pmesh.interp")
	e := r.mesher.Interpolate(phi, pos, q, f)
	tr.End(sp, int64(len(pos)))
	e += ewald.SelfEnergy(q, r.alpha)
	tr.End(root, 0)
	return e
}

// topSolve is the reciprocal-space solve Φ = IFFT(G̃·FFT(Q)) as
// spme.Solver.PotentialGridInto performs it.
func (r *meshReplay) topSolve(tr *Tracer, phi, q *grid.G) {
	n := q.N
	sp := tr.Begin("fft")
	r.plan.Forward(q.Data, r.spec)
	tr.End(sp, int64(q.Len()))
	hx := r.plan.Hx
	for kz := 0; kz < n[2]; kz++ {
		for ky := 0; ky < n[1]; ky++ {
			for kx := 0; kx < hx; kx++ {
				r.spec[kx+hx*(ky+n[1]*kz)] *= complex(r.green[kx+n[0]*(ky+n[1]*kz)], 0)
			}
		}
	}
	sp = tr.Begin("fft")
	r.plan.Inverse(r.spec, phi.Data)
	tr.End(sp, int64(q.Len()))
}

// stepReplay re-executes the force evaluation of one MD step, layer by
// layer, on the step's positions: the short-range pair engine (Verlet
// list or cell list, whichever the step uses), the long-range solve and
// the exclusion corrections, folded in the force field's order
// (short + (mesh + exclusion)). It owns every instance it calls, so the
// trajectory is never touched. Probe layers the step does not use are
// timed on the same positions for the per-layer costs of every workload.
type stepReplay struct {
	alpha  float64
	skin   float64 // the step's Verlet skin (0: cell-list path)
	vl     *nonbond.VerletList
	cl     *celllist.List
	own    *meshReplay // the step's long-range method; nil for cutoff
	probes []*meshReplay

	fShort, fCell, fMesh, fProbe, fSum []vec.V
	old                                []vec.V // positions before the step, for SETTLE

	nExcl int64 // excluded pairs, counted on first use

	// Counts the spans do not carry.
	usefulPairs int64
	ECoul, ELJ  float64
	EMesh       float64
	EExcl       float64
}

// newStepReplay builds the replay of cfg's force evaluation for an
// n-atom system in box. probeCfgs are extra long-range settings timed on
// the same positions (their results are not folded).
func newStepReplay(cfg mdConfig, box vec.Box, n int, probeCfgs []mdConfig) (*stepReplay, error) {
	skin := cfg.Skin
	listSkin := skin
	if listSkin == 0 {
		listSkin = 0.1 // the Verlet path is probed at the production skin
	}
	r := &stepReplay{
		alpha:  cfg.alpha(),
		skin:   skin,
		vl:     nonbond.NewVerletList(box, cfg.Rc, listSkin),
		cl:     celllist.New(box, cfg.Rc),
		fShort: make([]vec.V, n),
		fCell:  make([]vec.V, n),
		fMesh:  make([]vec.V, n),
		fProbe: make([]vec.V, n),
		fSum:   make([]vec.V, n),
		old:    make([]vec.V, n),
		nExcl:  -1,
	}
	if cfg.Method != "cutoff" {
		s, err := cfg.newSolver(box)
		if err != nil {
			return nil, err
		}
		if r.own, err = newMeshReplay(s); err != nil {
			return nil, err
		}
	}
	for _, pc := range probeCfgs {
		s, err := pc.newSolver(box)
		if err != nil {
			return nil, err
		}
		p, err := newMeshReplay(s)
		if err != nil {
			return nil, err
		}
		p.name = "probe." + p.name
		r.probes = append(r.probes, p)
	}
	return r, nil
}

// remember stores the positions a step starts from (the SETTLE reference).
func (r *stepReplay) remember(sys *md.System) { copy(r.old, sys.Pos) }

// replay re-executes the layer calls of the force evaluation at sys.Pos,
// leaving the folded forces in r.fSum, and — after a step, when stepped
// is set — the step's SETTLE from the remembered start positions. It
// must follow every force evaluation of the traced trajectory, the first
// one included, so the replay's Verlet list rebuilds on the same steps as
// the force field's.
func (r *stepReplay) replay(tr *Tracer, sys *md.System, stepped bool) {
	root := tr.Begin("replay")
	pos := sys.Pos
	if stepped {
		r.settle(tr, sys)
	}

	// Short range: the Verlet path.
	sv := tr.Begin("nonbond.verlet")
	sp := tr.Begin("nonbond.needs_rebuild")
	rebuild := r.vl.NeedsRebuild(pos)
	tr.End(sp, int64(len(pos)))
	if rebuild {
		sp = tr.Begin("nonbond.rebuild")
		r.vl.Rebuild(pos, sys.Excl)
		tr.End(sp, int64(len(pos)))
	}
	zero(r.fShort)
	sp = tr.Begin("nonbond.compute")
	res := r.vl.Compute(pos, sys.Q, sys.LJ, r.alpha, r.fShort)
	tr.End(sp, int64(r.vl.NPairs()))
	tr.End(sv, 0)
	r.usefulPairs += int64(res.Pairs)

	// Short range: the cell-list path.
	sc := tr.Begin("nonbond.cell")
	sp = tr.Begin("celllist.rebuild")
	r.cl.Rebuild(pos)
	tr.End(sp, int64(len(pos)))
	zero(r.fCell)
	sp = tr.Begin("nonbond.cell_compute")
	cres := nonbond.ComputeWithList(r.cl, sys.Box, pos, sys.Q, sys.LJ, r.alpha, sys.Excl, r.fCell)
	tr.End(sp, int64(cres.Pairs))
	tr.End(sc, 0)

	short, sres := r.fShort, res
	if r.skin == 0 {
		short, sres = r.fCell, cres
	}
	r.ECoul, r.ELJ = sres.ECoul, sres.ELJ

	// Long range plus exclusion corrections into the mesh buffer.
	zero(r.fMesh)
	r.EMesh, r.EExcl = 0, 0
	if r.own != nil {
		r.EMesh = r.own.solve(tr, pos, sys.Q, r.fMesh)
		sp = tr.Begin("ewald.excl")
		r.EExcl = ewald.ExclusionCorrection(sys.Box, pos, sys.Q, r.alpha, sys.Excl, r.fMesh)
		if r.nExcl < 0 {
			r.nExcl = int64(len(sys.Excl.Pairs()))
		}
		tr.End(sp, r.nExcl)
	}
	for _, p := range r.probes {
		zero(r.fProbe)
		p.solve(tr, pos, sys.Q, r.fProbe)
	}

	// The force field's merge: short-range + mesh, per atom.
	for i := range r.fSum {
		r.fSum[i] = short[i]
		if r.own != nil {
			r.fSum[i] = r.fSum[i].Add(r.fMesh[i])
		}
	}
	tr.End(root, 0)
}

// settle replays the step's SETTLE position constraints from the
// remembered start positions to the current ones.
func (r *stepReplay) settle(tr *Tracer, sys *md.System) {
	if sys.WaterModel == nil {
		return
	}
	sp := tr.Begin("constraint.settle")
	var sum vec.V
	for _, w := range sys.RigidWaters {
		a, b, c := sys.WaterModel.Settle(r.old[w[0]], r.old[w[1]], r.old[w[2]], sys.Pos[w[0]], sys.Pos[w[1]], sys.Pos[w[2]])
		sum = sum.Add(a).Add(b).Add(c)
	}
	tr.End(sp, int64(len(sys.RigidWaters)))
	settleSink = sum
}

// settleSink keeps the replayed SETTLE results live.
var settleSink vec.V

// check compares the replayed forces and energies with the step's.
func (r *stepReplay) check(sys *md.System, e md.Energies) error {
	for i, f := range sys.Frc {
		if f != r.fSum[i] {
			return fmt.Errorf("replayed force of atom %d is %v, the step's is %v", i, r.fSum[i], f)
		}
	}
	if r.ECoul != e.CoulShort || r.ELJ != e.LJ || r.EMesh != e.CoulLong || r.EExcl != e.CoulExcl {
		return fmt.Errorf("replayed energies (%v %v %v %v) differ from the step's (%v %v %v %v)",
			r.ECoul, r.ELJ, r.EMesh, r.EExcl, e.CoulShort, e.LJ, e.CoulLong, e.CoulExcl)
	}
	return nil
}

func zero(f []vec.V) {
	for i := range f {
		f[i] = vec.V{}
	}
}
