package nonbond

import (
	"tme4a/internal/celllist"
	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// VerletList is a buffered pair list ("Verlet list"): pairs within
// cutoff+skin are enumerated once and reused until any atom has moved more
// than skin/2, amortizing the cell-list traversal over many MD steps.
// This mirrors GROMACS' Verlet scheme (the paper's reference runs use
// verlet-buffer-tolerance) and the import-region buffering of the
// MDGRAPE-4A cells.
//
// The list is stored bucketed by the cell list's ownership slabs: same[s]
// holds the pairs fully owned by slab s, cross[s*ns+t] the pairs whose
// first atom slab s owns and whose second atom slab t owns. Rebuild fills
// the buckets in parallel (each slab's worker writes only its own buckets)
// and Compute evaluates them with owner-only force writes plus a deferred
// cross-slab pass, so both the pair list and the computed forces/energies
// are bitwise independent of GOMAXPROCS. Steady-state Rebuild and Compute
// allocate nothing.
//
// # Stored images
//
// Compute does no per-pair minimum-image rounding. Rebuild stores each
// atom's build-time image offset off_i = r_i − wrap(r_i) and, in each
// pair, the index of the lattice shift s_k (components −L, 0 or +L) that
// the cell list found for it, so that the pair displacement is
// d = (r_i − off_i) − (r_j − off_j) + s_k. While every atom stays within
// skin/2 of its build position, that stored image is the minimum image of
// every pair within the cutoff as long as no two images of a pair fit
// inside rc+skin, i.e. 2(rc+skin) < L. Smaller boxes (mdserve's side-2
// and side-3 waters) fold each displacement component into [−L/2, L/2]
// with one compare per axis (celllist.Fold).
type VerletList struct {
	Box    vec.Box
	Cutoff float64
	Skin   float64

	cl    *celllist.List
	ns    int
	same  [][]pair
	cross [][]pair
	dfrc  [][]vec.V // cell mode: deferred reaction forces, parallel to cross
	// dense[s] is slab s's private full-length reaction-force buffer in
	// direct mode, where nearly every pair crosses slabs (see pairScratch).
	dense  [][]vec.V
	part   []slabPartial
	npairs int
	ref    []vec.V   // positions at build time
	off    []vec.V   // build-time image offsets: ref[i] − wrap(ref[i])
	u      []vec.V   // Compute scratch: pos[i] − off[i]
	shift  [32]vec.V // by image index; 2^5 entries, so lookups need no bounds check
	fold   bool      // 2(rc+skin) ≥ min L: stored images may go stale
	n      int

	// o, when non-nil, times Rebuild as the neighbor stage and counts
	// rebuilds and buffered pairs.
	o *obs.Recorder
}

// SetObs attaches a stage recorder to the list and its backing cell list
// (nil detaches). Not safe to call concurrently with Rebuild.
func (v *VerletList) SetObs(r *obs.Recorder) {
	v.o = r
	if v.cl != nil {
		v.cl.SetObs(r)
	}
}

// pair is one buffered candidate: atom i, and in j the partner atom in
// the low imgShift bits plus the index of its image shift above them.
type pair struct {
	i int32
	j uint32
}

const (
	imgShift = 27 // 27 shift indices need 5 bits; atoms get the other 27
	atomMask = 1<<imgShift - 1
	maxAtoms = 1 << imgShift
)

func (p pair) atom() int { return int(p.j & atomMask) }

// NewVerletList creates an empty list; Rebuild must be called before use.
func NewVerletList(box vec.Box, cutoff, skin float64) *VerletList {
	return &VerletList{Box: box, Cutoff: cutoff, Skin: skin}
}

// Rebuild regenerates the pair list from the current positions. The atom
// count may differ from the previous build; all internal storage is
// resized and reused.
func (v *VerletList) Rebuild(pos []vec.V, excl *topol.Exclusions) {
	sp := v.o.Start(obs.StageNeighbor)
	defer sp.Stop()
	if len(pos) > maxAtoms {
		panic("nonbond: Verlet list holds at most 2^27 atoms")
	}
	n := len(pos)
	v.n = n
	if cap(v.ref) < n {
		v.ref = make([]vec.V, n)
		v.off = make([]vec.V, n)
		v.u = make([]vec.V, n)
	}
	v.ref, v.off, v.u = v.ref[:n], v.off[:n], v.u[:n]
	copy(v.ref, pos)

	if v.cl == nil {
		v.cl = celllist.New(v.Box, v.Cutoff+v.Skin)
		v.cl.SetObs(v.o)
		L := v.Box.L
		for k := range 27 {
			v.shift[k] = vec.V{float64(k%3-1) * L[0], float64(k/3%3-1) * L[1], float64(k/9-1) * L[2]}
		}
		v.fold = 2*(v.Cutoff+v.Skin) >= min(L[0], L[1], L[2])
	}
	v.cl.Rebuild(pos)
	w := v.cl.Wrapped()
	for i := range pos {
		v.off[i] = pos[i].Sub(w[i])
	}
	ns := v.cl.Slabs()
	v.ns = ns
	v.same = resizeBuckets(v.same, ns)
	v.cross = resizeBuckets(v.cross, ns*ns)
	if cap(v.part) < ns {
		v.part = make([]slabPartial, ns)
	}
	v.part = v.part[:ns]
	if v.cl.Direct() {
		if cap(v.dense) < ns {
			v.dense = make([][]vec.V, ns)
		}
		v.dense = v.dense[:ns]
		for s := range v.dense {
			if cap(v.dense[s]) < n {
				v.dense[s] = make([]vec.V, n)
			}
			v.dense[s] = v.dense[s][:n]
		}
	} else {
		if cap(v.dfrc) < ns*ns {
			old := v.dfrc
			v.dfrc = make([][]vec.V, ns*ns)
			copy(v.dfrc, old)
		}
		v.dfrc = v.dfrc[:ns*ns]
	}
	for b := range v.cross {
		v.cross[b] = v.cross[b][:0]
	}

	if par.WorkersGrain(ns, 1) == 1 {
		for s := 0; s < ns; s++ {
			v.fillSlab(s, excl)
		}
	} else {
		par.ForRangeGrain(ns, 1, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				v.fillSlab(s, excl)
			}
		})
	}

	v.npairs = 0
	for s := range v.same {
		v.npairs += len(v.same[s])
	}
	for b := range v.cross {
		v.npairs += len(v.cross[b])
		if v.dense != nil {
			continue
		}
		// Match the bucket's capacity, not its length: bucket populations
		// fluctuate a little between rebuilds, and sizing to the exact
		// length would reallocate dfrc on every one-pair growth.
		if cap(v.dfrc[b]) < cap(v.cross[b]) {
			v.dfrc[b] = make([]vec.V, cap(v.cross[b]))
		}
		v.dfrc[b] = v.dfrc[b][:len(v.cross[b])]
	}
	v.o.Add(obs.CounterVerletRebuilds, 1)
	v.o.Add(obs.CounterVerletPairs, int64(v.npairs))
}

// fillSlab collects slab s's candidate pairs into its own buckets; safe to
// run concurrently for distinct slabs.
func (v *VerletList) fillSlab(s int, excl *topol.Exclusions) {
	sm := v.same[s][:0]
	base := s * v.ns
	w := v.cl.Wrapped()
	h := v.Box.L.Scale(0.5)
	v.cl.ForEachPairInSlab(s, func(i, j int, d vec.V, r2 float64, tgt int) {
		if excl.Excluded(i, j) {
			return
		}
		// d − (w_i − w_j) is the lattice shift the cell list applied.
		k := imageDigit(d[0]-(w[i][0]-w[j][0]), h[0]) +
			3*imageDigit(d[1]-(w[i][1]-w[j][1]), h[1]) +
			9*imageDigit(d[2]-(w[i][2]-w[j][2]), h[2])
		pr := pair{int32(i), uint32(j) | k<<imgShift}
		if tgt == s {
			sm = append(sm, pr)
		} else {
			v.cross[base+tgt] = append(v.cross[base+tgt], pr)
		}
	})
	v.same[s] = sm
}

// imageDigit classifies one component of a lattice shift, ≈ −L, 0 or +L,
// as the base-3 digit 0, 1 or 2 of its index into VerletList.shift.
func imageDigit(s, h float64) uint32 {
	if s > h {
		return 2
	}
	if s < -h {
		return 0
	}
	return 1
}

func resizeBuckets(b [][]pair, n int) [][]pair {
	if cap(b) < n {
		old := b
		b = make([][]pair, n)
		copy(b, old)
	}
	return b[:n]
}

// NeedsRebuild reports whether the list is stale: the atom count changed
// since the last Rebuild, or any atom has moved more than skin/2 (the
// standard sufficient condition for list validity). The atom-count check
// comes first so a grown position slice is never compared against the
// shorter reference copy. Displacements are taken without minimum image:
// the stored image offsets are only valid for the build-time periodic
// image of each atom, so an atom re-wrapped into the box must force a
// rebuild.
func (v *VerletList) NeedsRebuild(pos []vec.V) bool {
	if len(pos) != v.n || v.n == 0 || len(v.ref) != v.n {
		return true
	}
	lim2 := v.Skin * v.Skin / 4
	for i := range pos {
		if pos[i].Sub(v.ref[i]).Norm2() > lim2 {
			return true
		}
	}
	return false
}

// NPairs returns the current buffered pair count.
func (v *VerletList) NPairs() int { return v.npairs }

// RefPositions returns the positions the current pair list was built from
// (nil before the first Rebuild). Checkpointing captures this slice so a
// resumed run can re-run Rebuild at exactly the build-time positions:
// Rebuild is a pure function of (positions, exclusions), so re-priming
// from the reference reproduces the pair buckets — and hence the per-pair
// summation order — bitwise, instead of forcing a fresh build at the
// resume positions that would reorder the sums. Callers must not mutate
// the returned slice.
func (v *VerletList) RefPositions() []vec.V {
	if v == nil || v.n == 0 {
		return nil
	}
	return v.ref[:v.n]
}

// Compute evaluates the short-range interactions over the buffered list
// (pairs beyond the true cutoff are skipped), accumulating forces into f.
// Exclusions were applied at Rebuild time. Parallel over slabs, bitwise
// deterministic at any GOMAXPROCS, and allocation-free.
//
//tme:noalloc
func (v *VerletList) Compute(pos []vec.V, q []float64, lj *LJ, alpha float64, f []vec.V) Result {
	ns := v.ns
	rc2 := v.Cutoff * v.Cutoff
	for i, o := range v.off {
		v.u[i] = pos[i].Sub(o)
	}
	if par.WorkersGrain(ns, 1) == 1 {
		for s := 0; s < ns; s++ {
			v.computeSlab(s, q, lj, alpha, f, rc2)
		}
		if f != nil {
			v.applyDeferred(f, 0, ns)
		}
	} else {
		par.ForRangeGrain(ns, 1, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				v.computeSlab(s, q, lj, alpha, f, rc2)
			}
		})
		if f != nil {
			par.ForRangeGrain(ns, 1, func(lo, hi int) {
				v.applyDeferred(f, lo, hi)
			})
		}
	}
	var res Result
	for s := 0; s < ns; s++ {
		res.ECoul += v.part[s].eCoul
		res.ELJ += v.part[s].eLJ
		res.Pairs += v.part[s].pairs
	}
	return res
}

// computeSlab evaluates slab s's buckets: same-slab pairs update both
// force entries, cross-slab pairs update the owned side and record the
// reaction force for the target slab's deferred pass.
//
//tme:noalloc
func (v *VerletList) computeSlab(s int, q []float64, lj *LJ, alpha float64, f []vec.V, rc2 float64) {
	p := &v.part[s]
	*p = slabPartial{}
	u, sh, fold := v.u, &v.shift, v.fold
	L, h := v.Box.L, v.Box.L.Scale(0.5)
	for _, pr := range v.same[s] {
		i, j := int(pr.i), pr.atom()
		d := u[i].Sub(u[j]).Add(sh[pr.j>>imgShift])
		if fold {
			d = foldImage(d, L, h)
		}
		r2 := d.Norm2()
		if r2 > rc2 {
			continue
		}
		p.pairs++
		eC, eLJ, fr := pairEval(q[i]*q[j], lj, i, j, alpha, r2)
		p.eCoul += eC
		p.eLJ += eLJ
		if f != nil && fr != 0 {
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	}
	dense := v.dense != nil
	var fs []vec.V
	if dense {
		fs = v.dense[s]
		clear(fs)
	}
	base := s * v.ns
	for tgt := 0; tgt < v.ns; tgt++ {
		if tgt == s {
			continue
		}
		b := base + tgt
		prs := v.cross[b]
		var dst []vec.V
		if !dense {
			dst = v.dfrc[b][:len(prs)]
		}
		for k, pr := range prs {
			var fv vec.V
			i, j := int(pr.i), pr.atom()
			d := u[i].Sub(u[j]).Add(sh[pr.j>>imgShift])
			if fold {
				d = foldImage(d, L, h)
			}
			r2 := d.Norm2()
			if r2 <= rc2 {
				p.pairs++
				eC, eLJ, fr := pairEval(q[i]*q[j], lj, i, j, alpha, r2)
				p.eCoul += eC
				p.eLJ += eLJ
				if f != nil && fr != 0 {
					fv = d.Scale(fr)
					f[i] = f[i].Add(fv)
					if dense {
						fs[j] = fs[j].Sub(fv)
					}
				}
			}
			if !dense {
				dst[k] = fv
			}
		}
	}
}

// foldImage folds each component of a stored-image displacement into
// [−L/2, L/2]: the minimum image in boxes too small to rule out a second
// image within rc+skin.
//
//tme:noalloc
func foldImage(d, L, h vec.V) vec.V {
	for a := range d {
		d[a] = celllist.Fold(d[a], L[a], h[a])
	}
	return d
}

// applyDeferred applies the reaction forces owed to target slabs
// [mlo, mhi) in ascending source-slab order.
//
//tme:noalloc
func (v *VerletList) applyDeferred(f []vec.V, mlo, mhi int) {
	if v.dense != nil {
		applyDense(f, v.dense, mlo, mhi, v.n)
		return
	}
	ns := v.ns
	for m := mlo; m < mhi; m++ {
		for src := 0; src < ns; src++ {
			if src == m {
				continue
			}
			b := src*ns + m
			prs := v.cross[b]
			fr := v.dfrc[b]
			for k := range prs {
				j := prs[k].atom()
				f[j] = f[j].Sub(fr[k])
			}
		}
	}
}
