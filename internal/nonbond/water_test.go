package nonbond_test

import (
	"math"
	"testing"

	"tme4a/internal/nonbond"
	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// TestPipelineMatchesAnalyticShortRange runs the full short-range force
// computation of a 216-water box through the table pair kernel — the
// functional model of the MDGRAPE-4A nonbond pipeline datapath — and
// compares it with an analytic erfc/exp double loop.
func TestPipelineMatchesAnalyticShortRange(t *testing.T) {
	box := water.CubicBoxFor(216)
	sys := water.Build(6, 6, 6, box, 5)
	alpha, rc := 2.75, 1.0

	fTable := make([]vec.V, sys.N())
	res := nonbond.Compute(sys.Box, sys.Pos, sys.Q, sys.LJ, alpha, rc, sys.Excl, fTable)

	fAnalytic := make([]vec.V, sys.N())
	eAnalytic := analyticShortRange(sys.Box, sys.Pos, sys.Q, sys.LJ, alpha, rc, sys.Excl, fAnalytic)

	var num, den float64
	for i := range fAnalytic {
		num += fTable[i].Sub(fAnalytic[i]).Norm2()
		den += fAnalytic[i].Norm2()
	}
	relF := math.Sqrt(num / den)
	eTable := res.ECoul + res.ELJ
	t.Logf("RMS relative force error %.2e, relative energy error %.2e", relF, math.Abs(eTable/eAnalytic-1))
	if relF > 1e-5 {
		t.Errorf("table-kernel force error %g vs analytic", relF)
	}
	if math.Abs(eTable-eAnalytic) > 1e-5*math.Abs(eAnalytic) {
		t.Errorf("table-kernel energy %g vs analytic %g", eTable, eAnalytic)
	}
}

// analyticShortRange is a reference short-range driver: minimum-image
// double loop, erfc-screened Coulomb from math.Erfc/math.Exp and
// Lorentz–Berthelot Lennard-Jones. Returns the total energy.
func analyticShortRange(box vec.Box, pos []vec.V, q []float64, lj *nonbond.LJ, alpha, rc float64, excl *topol.Exclusions, f []vec.V) float64 {
	var energy float64
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if excl.Excluded(i, j) {
				continue
			}
			d := box.MinImage(pos[i].Sub(pos[j]))
			r2 := d.Norm2()
			if r2 > rc*rc {
				continue
			}
			r := math.Sqrt(r2)
			qq := q[i] * q[j] * units.Coulomb
			e := qq * math.Erfc(alpha*r) / r
			fr := (e + qq*2*alpha/math.Sqrt(math.Pi)*math.Exp(-alpha*alpha*r2)) / r2
			if lj.Eps[i] != 0 && lj.Eps[j] != 0 {
				eps := math.Sqrt(lj.Eps[i] * lj.Eps[j])
				s6 := math.Pow(0.5*(lj.Sigma[i]+lj.Sigma[j]), 6) / (r2 * r2 * r2)
				e += 4 * eps * (s6*s6 - s6)
				fr += 24 * eps * (2*s6*s6 - s6) / r2
			}
			energy += e
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	}
	return energy
}
