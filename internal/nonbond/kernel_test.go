package nonbond

// Accuracy of the table pair kernel against references that share no code
// with the table: analytic erfc/exp expressions written out here, and the
// pre-table analytic kernel kept below as analyticPair.

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/units"
)

// analyticPair is the analytic pair kernel pairEval replaced: per pair one
// square root, one divide, one erfc and one exp for the screened Coulomb
// term. pairEval must reproduce it bitwise outside the table and at
// alpha = 0; BenchmarkPairKernel times the two against each other.
func analyticPair(qq float64, lj *LJ, i, j int, alpha, r2 float64) (eC, eLJ, fr float64) {
	r := math.Sqrt(r2)
	inv2 := 1 / r2
	if qq != 0 {
		if alpha > 0 {
			eC = qq * math.Erfc(alpha*r) / r * units.Coulomb
			fr += (eC + qq*units.Coulomb*alpha*(2/math.SqrtPi)*math.Exp(-alpha*alpha*r2)) * inv2
		} else {
			eC = qq / r * units.Coulomb
			fr += eC * inv2
		}
	}
	if lj != nil && lj.Eps[i] != 0 && lj.Eps[j] != 0 {
		eps := math.Sqrt(lj.Eps[i] * lj.Eps[j])
		sig := 0.5 * (lj.Sigma[i] + lj.Sigma[j])
		sr2 := sig * sig * inv2
		sr6 := sr2 * sr2 * sr2
		sr12 := sr6 * sr6
		eLJ = 4 * eps * (sr12 - sr6)
		fr += 24 * eps * (2*sr12 - sr6) * inv2
	}
	return eC, eLJ, fr
}

// alphaForRTol solves erfc(α·rc) = rtol by bisection, the rule every run
// mode uses to pick α from the cutoff.
func alphaForRTol(rc, rtol float64) float64 {
	lo, hi := 0.0, 100/rc
	for it := 0; it < 200; it++ {
		mid := 0.5 * (lo + hi)
		if math.Erfc(mid*rc) > rtol {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// kernelAlphas are the (α, rc) points the accuracy test covers: the
// production water step, the tuner's Table-1 cutoffs, mdserve's side-2 and
// side-3 boxes (rc = 0.45·L, and the tuner's 0.35·L fallback), and a
// sharper α whose table range ends inside the cutoff.
func kernelAlphas() [][2]float64 {
	var out [][2]float64
	add := func(rc, rtol float64) { out = append(out, [2]float64{alphaForRTol(rc, rtol), rc}) }
	add(1.0, 1e-5) // production: α ≈ 3.12
	for _, rc := range []float64{1.0, 1.25, 1.5} {
		add(rc, 1e-4)
	}
	for _, nmol := range []float64{8, 27} {
		L := math.Cbrt(nmol / units.TIP3PDensity)
		add(0.45*L, 1e-4)
		add(0.35*L, 1e-4)
	}
	out = append(out, [2]float64{2.3, 1.5}, [2]float64{5, 1.0})
	return out
}

// TestPairKernelAccuracy checks the table's screened Coulomb energy and
// force against erfc/exp over r ∈ [0.1 nm, rc] at every α the code runs
// with: relative error ≤ 1e-6 wherever x = α²r² ≤ 16.
func TestPairKernelAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	for _, ar := range kernelAlphas() {
		alpha, rc := ar[0], ar[1]
		var maxE, maxF float64
		for s := 0; s < 50000; s++ {
			r := 0.1 + (rc-0.1)*rng.Float64()
			if alpha*alpha*r*r > 16 {
				continue
			}
			qq := 1 - 2*rng.Float64()
			eC, _, fr := pairEval(qq, nil, 0, 1, alpha, r*r)
			erfc := math.Erfc(alpha * r)
			wantE := qq * units.Coulomb * erfc / r
			wantF := qq * units.Coulomb * (erfc/(r*r*r) + 2*alpha/math.Sqrt(math.Pi)*math.Exp(-alpha*alpha*r*r)/(r*r))
			maxE = math.Max(maxE, math.Abs(eC-wantE)/math.Abs(wantE))
			maxF = math.Max(maxF, math.Abs(fr-wantF)/math.Abs(wantF))
		}
		t.Logf("alpha=%.4f rc=%.3f: max rel err energy %.2e force %.2e", alpha, rc, maxE, maxF)
		if maxE > 1e-6 || maxF > 1e-6 {
			t.Errorf("alpha=%.4f rc=%.3f: max rel err energy %.2e force %.2e, want ≤ 1e-6", alpha, rc, maxE, maxF)
		}
	}
}

// TestPairKernelOutOfTable: x = α²r² below 2^-6 or from 16 up is
// evaluated analytically, bitwise equal to the pre-table kernel, and so is
// plain Coulomb at alpha = 0, Lennard-Jones included.
func TestPairKernelOutOfTable(t *testing.T) {
	lj := &LJ{Sigma: []float64{0.3, 0.32}, Eps: []float64{0.65, 0.4}}
	check := func(alpha, r2 float64) {
		t.Helper()
		for _, l := range []*LJ{nil, lj} {
			e1, l1, f1 := pairEval(-0.7, l, 0, 1, alpha, r2)
			e2, l2, f2 := analyticPair(-0.7, l, 0, 1, alpha, r2)
			if e1 != e2 || l1 != l2 || f1 != f2 {
				t.Errorf("alpha=%g r2=%g: (%v %v %v), analytic (%v %v %v)", alpha, r2, e1, l1, f1, e2, l2, f2)
			}
		}
	}
	for _, alpha := range []float64{2.3, 3.12, 9.5} {
		xLo := math.Ldexp(1, tabOctLo)
		xHi := math.Ldexp(1, tabOctHi)
		for _, x := range []float64{xLo * 0.999, xLo / 7, xHi, xHi * 1.001, 30} {
			check(alpha, x/(alpha*alpha))
		}
		// The table's first and last entries are its own.
		for _, x := range []float64{xLo, math.Nextafter(xHi, 0)} {
			e, _, _ := pairEval(1, nil, 0, 1, alpha, x/(alpha*alpha))
			if want, _, _ := analyticPair(1, nil, 0, 1, alpha, x/(alpha*alpha)); math.Abs(e-want) > 1e-6*math.Abs(want) {
				t.Errorf("alpha=%g x=%g: edge entry %v vs %v", alpha, x, e, want)
			}
		}
	}
	for _, r2 := range []float64{1e-6, 0.01, 0.25, 0.9, 4} {
		check(0, r2)
	}
}

// BenchmarkPairKernel times one pair evaluation (screened Coulomb plus
// Lennard-Jones on one pair in three, as between TIP3P oxygens) through
// the table kernel and through the analytic kernel it replaced, over
// separations spread uniformly in volume between 0.2 nm and rc = 1 nm at
// the production α. ns/op is ns/pair.
func BenchmarkPairKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m = 4096
	r2 := make([]float64, m)
	qq := make([]float64, m)
	for k := range r2 {
		r := math.Cbrt(0.008 + (1-0.008)*rng.Float64())
		r2[k] = r * r
		qq[k] = 1 - 2*rng.Float64()
	}
	lj := &LJ{Sigma: []float64{0.315, 0.315, 0}, Eps: []float64{0.636, 0.636, 0}}
	alpha := alphaForRTol(1.0, 1e-5)
	for _, k := range []struct {
		name string
		eval func(float64, *LJ, int, int, float64, float64) (float64, float64, float64)
	}{{"table", pairEval}, {"analytic", analyticPair}} {
		b.Run(k.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				p, j := i&(m-1), 2
				if p%3 == 0 {
					j = 1
				}
				eC, eLJ, fr := k.eval(qq[p], lj, 0, j, alpha, r2[p])
				sum += eC + eLJ + fr
			}
			if math.IsNaN(sum) {
				b.Fatal("NaN")
			}
		})
	}
}
