package nonbond

import (
	"math"

	"tme4a/internal/units"
)

// The pair kernel is the functional model of the MDGRAPE-4A nonbond
// pipeline datapath (paper Sec. II): the radial Coulomb functions come
// from a segmented table with polynomial interpolation, with no square
// root and no transcendental call per pair.
//
// The table works in the reduced variable x = α²r². With
//
//	E(x) = erfc(√x)/√x,   G(x) = −2E′(x) = (2/√π)e^{−x}/x + erfc(√x)/x^{3/2},
//
// the screened Coulomb energy and radial force factor of a pair are
//
//	eC = qq·C·α·E(x),   fr = qq·C·α³·G(x),
//
// so one process-wide table serves every splitting parameter α. The table
// is indexed by the IEEE-754 bits of x: the exponent selects the octave
// and the top tabBits mantissa bits the entry, and the remaining 44
// mantissa bits are the interpolation coordinate t ∈ [0, 1) — no log, no
// divide. Each entry is a cubic Hermite segment for E and for G, fixed by
// the analytic values and derivatives at its two ends, so building the
// table needs no solve.
const (
	tabBits    = 8
	tabPerOct  = 1 << tabBits // entries per octave of x
	tabOctLo   = -6           // x ≥ 2^-6: r ≥ 0.04 nm at α = 3.1 nm⁻¹
	tabOctHi   = 4            // x < 2^4 = 16: erfc(√x) < 2e-8
	tabEntries = (tabOctHi - tabOctLo) * tabPerOct
	tabShift   = 52 - tabBits // bits of x below the entry index
	tabInvW    = 1.0 / (1 << tabShift)
)

// tabBase is the entry index (x's bits >> tabShift) of x = 2^tabOctLo.
const tabBase = (1023 + tabOctLo) << tabBits

// pairTab[k] holds the Horner coefficients of entry k: E ≈ c0+t(c1+t(c2+t·c3))
// in [0:4] and G likewise in [4:8] — one 64-byte cache line per lookup.
// It is static data filled once by init, never a heap object.
var pairTab [tabEntries][8]float64

func init() {
	for k := range pairTab {
		oct := tabOctLo + k/tabPerOct
		w := math.Ldexp(1, oct-tabBits) // entry width in x
		x0 := math.Ldexp(1, oct) + float64(k%tabPerOct)*w
		e0, g0, dg0 := screenedCoulomb(x0)
		e1, g1, dg1 := screenedCoulomb(x0 + w)
		// E′ = −G/2 by definition of G.
		hermite(pairTab[k][0:4], e0, e1, -0.5*g0*w, -0.5*g1*w)
		hermite(pairTab[k][4:8], g0, g1, dg0*w, dg1*w)
	}
}

// screenedCoulomb returns E(x), G(x) and G′(x) analytically.
func screenedCoulomb(x float64) (e, g, dg float64) {
	s := math.Sqrt(x)
	erfc := math.Erfc(s)
	gauss := math.Exp(-x) / sqrtPi
	e = erfc / s
	g = 2*gauss/x + erfc/(x*s)
	dg = -2*gauss/x - 3*gauss/(x*x) - 1.5*erfc/(x*x*s)
	return e, g, dg
}

// hermite stores the cubic on t ∈ [0, 1] with end values p0, p1 and end
// slopes m0, m1 (already scaled to the unit interval) as Horner
// coefficients.
func hermite(c []float64, p0, p1, m0, m1 float64) {
	c[0] = p0
	c[1] = m0
	c[2] = 3*(p1-p0) - 2*m0 - m1
	c[3] = 2*(p0-p1) + m0 + m1
}

// pairEval evaluates the erfc-screened Coulomb + Lennard-Jones kernel for
// one pair at squared distance r2, returning the two energy terms and the
// radial force factor fr such that F_i = fr·d (and F_j = −fr·d). The
// screened Coulomb term comes from pairTab; x = α²r² outside the table
// and alpha = 0 (plain Coulomb) take the analytic expressions.
//
//tme:noalloc
func pairEval(qq float64, lj *LJ, i, j int, alpha, r2 float64) (eC, eLJ, fr float64) {
	if qq != 0 {
		if alpha > 0 {
			a2 := alpha * alpha
			b := math.Float64bits(a2 * r2)
			if k := int(b>>tabShift) - tabBase; uint(k) < tabEntries {
				t := float64(b&(1<<tabShift-1)) * tabInvW
				c := &pairTab[k]
				qc := qq * units.Coulomb * alpha
				eC = qc * (c[0] + t*(c[1]+t*(c[2]+t*c[3])))
				fr = qc * a2 * (c[4] + t*(c[5]+t*(c[6]+t*c[7])))
			} else {
				r := math.Sqrt(r2)
				eC = qq * math.Erfc(alpha*r) / r * units.Coulomb
				fr += (eC + qq*units.Coulomb*alpha*twoOverSqrtPi*math.Exp(-a2*r2)) * (1 / r2)
			}
		} else {
			eC = qq / math.Sqrt(r2) * units.Coulomb
			fr += eC * (1 / r2)
		}
	}
	if lj != nil && lj.Eps[i] != 0 && lj.Eps[j] != 0 {
		eps := math.Sqrt(lj.Eps[i] * lj.Eps[j])
		sig := 0.5 * (lj.Sigma[i] + lj.Sigma[j])
		inv2 := 1 / r2
		sr2 := sig * sig * inv2
		sr6 := sr2 * sr2 * sr2
		sr12 := sr6 * sr6
		eLJ = 4 * eps * (sr12 - sr6)
		fr += 24 * eps * (2*sr12 - sr6) * inv2
	}
	return eC, eLJ, fr
}

const (
	sqrtPi        = 1.7724538509055160273
	twoOverSqrtPi = 2 / sqrtPi
)
