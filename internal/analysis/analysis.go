// Package analysis provides trajectory observables: radial distribution
// functions and mean-square displacements. The O–O g(r) of TIP3P water is
// the standard structural check that an MD stack produces a physical
// liquid (first peak near 0.28 nm), used by the analysis example to
// validate the whole engine end to end.
package analysis

import (
	"math"

	"tme4a/internal/celllist"
	"tme4a/internal/vec"
)

// RDF accumulates a radial distribution function between two site sets.
type RDF struct {
	RMax   float64
	Bins   int
	counts []float64
	frames int
	// density normalization accumulators
	nA, nB   int
	vol      float64
	sameSets bool
}

// NewRDF returns an accumulator with the given range and resolution.
func NewRDF(rmax float64, bins int) *RDF {
	return &RDF{RMax: rmax, Bins: bins, counts: make([]float64, bins)}
}

// AddFrame bins all A–B pairs within RMax for one configuration. Pass the
// same slice twice for a self-RDF (pairs are counted once and mirrored).
// Sites are indices into pos.
func (r *RDF) AddFrame(box vec.Box, pos []vec.V, sitesA, sitesB []int) {
	same := &sitesA[0] == &sitesB[0] && len(sitesA) == len(sitesB)
	r.sameSets = same
	r.nA, r.nB = len(sitesA), len(sitesB)
	r.vol = box.Volume()
	r.frames++
	dr := r.RMax / float64(r.Bins)

	// Use a cell list over the union for large site sets.
	if same {
		sub := make([]vec.V, len(sitesA))
		for i, s := range sitesA {
			sub[i] = pos[s]
		}
		cl := celllist.Build(box, r.RMax, sub)
		cl.ForEachPair(func(i, j int, d vec.V, r2 float64) {
			b := int(math.Sqrt(r2) / dr)
			if b < r.Bins {
				r.counts[b] += 2 // each pair contributes to both sites
			}
		})
		return
	}
	for _, a := range sitesA {
		for _, b := range sitesB {
			d := box.MinImage(pos[a].Sub(pos[b]))
			rr := d.Norm()
			if rr >= r.RMax || rr == 0 {
				continue
			}
			r.counts[int(rr/dr)]++
		}
	}
}

// G returns the bin centres and g(r) values normalized against the ideal
// gas at the B-site density.
func (r *RDF) G() (rs, g []float64) {
	rs = make([]float64, r.Bins)
	g = make([]float64, r.Bins)
	if r.frames == 0 {
		return rs, g
	}
	dr := r.RMax / float64(r.Bins)
	densB := float64(r.nB) / r.vol
	for b := 0; b < r.Bins; b++ {
		rlo := float64(b) * dr
		rhi := rlo + dr
		shell := 4.0 / 3.0 * math.Pi * (rhi*rhi*rhi - rlo*rlo*rlo)
		rs[b] = rlo + dr/2
		ideal := densB * shell * float64(r.nA) * float64(r.frames)
		if ideal > 0 {
			g[b] = r.counts[b] / ideal
		}
	}
	return rs, g
}

// FirstPeak returns the position and height of the first maximum of g(r)
// above the given minimum radius (to skip the excluded-volume hole).
func (r *RDF) FirstPeak(rmin float64) (pos, height float64) {
	rs, g := r.G()
	for b := 1; b < r.Bins-1; b++ {
		if rs[b] < rmin {
			continue
		}
		if g[b] > height {
			height = g[b]
			pos = rs[b]
		}
		// Stop after the curve has clearly descended from the peak.
		if height > 0 && g[b] < height*0.7 {
			break
		}
	}
	return pos, height
}

// MSD accumulates mean-square displacements against a reference frame,
// tracking unwrapped coordinates across periodic boundaries.
type MSD struct {
	box     vec.Box
	ref     []vec.V
	prev    []vec.V
	unwrap  []vec.V
	Samples []float64 // MSD per recorded frame (nm²)
}

// NewMSD starts tracking from the given configuration.
func NewMSD(box vec.Box, pos []vec.V) *MSD {
	m := &MSD{
		box:    box,
		ref:    append([]vec.V(nil), pos...),
		prev:   append([]vec.V(nil), pos...),
		unwrap: append([]vec.V(nil), pos...),
	}
	return m
}

// AddFrame records the MSD of the new configuration. Frames must be close
// enough in time that no particle moved more than half a box between
// calls (always true at MD time steps).
func (m *MSD) AddFrame(pos []vec.V) {
	var sum float64
	for i := range pos {
		step := m.box.MinImage(pos[i].Sub(m.prev[i]))
		m.unwrap[i] = m.unwrap[i].Add(step)
		m.prev[i] = pos[i]
		sum += m.unwrap[i].Sub(m.ref[i]).Norm2()
	}
	m.Samples = append(m.Samples, sum/float64(len(pos)))
}

// DiffusionCoefficient estimates D from the last fraction of the MSD curve
// via MSD = 6·D·t (dt is the time between recorded frames, ps; D in
// nm²/ps).
func (m *MSD) DiffusionCoefficient(dt float64) float64 {
	n := len(m.Samples)
	if n < 4 {
		return 0
	}
	// Least-squares slope over the second half.
	lo := n / 2
	var st, sy, stt, sty float64
	cnt := 0.0
	for i := lo; i < n; i++ {
		t := float64(i+1) * dt
		st += t
		sy += m.Samples[i]
		stt += t * t
		sty += t * m.Samples[i]
		cnt++
	}
	slope := (cnt*sty - st*sy) / (cnt*stt - st*st)
	return slope / 6
}
