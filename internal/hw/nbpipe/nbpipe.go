// Package nbpipe models the timing of the MDGRAPE-4A nonbond pipelines:
// 64 dedicated units per SoC evaluating one pair interaction per cycle at
// 0.8 GHz (paper Sec. II).
//
// The functional model of the pipeline datapath — radial Coulomb
// functions from a segmented table with polynomial interpolation, no
// square root and no transcendental call per pair — is the engine's one
// pair kernel, internal/nonbond's pairEval over its x = α²r² table. This
// package holds only the cycle model.
package nbpipe

// PipesPerSoC and ClockGHz are the hardware constants.
const (
	PipesPerSoC = 64
	ClockGHz    = 0.8
)

// CyclesForPairs returns the pipeline-array cycles to evaluate n pair
// interactions on one SoC (one pair per pipeline per cycle).
//
// The hardware keeps its 64 pipelines busy by giving each a disjoint
// spatial region of the cell decomposition, with cross-boundary pair
// forces accumulated in a separate reduction phase. The software engine
// mirrors this exactly: celllist.ForEachPairInSlab partitions cells into
// worker-owned z-slabs, and nonbond defers cross-slab reaction forces to
// a second pass applied in fixed slab order — so the cycle count modeled
// here and the software's parallel decomposition count the same pairs in
// the same partitioning scheme.
func CyclesForPairs(n int) int {
	return (n + PipesPerSoC - 1) / PipesPerSoC
}

// TimeNs returns the wall time for n pair evaluations on one SoC.
func TimeNs(n int) float64 {
	return float64(CyclesForPairs(n)) / ClockGHz
}
