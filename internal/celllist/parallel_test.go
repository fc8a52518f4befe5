package celllist

// Tests of the slab-ownership traversal that the parallel short-range
// engine builds on: slab coverage must equal the flat traversal, target
// slabs must respect the ownership contract, and Rebuild must reuse
// storage across atom-count changes.

import (
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/vec"
)

func pairSet(t *testing.T, fn func(emit func(i, j int))) map[[2]int]int {
	t.Helper()
	out := map[[2]int]int{}
	fn(func(i, j int) {
		if i > j {
			i, j = j, i
		}
		out[[2]int{i, j}]++
	})
	return out
}

// slabOf returns the slab owning atom i (recomputed from first principles
// for the test's own bookkeeping).
func slabOf(l *List, pos []vec.V, i int) int {
	if l.Direct() {
		nb := directSlabs(l.n)
		c := (l.n + nb - 1) / nb
		return i / c
	}
	w := l.Box.Wrap(pos[i])
	cz := int(w[2] / l.Box.L[2] * float64(l.nc[2]))
	if cz >= l.nc[2] {
		cz = l.nc[2] - 1
	}
	if cz < 0 {
		cz = 0
	}
	return cz
}

func TestSlabTraversalMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		n    int
		box  vec.Box
		rc   float64
	}{
		{"cells", 300, vec.Cubic(5), 1.0},
		{"threecells", 120, vec.Cubic(3.1), 1.0},
		{"direct", 150, vec.Cubic(2.0), 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pos := randomPositions(rng, tc.n, tc.box)
			l := Build(tc.box, tc.rc, pos)
			flat := pairSet(t, func(emit func(i, j int)) {
				l.ForEachPair(func(i, j int, d vec.V, r2 float64) { emit(i, j) })
			})
			slabbed := pairSet(t, func(emit func(i, j int)) {
				for s := 0; s < l.Slabs(); s++ {
					l.ForEachPairInSlab(s, func(i, j int, d vec.V, r2 float64, tgt int) {
						// Ownership contract: i is owned by s, j by tgt.
						if got := slabOf(l, pos, i); got != s {
							t.Fatalf("atom %d reported from slab %d but owned by %d", i, s, got)
						}
						if got := slabOf(l, pos, j); got != tgt {
							t.Fatalf("atom %d reported with target %d but owned by %d", j, tgt, got)
						}
						if !l.Direct() && tgt != s {
							up := (s + 1) % l.nc[2]
							if tgt != up {
								t.Fatalf("cell-mode cross-slab target %d from slab %d, want %d", tgt, s, up)
							}
						}
						emit(i, j)
					})
				}
			})
			if len(flat) != len(slabbed) {
				t.Fatalf("flat %d pairs, slabbed %d", len(flat), len(slabbed))
			}
			for k, c := range flat {
				if c != 1 {
					t.Errorf("pair %v seen %d times in flat traversal", k, c)
				}
				if slabbed[k] != 1 {
					t.Errorf("pair %v seen %d times in slab traversal", k, slabbed[k])
				}
			}
		})
	}
}

func TestRebuildReusesAcrossAtomCountChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	box := vec.Cubic(5)
	l := New(box, 1.0)
	for _, n := range []int{200, 350, 120, 350} {
		pos := randomPositions(rng, n, box)
		l.Rebuild(pos)
		fresh := Build(box, 1.0, pos)
		got := pairSet(t, func(emit func(i, j int)) {
			l.ForEachPair(func(i, j int, d vec.V, r2 float64) { emit(i, j) })
		})
		want := pairSet(t, func(emit func(i, j int)) {
			fresh.ForEachPair(func(i, j int, d vec.V, r2 float64) { emit(i, j) })
		})
		if len(got) != len(want) {
			t.Fatalf("n=%d: reused list found %d pairs, fresh %d", n, len(got), len(want))
		}
		for k := range want {
			if got[k] != 1 {
				t.Fatalf("n=%d: pair %v missing from reused list", n, k)
			}
		}
	}
}

func TestRebuildSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(11))
	box := vec.Cubic(5)
	pos := randomPositions(rng, 400, box)
	l := New(box, 1.0)
	l.Rebuild(pos)
	allocs := testing.AllocsPerRun(10, func() {
		l.Rebuild(pos)
	})
	if allocs != 0 {
		t.Errorf("Rebuild allocates %.1f objects in steady state, want 0", allocs)
	}
}
