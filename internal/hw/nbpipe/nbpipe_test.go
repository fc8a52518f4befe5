package nbpipe

import "testing"

func TestCycleModel(t *testing.T) {
	// 57,000 pairs/node (the paper's 80k-atom workload): 891 cycles
	// ≈ 1.1 µs — far below the GP bonded phase, which is why the paper's
	// bottleneck analysis points at the GP cores.
	if c := CyclesForPairs(57000); c != (57000+63)/64 {
		t.Errorf("cycles %d", c)
	}
	if ns := TimeNs(57000); ns < 1000 || ns > 1300 {
		t.Errorf("57k pairs take %.0f ns, expected ~1.1 µs", ns)
	}
}
