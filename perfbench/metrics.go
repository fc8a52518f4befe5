package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics every untraced run reports, on every workload.
// On the MD workloads a "job" is one MD step; on serve_mix a "step" is
// one step the daemon served (its /stats step-latency ring).
var endToEnd = []metricDef{
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"ns_per_day", "ns/day"},
	{"jobs_per_s", "1/s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"setup_s", "s"},
	{"force_rel_err", "rel"},
	{"heap_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics every traced run reports, on every workload.
var perLayer = []metricDef{
	{"nonbond.verlet_ns_per_pair", "ns"},
	{"nonbond.pairs_per_step", "count"},
	{"nonbond.useful_pair_frac", "frac"},
	{"nonbond.rebuild_ms", "ms"},
	{"nonbond.steps_per_rebuild", "count"},
	{"nonbond.cell_ns_per_pair", "ns"},
	{"celllist.rebuild_ns_per_atom", "ns"},
	{"core.longrange_ms", "ms"},
	{"core.self_ms", "ms"},
	{"pmesh.assign_ns_per_atom", "ns"},
	{"pmesh.interp_ns_per_atom", "ns"},
	{"grid.conv_ns_per_point", "ns"},
	{"grid.restrict_ns_per_point", "ns"},
	{"grid.prolong_ns_per_point", "ns"},
	{"spme.longrange_ms", "ms"},
	{"fft.ns_per_point", "ns"},
	{"fft.transforms_per_step", "count"},
	{"ewald.excl_ns_per_pair", "ns"},
	{"constraint.settle_ns_per_water", "ns"},
	{"par.dispatch_us", "us"},
	{"par.allocs_per_dispatch", "count"},
	{"par.speedup_1to2", "x"},
	{"rank.comm_bytes_per_step", "B"},
	{"rank.speedup_1to2", "x"},
	{"solver.new_ms.spme", "ms"},
	{"solver.new_ms.tme", "ms"},
	{"tune.plan_ms", "ms"},
	{"ckpt.save_ms", "ms"},
	{"ckpt.bytes_per_save", "B"},
	{"serve.submit_ms", "ms"},
	{"serve.overhead_frac", "frac"},
	{"md.step_ms", "ms"},
	{"md.trace_overhead_frac", "frac"},
	{"md.allocs_per_step", "count"},
	{"md.energy_drift", "kJ/mol/atom/ns"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of the benchmark's output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// collect fills a Result's metrics from vals in the order of defs,
// failing on a missing or non-finite value.
func collect(defs []metricDef, vals map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perfbench: metric %s is %v", d.Name, v)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// quantile is the nearest-rank p-quantile of xs (xs is not modified).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// slope is the least-squares slope of ys against their index.
func slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
