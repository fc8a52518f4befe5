package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsEmitEveryMetric runs every workload at the tiny size,
// untraced and traced, and checks that each run passes its output checks
// and reports every metric of its kind with the right unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			defs := endToEnd
			if traced {
				name += "/traced"
				defs = perLayer
			}
			t.Run(name, func(t *testing.T) {
				o := options{Workload: w.name, Seed: 5, Seconds: 0.3, Size: tinySize, OutDir: t.TempDir()}
				res, info, err := runWorkload(w, o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d checks=%v", res.Correct, res.Attempted, res.Failed, info["failed_checks"])
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				if traced {
					if _, err := os.Stat(info["spans"].(string)); err != nil {
						t.Errorf("spans file: %v", err)
					}
				}
			})
		}
	}
}

// TestResultLine checks the printed output: an information line, then
// the result as the last line, and exit code 2 for a bad workload.
func TestResultLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Fatalf("unknown workload: code %d, output %q", code, out.String())
	}
	if testing.Short() {
		return
	}
	res, info, err := runWorkload(workloads[1], options{Workload: workloads[1].name, Seed: 2, Seconds: 0.2, Size: tinySize, OutDir: t.TempDir()}, false)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range back {
		keys = append(keys, k)
	}
	if len(keys) != 4 || back["correct"] == nil || back["attempted"] == nil || back["failed"] == nil || back["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	host := info["host"].(map[string]any)
	for _, k := range []string{"nproc", "gomaxprocs", "go", "cpu_model", "l2_cache", "l3_cache"} {
		if _, ok := host[k]; !ok {
			t.Errorf("host fingerprint lacks %s", k)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads, metric names
// and units in step with the program.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.Name || c.json[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, c.json[i].Name, c.json[i].Unit, d.Name, d.Unit)
			}
		}
	}
}
