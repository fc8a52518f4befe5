// Command perfbench is the repository's benchmark: one process per run
// generates a seeded workload, drives it through the public entry points
// of md, rank, serve and solver at GOMAXPROCS = nproc, checks the
// outputs, and prints one JSON result line. With --trace 1 it instead
// times calls into each layer and reports per-layer costs, writing the
// spans under .bench_build/spans. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
//
//	bash perfbench/run.sh --workload water1536_spme --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	// The solver registry's methods register themselves on import.
	_ "tme4a/internal/core"
	_ "tme4a/internal/msm"
	_ "tme4a/internal/spme"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	run   func(o options) (*outcome, error)
	trace func(o options) (*outcome, []Span, error)
}

// mdWorkload runs a water workload whose setting depends on the size.
func mdWorkload(name string, cfg func(size) mdConfig) workload {
	return workload{
		name:  name,
		run:   func(o options) (*outcome, error) { return runMD(o, cfg(o.Size)) },
		trace: func(o options) (*outcome, []Span, error) { return traceMD(o, cfg(o.Size)) },
	}
}

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []workload{
	mdWorkload("water1536_spme", productionSPME),
	mdWorkload("water1536_tme_rank2", rankTME),
	{
		name:  "serve_mix",
		run:   func(o options) (*outcome, error) { return runServe(o, mixSteps(o.Size)) },
		trace: func(o options) (*outcome, []Span, error) { return traceServe(o, mixSteps(o.Size)) },
	},
}

// mixSteps is the serve_mix job length: 100 steps, fewer in the tiny size.
func mixSteps(sz size) int {
	if sz == tinySize {
		return 10
	}
	return jobSteps
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs one workload and prints its result. It
// returns 0 when every output check passed, 1 when a check failed (the
// result is still printed), and 2 when the run could not complete.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(names, ","))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{Workload: w.name, Seed: *seed, Seconds: *seconds, Size: fullSize, OutDir: ".bench_build"}
	res, info, err := runWorkload(*w, o, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, e := range info["failed_checks"].([]string) {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w untraced or traced and assembles the result line and
// the information line printed before it.
func runWorkload(w workload, o options, traced bool) (Result, map[string]any, error) {
	var out *outcome
	var err error
	defs := endToEnd
	var spansPath string
	if traced {
		defs = perLayer
		var spans []Span
		out, spans, err = w.trace(o)
		if err == nil {
			spansPath, err = writeSpans(filepath.Join(o.OutDir, "spans"), w.name, o.Seed, spans)
		}
	} else {
		out, err = w.run(o)
	}
	if err != nil {
		return Result{}, nil, err
	}
	ms, err := collect(defs, out.vals)
	if err != nil {
		return Result{}, nil, err
	}
	info := map[string]any{
		"workload":      w.name,
		"seed":          o.Seed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.Seconds,
		"traced":        traced,
		"host":          hostFingerprint(),
		"samples":       out.info,
		"failed_checks": append([]string{}, out.errs...),
	}
	if spansPath != "" {
		info["spans"] = spansPath
	}
	res := Result{
		Correct:   len(out.errs) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   ms,
	}
	return res, info, nil
}
