package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"tme4a/internal/serve"
)

const (
	mixClients = 2                    // closed-loop clients, each waiting for its job
	pollEvery  = 5 * time.Millisecond // status poll interval, as serve/loadgen polls: far below a served job's latency (hundreds of ms) without loading the 2 CPUs with polls
	ckptEvery  = 40                   // steps between a job's checkpoints
	setupRuns  = 151                  // daemon start-ups per run; fsync latency makes each noisy
	clientWait = 120 * time.Second    // a job that takes longer than this fails the run
	autoBudget = 1e-3                 // err_budget of the mix's "auto" jobs
	mixErrCap  = 5e-3                 // force_rel_err ceiling of the mix's mesh jobs
	httpTO     = 30 * time.Second     // per-request timeout of the benchmark's HTTP client
)

// daemon is one mdserve instance on a loopback listener: the scheduler
// with a durable directory, its HTTP server, and a client.
type daemon struct {
	dir    string
	sched  *serve.Scheduler
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon brings up a scheduler over a fresh durable directory and
// serves its API on 127.0.0.1.
func startDaemon(dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	sched, err := serve.New(serve.Config{Dir: dir, CkptEvery: ckptEvery})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, err
	}
	sched.Start()
	d := &daemon{
		dir:    dir,
		sched:  sched,
		srv:    &http.Server{Handler: serve.NewServer(sched)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: httpTO},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server and the scheduler down, waits for both, and
// removes the durable directory.
func (d *daemon) stop() error {
	err := d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.sched.Close()
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// submit POSTs a spec and returns the admitted job's id.
func (d *daemon) submit(sp serve.Spec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit %s: %s: %s", sp.Name, resp.Status, data)
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// getJSON decodes a GET response into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// await polls a job every pollEvery until it is terminal.
func (d *daemon) await(id string) (serve.Status, error) {
	deadline := time.Now().Add(clientWait)
	for {
		var st serve.Status
		if err := d.getJSON("/jobs/"+id, &st); err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", id, st.State, clientWait)
		}
		time.Sleep(pollEvery)
	}
}

// jobRecord is one job of the closed loop.
type jobRecord struct {
	spec     int // index into the mix cycle
	submitS  float64
	doneS    float64
	submitMs float64
	st       serve.Status
	err      error
}

// closedLoop drives d with `clients` clients taking the mix cycle in
// order until `seconds` have passed and the last cycle is complete (or
// maxJobs are issued), so every run serves the mix's exact composition;
// each client submits its next job only after the previous one is done.
// Times are seconds from the loop's start.
func closedLoop(d *daemon, specs []serve.Spec, clients int, seconds float64, maxJobs int) []jobRecord {
	var mu sync.Mutex
	var recs []jobRecord
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if (time.Since(start).Seconds() >= seconds && next%len(specs) == 0) || (maxJobs > 0 && next >= maxJobs) {
					mu.Unlock()
					return
				}
				i := next % len(specs)
				next++
				mu.Unlock()
				r := jobRecord{spec: i, submitS: time.Since(start).Seconds()}
				id, err := d.submit(specs[i])
				r.submitMs = (time.Since(start).Seconds() - r.submitS) * 1e3
				if err == nil {
					r.st, err = d.await(id)
				}
				r.doneS = time.Since(start).Seconds()
				r.err = err
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// directHashes runs every spec of the cycle with Spec.RunDirect, the
// reference each served job's final hash must equal.
func directHashes(specs []serve.Spec) ([]string, error) {
	out := make([]string, len(specs))
	for i, sp := range specs {
		h, err := sp.RunDirect()
		if err != nil {
			return nil, err
		}
		out[i] = fmt.Sprintf("%016x", h)
	}
	return out, nil
}

// timeServeSetup measures the daemon's set-up: scheduler recovery over a
// fresh durable directory, the listener and server, up to the first job
// admitted.
func timeServeSetup(dir string, sp serve.Spec) (float64, error) {
	t0 := time.Now()
	d, err := startDaemon(dir)
	if err != nil {
		return 0, err
	}
	_, err = d.submit(sp)
	s := time.Since(t0).Seconds()
	if serr := d.stop(); err == nil {
		err = serr
	}
	return s, err
}

// mixRelErr is the mean force_rel_err of the cycle's mesh jobs on their
// first frame; each must also stay below mixErrCap. The "auto" jobs are
// held to that ceiling, not to their 1e-3 err_budget: on these tiny
// boxes the tuner's plans measure 1.2–2.2e-3 (see README.md).
func mixRelErr(specs []serve.Spec, out *outcome) (float64, error) {
	var errs []float64
	for _, sp := range specs {
		sp.Normalize()
		if sp.Method == "cutoff" {
			continue
		}
		sys, _, err := buildJob(sp)
		if err != nil {
			return 0, err
		}
		e, err := forceRelErr(jobConfig(sp), sys)
		if err != nil {
			return 0, err
		}
		if !(e <= mixErrCap) {
			out.fail("job %s: force_rel_err %.3g above the %.3g ceiling", sp.Name, e, mixErrCap)
		}
		errs = append(errs, e)
	}
	return mean(errs), nil
}

// runServe is the untraced serve_mix run.
func runServe(o options, steps int) (*outcome, error) {
	out := newOutcome()
	specs := mixSpecs(o.Seed, steps)
	dirOf := func(tag string) string {
		return filepath.Join(o.OutDir, fmt.Sprintf("serve-%s-%d", tag, os.Getpid()))
	}

	// The start-ups admit the cycle's first "auto" job, whose admission
	// plans its method (tune.PlanFor) before making the spec durable. A
	// plain admission is little more than two fsyncs, whose latency on a
	// shared virtual disk moved 2x between sets of runs. Flush what
	// earlier runs left to write back, so it does not queue ahead of
	// those fsyncs.
	auto := specs[slices.IndexFunc(specs, func(sp serve.Spec) bool { return sp.Method == "auto" })]
	syscall.Sync()
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		s, err := timeServeSetup(dirOf("setup"), auto)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	out.vals["setup_s"] = quantile(setups, 0.5)

	// The daemon keeps every job it served, so its heap is taken from a
	// daemon left idle after serving exactly one cycle, not after a run
	// whose job count grows with throughput.
	d, err := startDaemon(dirOf("heap"))
	if err != nil {
		return nil, err
	}
	heapRecs := closedLoop(d, specs, 1, math.Inf(1), len(specs))
	out.vals["heap_mb"] = heapMB()
	if err := d.stop(); err != nil {
		return nil, err
	}

	syscall.Sync()
	d, err = startDaemon(dirOf("run"))
	if err != nil {
		return nil, err
	}
	recs := closedLoop(d, specs, mixClients, o.Seconds, 0)
	var stats serve.Stats
	statsErr := d.getJSON("/stats", &stats)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if statsErr != nil {
		return nil, statsErr
	}

	want, err := directHashes(specs)
	if err != nil {
		return nil, err
	}
	var lat []float64
	var first, last float64 = math.Inf(1), 0
	doneSteps := 0
	for i, r := range append(heapRecs, recs...) {
		out.attempted++
		ok := r.err == nil && r.st.State == serve.StateDone && r.st.FinalHash == want[r.spec]
		if r.st.LastEnergy != nil && !finite(r.st.LastEnergy.Total) {
			ok = false
		}
		if !ok {
			out.failed++
			out.fail("job %s (%s): state %q hash %s, want done with %s (err %v)",
				r.st.ID, specs[r.spec].Name, r.st.State, r.st.FinalHash, want[r.spec], r.err)
			continue
		}
		if i < len(heapRecs) {
			continue // the heap daemon's jobs are checked, not timed
		}
		lat = append(lat, r.doneS-r.submitS)
		first = math.Min(first, r.submitS)
		last = math.Max(last, r.doneS)
		doneSteps += r.st.Steps
	}
	if len(lat) == 0 {
		return nil, errors.New("perfbench: serve_mix completed no job")
	}
	wall := last - first
	out.vals["jobs_per_s"] = float64(len(lat)) / wall
	out.vals["job_s_p50"] = quantile(lat, 0.5)
	out.vals["job_s_p90"] = quantile(lat, 0.9)
	out.vals["step_ms_p50"] = float64(stats.StepLatency.P50Ns) / 1e6
	out.vals["step_ms_p90"] = float64(stats.StepLatency.P90Ns) / 1e6
	out.vals["ns_per_day"] = float64(doneSteps) * dt * 1e-3 / wall * 86400
	out.vals["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)

	relErr, err := mixRelErr(specs, out)
	if err != nil {
		return nil, err
	}
	out.vals["force_rel_err"] = relErr
	out.info["jobs"] = len(recs)
	out.info["job_samples"] = len(lat)
	out.info["step_samples"] = stats.StepLatency.Samples
	out.info["setup_samples"] = len(setups)
	return out, nil
}
