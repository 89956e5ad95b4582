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
	"runtime"
	"sync"
	"time"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/serve"
	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// jobClass is one kind of job in the served mix.
type jobClass struct {
	name string
	spec serve.Spec // template; the fleet adds Name and Seed
	// perRun is the class's job count at the default budget; like the solo
	// step rates it turns -seconds into a fixed amount of work.
	perRun int
}

// mixClasses is the serve-mix traffic: many short 648-atom jobs, so that
// per-job build + equilibrate + validate + admit is a real share of
// turnaround and the SPME, MSM and tuner paths do work no solo workload
// gives them. msm-mid keeps the default g_c = 8 (g_c = 4 has a 1.1 % force
// error); cutoff-mid has no long-range term.
var mixClasses = []jobClass{
	{"tme-mid", serve.Spec{Method: "tme", Side: 6, Steps: 80, Equil: 20}, 6},
	{"spme-mid", serve.Spec{Method: "spme", Side: 6, Steps: 80, Equil: 20}, 3},
	{"auto-1e-3", serve.Spec{Method: "auto", ErrBudget: 1e-3, Side: 6, Steps: 80, Equil: 20}, 1},
	{"msm-mid", serve.Spec{Method: "msm", Side: 6, Steps: 40, Equil: 20}, 1},
	{"cutoff-mid", serve.Spec{Method: "cutoff", Side: 7, Steps: 40, Equil: 20}, 1},
}

const (
	pollEvery = 25 * time.Millisecond
	clients   = 2 // closed loop: each client has one job in flight
)

// fleetJob is one submission.
type fleetJob struct {
	class string
	spec  serve.Spec
}

// mixFleet builds the seed's job list: class counts from the budget, a
// seed-shuffled order, job i seeded 1000·seed + i.
func mixFleet(seed int64, sc scale) []fleetJob {
	classes := mixClasses
	counts := make([]int, len(classes))
	for c, cl := range classes {
		counts[c] = max(1, int(math.Round(float64(cl.perRun)*sc.seconds/defaultSeconds)))
	}
	if sc.smoke {
		classes, counts = classes[:3], []int{1, 1, 1}
	}
	var jobs []fleetJob
	for i, c := range jobOrder(counts, seed) {
		sp := sc.sized(classes[c].spec)
		sp.Name = fmt.Sprintf("%s-%02d", classes[c].name, i)
		sp.Seed = 1000*seed + int64(i)
		jobs = append(jobs, fleetJob{class: classes[c].name, spec: sp})
	}
	return jobs
}

// warmupJob is the one tme-mid job that setup_s runs to done.
func warmupJob(seed int64, sc scale) fleetJob {
	sp := sc.sized(mixClasses[0].spec)
	sp.Name, sp.Seed = "warm-up", 1000*seed+999
	return fleetJob{class: mixClasses[0].name, spec: sp}
}

// daemon is an in-process mdserve: scheduler, HTTP surface and a loopback
// listener. Durability runs through ckpt.MemFS, which keeps the whole
// spec/checkpoint/marker protocol on the path without the 4–9 ms swings
// real fsync has on a shared host.
type daemon struct {
	sched *serve.Scheduler
	srv   *http.Server
	base  string
	done  chan struct{}
}

// startDaemon builds and starts a daemon whose latency ring holds every
// step of totalSteps.
func startDaemon(totalSteps int) (*daemon, error) {
	sched, err := serve.New(serve.Config{
		Dir: "/bench", FS: ckpt.NewMemFS(),
		MaxActive: clients, Quantum: 25, CkptEvery: 50,
		// One ledger row per step, so energy_drift_rel sees every step.
		EnergyEvery: 1,
		LatWindow:   totalSteps + 1,
	})
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
		sched: sched,
		srv:   &http.Server{Handler: serve.NewServer(sched)},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // always ErrServerClosed: stop is the only way out
	}()
	return d, nil
}

// stop closes the listener and the scheduler and waits for both loops.
func (d *daemon) stop() {
	_ = d.srv.Close() // in-process loopback server: nothing to flush
	<-d.done
	d.sched.Close()
}

// jobRun is one job as its client saw it.
type jobRun struct {
	job         fleetJob
	status      serve.Status // terminal status, with the resolved spec
	submitMs    float64      // POST /jobs round trip
	firstStepMs float64      // submit → first poll showing step > 0
	turnS       float64      // submit → terminal
	submitAt    time.Time
	doneAt      time.Time
	rejected    int // 429 responses before admission
}

// client is one closed-loop API user on one connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// getJSON decodes a 200 response of GET path into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit posts the spec, waiting out 429 backpressure, and returns the
// admitted status.
func (c *client) submit(sp serve.Spec, run *jobRun) (serve.Status, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return serve.Status{}, err
	}
	for {
		resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return serve.Status{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return serve.Status{}, err
		}
		switch resp.StatusCode {
		case http.StatusCreated:
			var st serve.Status
			return st, json.Unmarshal(data, &st)
		case http.StatusTooManyRequests:
			run.rejected++
			time.Sleep(pollEvery)
		default:
			return serve.Status{}, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
	}
}

// run submits one job and polls it to a terminal state.
func (c *client) run(job fleetJob, tr *tracer, parent int) (jobRun, error) {
	run := jobRun{job: job, submitAt: time.Now()}
	id := tr.begin("serve.job:"+job.class, parent)
	defer tr.end(id)

	sid := tr.begin("serve.submit", id)
	st, err := c.submit(job.spec, &run)
	tr.end(sid)
	if err != nil {
		return run, err
	}
	run.submitMs = time.Since(run.submitAt).Seconds() * 1e3

	wid := tr.begin("serve.wait", id)
	defer tr.end(wid)
	for {
		if err := c.getJSON("/jobs/"+st.ID, &st); err != nil {
			return run, err
		}
		now := time.Now()
		if run.firstStepMs == 0 && st.Step > 0 {
			run.firstStepMs = now.Sub(run.submitAt).Seconds() * 1e3
		}
		if st.State.Terminal() {
			run.status, run.doneAt = st, now
			run.turnS = now.Sub(run.submitAt).Seconds()
			return run, nil
		}
		time.Sleep(pollEvery)
	}
}

// runFleet drives jobs through d from two closed-loop clients: even
// positions go to client A, odd to client B, no shared queue. It returns
// the runs in job order and the first-submit → last-done wall time.
func runFleet(d *daemon, jobs []fleetJob, tr *tracer, parent int) ([]jobRun, float64, error) {
	runs := make([]jobRun, len(jobs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(d.base)
			defer c.close()
			for i := k; i < len(jobs); i += clients {
				run, err := c.run(jobs[i], tr, parent)
				if err != nil {
					errs[k] = fmt.Errorf("job %s: %w", jobs[i].spec.Name, err)
					return
				}
				runs[i] = run
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	first, last := runs[0].submitAt, runs[0].doneAt
	for _, r := range runs[1:] {
		if r.submitAt.Before(first) {
			first = r.submitAt
		}
		if r.doneAt.After(last) {
			last = r.doneAt
		}
	}
	return runs, last.Sub(first).Seconds(), nil
}

func fleetSteps(jobs []fleetJob) int {
	n := 0
	for _, j := range jobs {
		n += j.spec.Steps
	}
	return n
}

// specConfig rebuilds the configuration a served job started from, the way
// serve.Spec builds it (lattice, then thermalisation at min(0.9, rc)).
// sp must be a resolved Status.Spec.
func specConfig(sp serve.Spec) config {
	sys := water.Build(sp.Side, sp.Side, sp.Side, sp.Box(), sp.Seed)
	if sp.Equil > 0 {
		water.Equilibrate(sys, sp.Equil, sp.Dt, sp.Temp, math.Min(0.9, sp.Rc), sp.Seed+1)
	}
	return config{box: sys.Box, pos: sys.Pos, q: sys.Q}
}

// specSolver constructs the long-range solver a resolved spec runs.
func specSolver(sp serve.Spec) (md.MeshSolver, float64, error) {
	alpha := spme.AlphaFromRTol(sp.Rc, rtol)
	mesh, err := solver.New(sp.Method, solver.Config{
		Alpha: alpha, Rc: sp.Rc, Order: order, N: [3]int{sp.Grid, sp.Grid, sp.Grid},
		Levels: sp.Levels, M: sp.M, Gc: sp.Gc, Kernel: sp.Kernel,
	}, sp.Box())
	return mesh, alpha, err
}

// maxAccConfigs caps the job configurations force_rel_err pools.
const maxAccConfigs = 6

// mixForceErr is serve-mix's force_rel_err: for every mesh class, the
// Table-1 error of the class's resolved solver pooled over the start
// configurations of the mix's first mesh jobs in the same box; the metric
// is the largest class error. A class with a budget (auto) is also held to
// it.
func mixForceErr(runs []jobRun, o *ops) (float64, error) {
	type refConfig struct {
		side int
		c    config
		ref  []vec.V
	}
	var cfgs []refConfig
	for _, r := range runs {
		if sp := r.status.Spec; sp.Method != "cutoff" && len(cfgs) < maxAccConfigs {
			c := specConfig(sp)
			cfgs = append(cfgs, refConfig{sp.Side, c, reference(c)})
		}
	}
	worst := 0.0
	seen := map[string]bool{}
	for _, r := range runs {
		sp := r.status.Spec
		if sp.Method == "cutoff" || seen[r.job.class] {
			continue
		}
		seen[r.job.class] = true
		mesh, alpha, err := specSolver(sp)
		if err != nil {
			return 0, fmt.Errorf("class %s: %w", r.job.class, err)
		}
		var num, den float64
		for _, rc := range cfgs {
			if rc.side == sp.Side {
				n, d := errTerms(mesh, alpha, sp.Rc, rc.c, rc.ref)
				num, den = num+n, den+d
			}
		}
		if den == 0 {
			return 0, fmt.Errorf("class %s: no pooled configuration has its box", r.job.class)
		}
		e := math.Sqrt(num / den)
		if sp.ErrBudget > 0 {
			o.check(e <= sp.ErrBudget, fmt.Sprintf("class %s: measured error %.3e above its budget %.0e", r.job.class, e, sp.ErrBudget))
		}
		worst = math.Max(worst, e)
	}
	return worst, nil
}

// ledger is the body of GET /jobs/{id}/energies.
type ledger struct {
	Rows []serve.EnergyPoint `json:"rows"`
}

// mixEnergyDrift is serve-mix's energy_drift_rel: energyDrift pooled over
// every job's per-step ledger (each job's changes scaled by its own mean
// kinetic energy). It also checks that every ledger is complete and finite.
func mixEnergyDrift(c *client, runs []jobRun, o *ops) (float64, error) {
	var d2 float64
	var n int
	for _, r := range runs {
		var led ledger
		if err := c.getJSON("/jobs/"+r.status.ID+"/energies", &led); err != nil {
			return 0, err
		}
		total := make([]float64, len(led.Rows))
		kinetic := make([]float64, len(led.Rows))
		finite := true
		for i, row := range led.Rows {
			total[i], kinetic[i] = row.Total, row.Kinetic
			finite = finite && isFinite(row.Total)
		}
		o.check(finite && len(led.Rows) == r.job.spec.Steps,
			fmt.Sprintf("job %s: ledger has %d rows for %d steps, finite=%t", r.job.spec.Name, len(led.Rows), r.job.spec.Steps, finite))
		if len(total) > 1 {
			d := energyDrift(total, kinetic)
			d2 += d * d * float64(len(total)-1)
			n += len(total) - 1
		}
	}
	if n == 0 {
		return 0, errors.New("no energy ledger rows")
	}
	return math.Sqrt(d2 / float64(n)), nil
}

// setupDaemon is what serve-mix's setup_s times: construct the daemon,
// start it, open the listener and run one tme-mid job to done.
func setupDaemon(totalSteps int, warm fleetJob, o *ops) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(totalSteps)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(d.base)
	defer c.close()
	run, err := c.run(warm, nil, -1)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	o.check(run.status.State == serve.StateDone, fmt.Sprintf("warm-up job ended %s: %s", run.status.State, run.status.Error))
	return d, time.Since(t0).Seconds(), nil
}

// checkServedHashes re-runs the first job of each named class outside any
// scheduler and holds the served final hash to it.
func checkServedHashes(runs []jobRun, classes []string, o *ops) error {
	for _, class := range classes {
		for _, r := range runs {
			if r.job.class != class {
				continue
			}
			want, err := r.status.Spec.RunDirect()
			if err != nil {
				return fmt.Errorf("RunDirect %s: %w", r.job.spec.Name, err)
			}
			o.check(r.status.FinalHash == fmt.Sprintf("%016x", want),
				fmt.Sprintf("job %s: served hash %s, direct run %016x", r.job.spec.Name, r.status.FinalHash, want))
			break
		}
	}
	return nil
}

// runServeMix is the untraced pass of serve-mix.
func runServeMix(seed int64, sc scale) (result, error) {
	o := &ops{}
	jobs := mixFleet(seed, sc)
	warm := warmupJob(seed, sc)
	totalSteps := fleetSteps(jobs) + warm.spec.Steps

	// Set up the daemon sc.replays times; the last one serves the fleet.
	setups := make([]float64, sc.replays)
	var d *daemon
	for r := range setups {
		if d != nil {
			d.stop()
		}
		var err error
		if d, setups[r], err = setupDaemon(totalSteps, warm, o); err != nil {
			return result{}, err
		}
	}
	defer d.stop()

	runs, wallS, err := runFleet(d, jobs, nil, -1)
	if err != nil {
		return result{}, err
	}
	for _, r := range runs {
		o.check(r.status.State == serve.StateDone && r.status.Step == r.job.spec.Steps,
			fmt.Sprintf("job %s ended %s at step %d: %s", r.job.spec.Name, r.status.State, r.status.Step, r.status.Error))
	}
	stats := d.sched.Stats()

	c := newClient(d.base)
	defer c.close()
	drift, err := mixEnergyDrift(c, runs, o)
	if err != nil {
		return result{}, err
	}

	// Live heap: every job terminal, scheduler not yet closed.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(d)

	ferr, err := mixForceErr(runs, o)
	if err != nil {
		return result{}, err
	}
	if err := checkServedHashes(runs, []string{"tme-mid", "spme-mid"}, o); err != nil {
		return result{}, err
	}
	o.check(ferr <= maxForceRelErr, fmt.Sprintf("serve-mix: force_rel_err %.3e above %.0e", ferr, maxForceRelErr))
	o.check(drift <= maxEnergyDrift, fmt.Sprintf("serve-mix: energy_drift_rel %.3e above %.0e", drift, maxEnergyDrift))

	return newResult(o, endToEnd, map[string]float64{
		"setup_s":          median(setups),
		"ns_per_day":       nsPerDay(fleetSteps(jobs), wallS),
		"step_ms_p50":      float64(stats.StepLatency.P50Ns) / 1e6,
		"force_rel_err":    ferr,
		"energy_drift_rel": drift,
		"live_heap_mb":     heapMB,
	}), nil
}
