package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/tune"
)

// Sentinel errors the API layer maps to HTTP statuses.
var (
	// ErrQueueFull is returned by Submit when the bounded pending queue is
	// at capacity — the backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("serve: pending queue full")
	// ErrClosed is returned by Submit after Close (HTTP 503).
	ErrClosed = errors.New("serve: scheduler closed")
	// ErrUnknownJob is returned for ids the scheduler never issued (HTTP 404).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// ValidationError wraps a job-spec rejection so the API layer can answer
// 400 with the underlying Params.Validate message instead of a 500.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// Config parameterizes a Scheduler. Zero values select the documented
// defaults.
type Config struct {
	// Dir roots job durability (specs, checkpoints, terminal markers);
	// empty disables persistence entirely.
	Dir string
	// FS is the filesystem seam durability flows through; nil means the
	// real filesystem. Tests inject ckpt.MemFS / ckpttest.FaultFS here to
	// kill and resurrect the daemon deterministically.
	FS ckpt.FS
	// MaxActive bounds the jobs resident in the round-robin ring
	// (admission control). Default 8.
	MaxActive int
	// QueueCap bounds the pending queue; a full queue rejects submissions
	// with ErrQueueFull (backpressure). Default 64.
	QueueCap int
	// Quantum is the number of steps one job runs per scheduling turn.
	// Default 25.
	Quantum int
	// CkptEvery is the per-job checkpoint cadence in steps, meaningful
	// only with Dir set. Default 200; an empty Dir is what turns
	// persistence, checkpoints included, off.
	CkptEvery int
	// CkptKeep is the per-job checkpoint retention. Default 3.
	CkptKeep int
	// EnergyEvery is the energy-ledger cadence in steps. Default 10.
	EnergyEvery int
	// LatWindow is the step-latency ring capacity. Default 16384.
	LatWindow int
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = ckpt.OS()
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 8
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Quantum <= 0 {
		c.Quantum = 25
	}
	if c.CkptEvery <= 0 && c.Dir != "" {
		c.CkptEvery = 200
	}
	if c.CkptKeep <= 0 {
		c.CkptKeep = 3
	}
	if c.EnergyEvery <= 0 {
		c.EnergyEvery = 10
	}
	if c.LatWindow <= 0 {
		c.LatWindow = 1 << 14
	}
	return c
}

// Scheduler multiplexes admitted jobs over the shared worker pool: one
// scheduling loop steps the active jobs round-robin in bounded quanta, so
// every step still uses the full pool (par fans each force evaluation out
// to GOMAXPROCS workers) while N jobs share the machine fairly — the
// software form of time-sharing one accelerator pipeline.
//
// Determinism: the scheduler never feeds scheduling state into a
// trajectory. Each job's dynamics are a pure function of its Spec, so a
// job's bits are identical whether it ran alone, multiplexed among eight
// others, or across a kill/resume cycle.
type Scheduler struct {
	cfg Config
	fs  ckpt.FS
	dir string

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	ids     []string // every issued id, admission order
	active  []*job   // round-robin ring
	queue   []*job   // bounded pending queue
	rr      int      //tme:owner Scheduler.loop
	nextID  int
	started bool
	closed  bool

	submitted, completed, failed, canceled int64

	closing   atomic.Bool
	stepsDone atomic.Int64
	quanta    atomic.Int64

	// The latency ring is written only by the stepping loop; latMu guards
	// the snapshot reads in latency().
	latMu  sync.Mutex
	latBuf []int64 //tme:owner Scheduler.loop
	latIdx int     //tme:owner Scheduler.loop
	latN   int     //tme:owner Scheduler.loop

	loopDone chan struct{}
}

// New builds a scheduler and, when cfg.Dir is set, recovers every
// persisted job: terminal jobs are listed as-is, jobs whose spec does not
// decode are listed failed, and interrupted ones are re-admitted (in id
// order) and resume from their newest valid checkpoint when they next run.
// Call Start to begin stepping.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		fs:       cfg.FS,
		dir:      cfg.Dir,
		jobs:     make(map[string]*job),
		latBuf:   make([]int64, cfg.LatWindow),
		loopDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.dir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recover scans dir/jobs and rebuilds the job table. The directory scan
// is sorted (ckpt.FS contract), so recovered admission order — and hence
// the resumed round-robin schedule — is deterministic.
func (s *Scheduler) recover() error {
	jobsRoot := filepath.Join(s.dir, jobsDirName)
	if err := s.fs.MkdirAll(jobsRoot); err != nil {
		return fmt.Errorf("serve: create %s: %w", jobsRoot, err)
	}
	names, err := s.fs.ReadDir(jobsRoot)
	if err != nil {
		return fmt.Errorf("serve: scan %s: %w", jobsRoot, err)
	}
	for _, id := range names {
		dir := jobDir(s.dir, id)
		specData, err := s.fs.ReadFile(filepath.Join(dir, specFileName))
		if err != nil {
			continue // a job dir without a durable spec never fully existed
		}
		sp, err := DecodeSpec(specData)
		sp.Normalize()
		j := &job{id: id, spec: sp, rec: obs.New(), state: StateQueued}
		if err != nil {
			// One unreadable spec (corrupt, or written by a build with
			// fields this one lacks) fails that job, not the daemon.
			j.state, j.err = StateFailed, err.Error()
		} else if data, err := s.fs.ReadFile(filepath.Join(dir, stateFileName)); err == nil {
			var ds durableState
			if err := json.Unmarshal(data, &ds); err == nil && ds.State.Terminal() {
				j.state = ds.State
				j.step = ds.Step
				j.err = ds.Error
				if h, err := strconv.ParseUint(ds.FinalHash, 16, 64); err == nil {
					j.finalHash = h
				}
			}
		}
		s.jobs[id] = j
		s.ids = append(s.ids, id)
		if n, ok := parseID(id); ok && n >= s.nextID {
			s.nextID = n + 1
		}
		if !j.state.Terminal() {
			s.queue = append(s.queue, j)
			s.submitted++
		}
	}
	return nil
}

func parseID(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Start launches the scheduling loop. Submissions before Start queue up,
// which is how tests pin a deterministic admission order.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.loop()
}

// Close stops the scheduler promptly: the current quantum ends at the
// next step boundary and no further quanta run. In-flight jobs keep their
// durable checkpoints, so a new scheduler over the same Dir resumes them
// bitwise. Close is the graceful half of crash-consistency; the crash
// half needs no cooperation at all.
func (s *Scheduler) Close() {
	s.closing.Store(true)
	s.mu.Lock()
	wasStarted := s.started
	alreadyClosed := s.closed
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if wasStarted && !alreadyClosed {
		<-s.loopDone
	}
}

// Submit validates, persists and admits a job, returning its initial
// status. Spec errors come back as *ValidationError; a full queue as
// ErrQueueFull.
func (s *Scheduler) Submit(sp Spec) (Status, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Status{}, &ValidationError{Err: err}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, ErrClosed
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	// Make the spec durable before the job becomes visible: a daemon that
	// dies right after answering 201 must still know the job on restart.
	if s.dir != "" {
		dir := jobDir(s.dir, id)
		if err := s.fs.MkdirAll(dir); err != nil {
			return Status{}, fmt.Errorf("serve: create %s: %w", dir, err)
		}
		data, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			return Status{}, err
		}
		if err := ckpt.WriteFileAtomic(s.fs, dir, specFileName, data); err != nil {
			return Status{}, fmt.Errorf("serve: persist spec: %w", err)
		}
	}

	j := &job{id: id, spec: sp, rec: obs.New(), state: StateQueued}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, ErrClosed
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	s.jobs[id] = j
	s.ids = append(s.ids, id)
	s.queue = append(s.queue, j)
	s.submitted++
	s.cond.Broadcast()
	s.mu.Unlock()
	return j.status(), nil
}

// Cancel requests termination. A queued job cancels immediately; a
// running one stops at its next step boundary; a terminal one is left
// unchanged.
func (s *Scheduler) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, ErrUnknownJob
	}
	// Remove from the pending queue if it never reached the ring.
	for i, qj := range s.queue {
		if qj == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.mu.Unlock()
			j.cancel.Store(true)
			s.finalize(j, StateCanceled, "")
			return j.status(), nil
		}
	}
	s.mu.Unlock()
	j.cancel.Store(true)
	s.signal()
	return j.status(), nil
}

// Get returns a job's status.
func (s *Scheduler) Get(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownJob
	}
	return j.status(), nil
}

// List returns every known job's status in admission order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.ids...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j != nil {
			out = append(out, j.status())
		}
	}
	return out
}

// Metrics snapshots a job's per-stage obs report.
func (s *Scheduler) Metrics(id string, gomaxprocs int) (obs.Report, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return obs.Report{}, ErrUnknownJob
	}
	j.mu.Lock()
	atoms := j.atoms
	j.mu.Unlock()
	return j.rec.Report(id+"/"+j.spec.Method, atoms, gomaxprocs), nil
}

// Energies returns up to max ledger rows of a job starting at index from,
// plus the next unread index.
func (s *Scheduler) Energies(id string, from, max int) ([]EnergyPoint, int, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, 0, ErrUnknownJob
	}
	rows, next := j.energiesFrom(from, max)
	return rows, next, nil
}

// Latency summarizes the step-latency ring.
type Latency struct {
	Samples int   `json:"samples"`
	P50Ns   int64 `json:"p50_ns"`
	P90Ns   int64 `json:"p90_ns"`
	P99Ns   int64 `json:"p99_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// Stats is the scheduler-wide counter snapshot served at /stats.
type Stats struct {
	Active      int     `json:"active"`
	Queued      int     `json:"queued"`
	Submitted   int64   `json:"submitted"`
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
	Canceled    int64   `json:"canceled"`
	StepsDone   int64   `json:"steps_done"`
	Quanta      int64   `json:"quanta"`
	StepLatency Latency `json:"step_latency"`
}

// Stats snapshots the scheduler counters and latency quantiles.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Active:    len(s.active),
		Queued:    len(s.queue),
		Submitted: s.submitted,
		Completed: s.completed,
		Failed:    s.failed,
		Canceled:  s.canceled,
	}
	s.mu.Unlock()
	st.StepsDone = s.stepsDone.Load()
	st.Quanta = s.quanta.Load()
	st.StepLatency = s.latency()
	return st
}

func (s *Scheduler) latency() Latency {
	s.latMu.Lock()
	n := s.latN
	if n > len(s.latBuf) {
		n = len(s.latBuf)
	}
	samples := append([]int64(nil), s.latBuf[:n]...)
	s.latMu.Unlock()
	lat := Latency{Samples: n}
	if n == 0 {
		return lat
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := func(p int) int64 {
		idx := (n-1)*p/100 + 1
		if idx >= n {
			idx = n - 1
		}
		return samples[idx]
	}
	lat.P50Ns = q(50)
	lat.P90Ns = q(90)
	lat.P99Ns = q(99)
	lat.MaxNs = samples[n-1]
	return lat
}

// signal wakes the scheduling loop (e.g. after a cancel flag flip).
func (s *Scheduler) signal() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// loop is the scheduling loop: pick the next active job round-robin, run
// one quantum, repeat until closed.
func (s *Scheduler) loop() {
	defer close(s.loopDone)
	for {
		j := s.pick()
		if j == nil {
			return
		}
		s.runQuantum(j)
	}
}

// pick blocks until an active job exists (promoting queued jobs into free
// slots) and returns the next one in ring order, or nil when closed.
func (s *Scheduler) pick() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		for len(s.active) < s.cfg.MaxActive && len(s.queue) > 0 {
			j := s.queue[0]
			s.queue = s.queue[1:]
			s.active = append(s.active, j)
			j.mu.Lock()
			j.state = StateRunning
			j.mu.Unlock()
		}
		if len(s.active) > 0 {
			if s.rr >= len(s.active) {
				s.rr = 0
			}
			j := s.active[s.rr]
			s.rr++
			return j
		}
		s.cond.Wait()
	}
}

// runQuantum advances j by up to Quantum steps, then settles its state.
func (s *Scheduler) runQuantum(j *job) {
	var err error
	if j.run == nil {
		err = s.startJob(j)
	}
	ran := 0
	for err == nil && ran < s.cfg.Quantum && j.step < j.spec.Steps && !j.cancel.Load() && !s.closing.Load() {
		if err = s.stepOnce(j); err == nil && j.step < j.spec.Steps {
			j.run.Checkpoint() //tmevet:ignore errdrop -- deliberate: a failed checkpoint must not kill the simulation; the store counts the failure (obs ckpt_failures) and the previous durable checkpoint stays the resume point
		}
		ran++
	}
	s.quanta.Add(1)
	switch {
	case err != nil:
		// A failed start or step fails the job alone, for good: its marker
		// outlives restarts, and its neighbours run on.
		s.retire(j, StateFailed, err.Error())
	case j.cancel.Load() && j.step < j.spec.Steps:
		s.retire(j, StateCanceled, "")
	case j.step >= j.spec.Steps:
		j.mu.Lock()
		j.finalHash = md.StateHash(j.run.Sys)
		j.mu.Unlock()
		s.retire(j, StateDone, "")
	}
}

// retire ends a job the loop holds: it leaves the ring, is finalized and
// its run is freed, on the scheduler goroutine (tmevet schedown enforces
// this; Cancel finalizes a queued job, which has no run, directly).
func (s *Scheduler) retire(j *job, state State, errMsg string) {
	s.removeActive(j)
	s.finalize(j, state, errMsg)
	j.run = nil
}

// stepOnce advances j by exactly one step: step the run, record the
// step's wall latency into the ring, bump the step counter and the energy
// ledger. A failed step is returned unrecorded. Allocation-free at steady
// state (gated by TestStepOnceAllocs).
func (s *Scheduler) stepOnce(j *job) error {
	t0 := obs.Now()
	e, err := j.run.Step()
	lat := obs.Now() - t0
	if err != nil {
		return err
	}
	s.latMu.Lock()
	s.latBuf[s.latIdx] = lat
	s.latIdx++
	if s.latIdx >= len(s.latBuf) {
		s.latIdx = 0
	}
	if s.latN < len(s.latBuf) {
		s.latN++
	}
	s.latMu.Unlock()
	s.stepsDone.Add(1)
	j.mu.Lock()
	j.step++
	if (j.step%s.cfg.EnergyEvery == 0 || j.step == j.spec.Steps) && len(j.energies) < cap(j.energies) {
		j.energies = append(j.energies, EnergyPoint{
			Step: int64(j.step), Potential: e.Potential(), Kinetic: e.Kinetic, Total: e.Total(),
		})
	}
	j.mu.Unlock()
	return nil
}

// startJob starts j's run: from its newest valid checkpoint when it has
// one (bitwise resume), from the spec otherwise.
func (s *Scheduler) startJob(j *job) error {
	run := &tune.Run{Plan: j.spec.plan(), Dt: j.spec.Dt, Every: s.cfg.CkptEvery, Resume: true,
		Fresh: j.spec.fresh, Rec: j.rec, Log: io.Discard}
	if s.dir != "" {
		run.Dir, run.FS, run.Keep, run.Hash = filepath.Join(jobDir(s.dir, j.id), "ckpt"), s.fs, s.cfg.CkptKeep, j.spec.ConfigHash()
	}
	if err := run.Start(); err != nil {
		return err
	}
	j.run = run
	// The ledger is preallocated: steady-state stepping never grows it.
	j.mu.Lock()
	j.step, j.resumedFrom, j.atoms = run.Done, int64(run.Done), run.Sys.N()
	j.energies = make([]EnergyPoint, 0, j.spec.Steps/s.cfg.EnergyEvery+2)
	j.mu.Unlock()
	return nil
}

// removeActive drops j from the ring and wakes the promoter.
func (s *Scheduler) removeActive(j *job) {
	s.mu.Lock()
	for i, aj := range s.active {
		if aj == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			if i < s.rr && s.rr > 0 {
				s.rr--
			}
			break
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finalize moves j to a terminal state and persists the durable marker
// (the obs recorder stays queryable).
func (s *Scheduler) finalize(j *job, state State, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = errMsg
	ds := durableState{State: state, Step: j.step, Error: errMsg}
	if state == StateDone {
		ds.FinalHash = fmt.Sprintf("%016x", j.finalHash)
	}
	j.mu.Unlock()

	s.mu.Lock()
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateCanceled:
		s.canceled++
	}
	s.mu.Unlock()

	if s.dir != "" {
		if data, err := json.MarshalIndent(ds, "", "  "); err == nil {
			ckpt.WriteFileAtomic(s.fs, jobDir(s.dir, j.id), stateFileName, data) //tmevet:ignore errdrop -- best effort: a lost marker re-admits the job on restart, never corrupts it
		}
	}
}
