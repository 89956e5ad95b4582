package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tme4a/internal/ckpt"
	"tme4a/internal/ckpt/ckpttest"
	"tme4a/internal/solver"
)

// fastSpec is a small, quick job: 8 water molecules, cutoff electrostatics.
func fastSpec(seed int64, steps int) Spec {
	return Spec{Method: "cutoff", Side: 2, Steps: steps, Equil: 10, Seed: seed}
}

// meshSpec exercises a registry mesh method through the scheduler.
func meshSpec(method string, seed int64, steps int) Spec {
	return Spec{Method: method, Side: 2, Steps: steps, Equil: 10, Seed: seed, Grid: 16}
}

// waitState polls until the job reaches a terminal state or the deadline
// passes.
func waitState(t *testing.T, s *Scheduler, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s at step %d/%d", id, st.State, st.Step, st.Steps)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustSubmit(t *testing.T, s *Scheduler, sp Spec) Status {
	t.Helper()
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return st
}

// commitFS records, in order, the name of every file an atomic write
// commits: the rename that makes it visible.
type commitFS struct {
	ckpt.FS
	mu      sync.Mutex
	commits []string
}

func (c *commitFS) Rename(oldname, newname string) error {
	c.mu.Lock()
	c.commits = append(c.commits, newname)
	c.mu.Unlock()
	return c.FS.Rename(oldname, newname)
}

// quantum is one scheduling turn: job ran steps (From, To].
type quantum struct {
	Job      string
	From, To int
}

// TestTraceDeterministic pins the fair-share schedule: two equal jobs
// submitted before Start interleave in strict round-robin quanta, and the
// schedule is identical run over run. With the checkpoint cadence equal
// to the quantum, every turn ends in exactly one durable write — a
// checkpoint at the turn's last step, or the terminal marker of a job it
// finished — so the order those files are committed in is the order the
// turns ran in.
func TestTraceDeterministic(t *testing.T) {
	want := []quantum{
		{Job: "j000000", From: 0, To: 25},
		{Job: "j000001", From: 0, To: 25},
		{Job: "j000000", From: 25, To: 50},
		{Job: "j000001", From: 25, To: 50},
		{Job: "j000000", From: 50, To: 60},
		{Job: "j000001", From: 50, To: 60},
	}
	for run := 0; run < 2; run++ {
		fs := &commitFS{FS: ckpt.NewMemFS()}
		s, err := New(Config{Dir: "d", FS: fs, MaxActive: 2, Quantum: 25, CkptEvery: 25})
		if err != nil {
			t.Fatal(err)
		}
		a := mustSubmit(t, s, fastSpec(1, 60))
		b := mustSubmit(t, s, fastSpec(2, 60))
		s.Start()
		final := map[string]int{a.ID: waitState(t, s, a.ID).Step, b.ID: waitState(t, s, b.ID).Step}
		s.Close()
		var got []quantum
		last := map[string]int{}
		for _, name := range fs.commits {
			rel, err := filepath.Rel(filepath.Join("d", jobsDirName), name)
			if err != nil {
				t.Fatal(err)
			}
			id, file, _ := strings.Cut(rel, string(filepath.Separator))
			to := final[id]
			switch {
			case file == stateFileName:
			case strings.HasPrefix(file, "ckpt"+string(filepath.Separator)):
				if to, err = strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(file), "ckpt-"), ".tme")); err != nil {
					t.Fatalf("checkpoint name %s: %v", name, err)
				}
			default:
				continue // the job's spec, written at submission
			}
			got = append(got, quantum{Job: id, From: last[id], To: to})
			last[id] = to
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d quanta, want %d: %v", run, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("run %d: quantum %d = %+v, want %+v", run, i, got[i], want[i])
			}
		}
	}
}

// TestServedMatchesDirect is the tentpole acceptance: eight jobs, two of
// every registered mesh method and cutoff, multiplexed over the shared pool
// finish with trajectories bitwise identical to the same specs run alone,
// at GOMAXPROCS 1 and 4 and with one or eight of them active at a time — a
// job's bits must not depend on how many neighbours it shared the pool
// with.
func TestServedMatchesDirect(t *testing.T) {
	methods := append(solver.Names(), "cutoff")
	specs := make([]Spec, 2*len(methods))
	for i := range specs {
		if m := methods[i%len(methods)]; m == "cutoff" {
			specs[i] = fastSpec(int64(10+i), 30)
		} else {
			specs[i] = meshSpec(m, int64(10+i), 30)
		}
	}
	direct := make([]uint64, len(specs))
	for i, sp := range specs {
		h, err := sp.RunDirect()
		if err != nil {
			t.Fatalf("RunDirect(%d): %v", i, err)
		}
		direct[i] = h
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			for _, active := range []int{1, 8} {
				t.Run(fmt.Sprintf("active=%d", active), func(t *testing.T) {
					s, err := New(Config{MaxActive: active, Quantum: 7})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					ids := make([]string, len(specs))
					for i, sp := range specs {
						ids[i] = mustSubmit(t, s, sp).ID
					}
					s.Start()
					for i, id := range ids {
						st := waitState(t, s, id)
						if st.State != StateDone {
							t.Fatalf("job %s: state %s, err %q", id, st.State, st.Error)
						}
						want := fmt.Sprintf("%016x", direct[i])
						if st.FinalHash != want {
							t.Errorf("job %s (spec %d): served hash %s, direct %s — multiplexing leaked into the trajectory",
								id, i, st.FinalHash, want)
						}
					}
				})
			}
		})
	}
}

// TestKillAndResume kills the daemon mid-run — a torn checkpoint write
// followed by power loss, injected through FaultFS over DiskFS — then
// boots a fresh scheduler on the surviving bytes. Every job must recover
// and finish with exactly the bits of an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	specs := []Spec{fastSpec(21, 80), fastSpec(22, 80)}
	direct := make([]uint64, len(specs))
	for i, sp := range specs {
		h, err := sp.RunDirect()
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = h
	}

	mfs := ckpttest.NewDiskFS()
	// The third checkpoint write anywhere tears mid-buffer and the machine
	// dies: each job has durable checkpoints before the tear, and the torn
	// file itself must be rejected by CRC on recovery.
	ffs := ckpttest.NewFaultFS(mfs, ckpttest.Rule{Op: ckpttest.OpWrite, Match: "ckpt-", Nth: 3, Mode: ckpttest.ModeTorn})

	s1, err := New(Config{Dir: "svc", FS: ffs, MaxActive: 2, Quantum: 10, CkptEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = mustSubmit(t, s1, sp).ID
	}
	s1.Start()
	deadline := time.Now().Add(120 * time.Second)
	for !ffs.Crashed() {
		if time.Now().After(deadline) {
			t.Fatal("fault never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close() // the goroutine stops; every durability op has been dead since the crash

	s2, err := New(Config{Dir: "svc", FS: mfs, MaxActive: 2, Quantum: 10, CkptEvery: 10})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	listed := s2.List()
	if len(listed) != len(specs) {
		t.Fatalf("recovered %d jobs, want %d", len(listed), len(specs))
	}
	s2.Start()
	for i, id := range ids {
		st := waitState(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("job %s after resume: state %s, err %q", id, st.State, st.Error)
		}
		if st.ResumedFrom <= 0 {
			t.Errorf("job %s: ResumedFrom = %d, expected a checkpoint resume", id, st.ResumedFrom)
		}
		want := fmt.Sprintf("%016x", direct[i])
		if st.FinalHash != want {
			t.Errorf("job %s: resumed hash %s, direct %s — resume is not bitwise", id, st.FinalHash, want)
		}
	}
}

// TestRestartAfterClose is the graceful half: a closed daemon's jobs
// resume on a new scheduler over the same directory, and already-finished
// jobs are listed terminal instead of re-run.
func TestRestartAfterClose(t *testing.T) {
	mfs := ckpt.NewMemFS()
	spFast := fastSpec(31, 20)
	spSlow := fastSpec(32, 300)
	s1, err := New(Config{Dir: "svc", FS: mfs, MaxActive: 2, Quantum: 10, CkptEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	fastID := mustSubmit(t, s1, spFast).ID
	slowID := mustSubmit(t, s1, spSlow).ID
	s1.Start()
	st := waitState(t, s1, fastID)
	doneHash := st.FinalHash
	s1.Close()

	s2, err := New(Config{Dir: "svc", FS: mfs, MaxActive: 2, Quantum: 10, CkptEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Get(fastID)
	if err != nil {
		t.Fatalf("terminal job lost on restart: %v", err)
	}
	if got.State != StateDone || got.FinalHash != doneHash {
		t.Errorf("terminal job: state %s hash %s, want done %s", got.State, got.FinalHash, doneHash)
	}
	s2.Start()
	final := waitState(t, s2, slowID)
	if final.State != StateDone {
		t.Fatalf("slow job: %s err %q", final.State, final.Error)
	}
	want, err := spSlow.RunDirect()
	if err != nil {
		t.Fatal(err)
	}
	if final.FinalHash != fmt.Sprintf("%016x", want) {
		t.Errorf("slow job resumed hash %s, direct %016x", final.FinalHash, want)
	}
}

// TestRecoverListsUnreadableSpecAsFailed: a job directory whose spec no
// longer decodes — here one written while specs still carried mesh_every —
// is listed failed on restart instead of stopping the daemon, and a valid
// queued job next to it still runs to the bits of a solo run.
func TestRecoverListsUnreadableSpecAsFailed(t *testing.T) {
	mfs := ckpt.NewMemFS()
	persist := func(id string, doc any) {
		t.Helper()
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		dir := jobDir("svc", id)
		if err := mfs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := ckpt.WriteFileAtomic(mfs, dir, specFileName, data); err != nil {
			t.Fatal(err)
		}
	}
	sp := fastSpec(33, 20)
	sp.Normalize()
	// The old format: the normalized spec plus "mesh_every": 1.
	var old map[string]any
	data, _ := json.Marshal(sp)
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	old["mesh_every"] = 1
	persist("j000000", old)
	persist("j000001", sp)

	s, err := New(Config{Dir: "svc", FS: mfs, CkptEvery: 10})
	if err != nil {
		t.Fatalf("one unreadable spec stopped recovery: %v", err)
	}
	defer s.Close()
	st, err := s.Get("j000000")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "mesh_every") {
		t.Fatalf("old-format job: state %s, error %q; want failed naming mesh_every", st.State, st.Error)
	}
	s.Start()
	done := waitState(t, s, "j000001")
	want, err := sp.RunDirect()
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.FinalHash != fmt.Sprintf("%016x", want) {
		t.Fatalf("valid job: state %s hash %s err %q, want done %016x", done.State, done.FinalHash, done.Error, want)
	}
}

// TestCancel covers both cancellation paths: a queued job dies without
// ever running; a running job stops at a step boundary.
func TestCancel(t *testing.T) {
	s, err := New(Config{MaxActive: 1, Quantum: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	running := mustSubmit(t, s, fastSpec(41, 100_000))
	queued := mustSubmit(t, s, fastSpec(42, 100))
	if st, err := s.Cancel(queued.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("queued cancel: state %v err %v", st.State, err)
	}
	if st, _ := s.Cancel(queued.ID); st.State != StateCanceled {
		t.Errorf("second cancel changed state to %s", st.State)
	}
	s.Start()
	for {
		st, _ := s.Get(running.ID)
		if st.Step > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, running.ID)
	if st.State != StateCanceled {
		t.Fatalf("running cancel: state %s", st.State)
	}
	if st.Step <= 0 || st.Step >= st.Steps {
		t.Errorf("canceled at step %d of %d, expected mid-run", st.Step, st.Steps)
	}
	if _, err := s.Cancel("j999999"); err != ErrUnknownJob {
		t.Errorf("unknown cancel: %v", err)
	}
}

// TestBackpressure checks admission control: the pending queue is bounded
// and overflow is a typed rejection, not silent queuing.
func TestBackpressure(t *testing.T) {
	s, err := New(Config{MaxActive: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustSubmit(t, s, fastSpec(51, 50))
	mustSubmit(t, s, fastSpec(52, 50))
	if _, err := s.Submit(fastSpec(53, 50)); err != ErrQueueFull {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	s.Close()
	if _, err := s.Submit(fastSpec(54, 50)); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestShortMeshReachRejected: a mesh spec whose pair list could not reach
// every excluded pair is refused at admission as a *ValidationError.
func TestShortMeshReachRejected(t *testing.T) {
	s, err := New(Config{MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sp := meshSpec("tme", 1, 10)
	sp.Rc, sp.Skin = 0.1, 0.1
	var verr *ValidationError
	if _, err := s.Submit(sp); !errors.As(err, &verr) || !strings.Contains(err.Error(), "rc + skin") {
		t.Fatalf("Submit: %v, want a *ValidationError on rc + skin", err)
	}
}

// TestEnergiesLedger checks the streamed ledger: rows appear at the
// configured cadence, paging by index is stable, and the final step is
// always recorded.
func TestEnergiesLedger(t *testing.T) {
	s, err := New(Config{EnergyEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := mustSubmit(t, s, fastSpec(61, 45))
	s.Start()
	waitState(t, s, st.ID)
	rows, next, err := s.Energies(st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := []int64{10, 20, 30, 40, 45}
	if len(rows) != len(wantSteps) {
		t.Fatalf("ledger has %d rows (%v), want %d", len(rows), rows, len(wantSteps))
	}
	for i, w := range wantSteps {
		if rows[i].Step != w {
			t.Errorf("row %d at step %d, want %d", i, rows[i].Step, w)
		}
		if rows[i].Total == 0 {
			t.Errorf("row %d has zero total energy", i)
		}
	}
	if next != len(rows) {
		t.Errorf("next = %d, want %d", next, len(rows))
	}
	page, pnext, err := s.Energies(st.ID, 2, 2)
	if err != nil || len(page) != 2 || page[0].Step != 30 || pnext != 4 {
		t.Errorf("page from=2 max=2: rows %v next %d err %v", page, pnext, err)
	}
}

// TestStepOnceAllocs gates the steady-state serving loop at zero
// allocations per step, the same bar the engine hot paths meet.
func TestStepOnceAllocs(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := fastSpec(71, 100_000)
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	j := &job{id: "alloc", spec: sp, state: StateRunning}
	if err := s.startJob(j); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // warm the pair list and latency ring
		s.stepOnce(j)
	}
	if avg := testing.AllocsPerRun(100, func() { s.stepOnce(j) }); avg != 0 {
		t.Errorf("stepOnce allocates %.2f times per step; the serving loop must be allocation-free", avg)
	}
}

// TestStatsAndLatency checks the counter snapshot and that the latency
// ring produced ordered quantiles.
func TestStatsAndLatency(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := mustSubmit(t, s, fastSpec(81, 40))
	s.Start()
	waitState(t, s, st.ID)
	stats := s.Stats()
	if stats.Submitted != 1 || stats.Completed != 1 {
		t.Errorf("stats: %+v", stats)
	}
	if stats.StepsDone < 40 {
		t.Errorf("steps_done = %d, want >= 40", stats.StepsDone)
	}
	lat := stats.StepLatency
	if lat.Samples < 40 || lat.P50Ns <= 0 || lat.P50Ns > lat.P99Ns || lat.P99Ns > lat.MaxNs {
		t.Errorf("latency quantiles out of order: %+v", lat)
	}
}

// TestMetricsReport checks the per-job obs report is live and scoped to
// the one job.
func TestMetricsReport(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := mustSubmit(t, s, fastSpec(91, 30))
	s.Start()
	waitState(t, s, st.ID)
	rep, err := s.Metrics(st.ID, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Atoms != 24 {
		t.Errorf("report atoms = %d, want 24", rep.Atoms)
	}
	found := false
	for _, stg := range rep.Stages {
		if stg.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("report has no populated stages")
	}
	if _, err := s.Metrics("j424242", 1); err != ErrUnknownJob {
		t.Errorf("unknown metrics: %v", err)
	}
}

// TestFailingStepFailsOnlyItsJob: a spec that passes Validate but whose
// step panics — at dt 0.01 this side-3 TME box breaks the pair list's
// exclusion check at step 110 — fails that job, not the daemon. Its
// neighbour finishes with the bits of a solo run, and a new scheduler over
// the same directory lists the bad job failed instead of resuming it from
// its step-100 checkpoint into the same panic.
func TestFailingStepFailsOnlyItsJob(t *testing.T) {
	bad := Spec{Method: "tme", Side: 3, Steps: 1000, Dt: 0.01, Equil: 10}
	good := fastSpec(101, 60)
	want, err := good.RunDirect()
	if err != nil {
		t.Fatal(err)
	}
	mfs := ckpt.NewMemFS()
	cfg := Config{Dir: "svc", FS: mfs, MaxActive: 2, Quantum: 10, CkptEvery: 100}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	badID := mustSubmit(t, s1, bad).ID
	goodID := mustSubmit(t, s1, good).ID
	s1.Start()
	st := waitState(t, s1, badID)
	if st.State != StateFailed || st.Step != 109 || !strings.Contains(st.Error, "step 110") {
		t.Errorf("bad job: state %s at step %d, error %q; want failed at step 109 naming step 110", st.State, st.Step, st.Error)
	}
	if st := waitState(t, s1, goodID); st.State != StateDone || st.FinalHash != fmt.Sprintf("%016x", want) {
		t.Errorf("neighbour: state %s hash %s err %q, want done %016x", st.State, st.FinalHash, st.Error, want)
	}
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st, err := s2.Get(badID); err != nil || st.State != StateFailed || !strings.Contains(st.Error, "step 110") {
		t.Errorf("after restart the bad job is %s (error %q, %v), want failed naming step 110", st.State, st.Error, err)
	}
	s2.Start()
	if stats := s2.Stats(); stats.Queued != 0 || stats.Active != 0 || stats.StepsDone != 0 {
		t.Errorf("restarted scheduler has work: %+v", stats)
	}
}
