package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"tme4a/internal/obs"
	"tme4a/internal/tune"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"   // admitted, waiting for an active slot
	StateRunning  State = "running"  // holds an active slot, stepped in quanta
	StateDone     State = "done"     // completed its full step budget
	StateFailed   State = "failed"   // build, resume, durability or step error
	StateCanceled State = "canceled" // canceled by the client
)

// Terminal reports whether the state is final.
func (st State) Terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// EnergyPoint is one row of a job's streamed energy ledger.
type EnergyPoint struct {
	Step      int64   `json:"step"`
	Potential float64 `json:"potential"`
	Kinetic   float64 `json:"kinetic"`
	Total     float64 `json:"total"`
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID          string       `json:"id"`
	State       State        `json:"state"`
	Step        int          `json:"step"`
	Steps       int          `json:"steps"`
	Atoms       int          `json:"atoms,omitempty"`
	Error       string       `json:"error,omitempty"`
	ResumedFrom int64        `json:"resumed_from,omitempty"`
	FinalHash   string       `json:"final_hash,omitempty"`
	LastEnergy  *EnergyPoint `json:"last_energy,omitempty"`
	Spec        Spec         `json:"spec"`
}

// job is one admitted simulation. Its run is owned exclusively by the
// scheduler goroutine; everything the API reads concurrently lives under
// mu or in atomics. The obs recorder is lock-free by construction, so
// /metrics never contends with stepping.
type job struct {
	id   string
	spec Spec
	rec  *obs.Recorder

	cancel atomic.Bool

	mu          sync.Mutex
	state       State
	step        int
	err         string
	resumedFrom int64
	finalHash   uint64
	atoms       int
	energies    []EnergyPoint // preallocated to full capacity at start

	// The engine, set while the job runs; only functions reachable from
	// Scheduler.loop may write it (tmevet's schedown check).
	run *tune.Run //tme:owner Scheduler.loop
}

// status snapshots the job under its lock.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, State: j.state, Step: j.step, Steps: j.spec.Steps,
		Atoms: j.atoms, Error: j.err, ResumedFrom: j.resumedFrom, Spec: j.spec,
	}
	if j.state == StateDone {
		st.FinalHash = fmt.Sprintf("%016x", j.finalHash)
	}
	if n := len(j.energies); n > 0 {
		e := j.energies[n-1]
		st.LastEnergy = &e
	}
	return st
}

// energiesFrom returns up to max ledger rows starting at index from, plus
// the index of the next unread row.
func (j *job) energiesFrom(from, max int) ([]EnergyPoint, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(j.energies) {
		return nil, len(j.energies)
	}
	rows := j.energies[from:]
	if max > 0 && len(rows) > max {
		rows = rows[:max]
	}
	out := append([]EnergyPoint(nil), rows...)
	return out, from + len(out)
}

// durableState is the terminal marker persisted next to a job's spec so a
// restarted daemon lists finished jobs instead of resurrecting them.
type durableState struct {
	State     State  `json:"state"`
	Step      int    `json:"step"`
	FinalHash string `json:"final_hash,omitempty"`
	Error     string `json:"error,omitempty"`
}

const (
	specFileName  = "spec.json"
	stateFileName = "state.json"
	jobsDirName   = "jobs"
)

// jobDir returns the job's durability directory under root.
func jobDir(root, id string) string { return filepath.Join(root, jobsDirName, id) }
