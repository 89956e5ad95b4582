package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// deadWriter fails every write, modeling a client whose connection is
// gone but whose request context was never canceled (a misbehaving
// proxy, or an http stack that only cancels on read).
type deadWriter struct{ header http.Header }

func (w *deadWriter) Header() http.Header       { return w.header }
func (w *deadWriter) WriteHeader(int)           {}
func (w *deadWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }
func (w *deadWriter) Flush()                    {}

// TestStreamStopsOnWriteError is the regression test for the errdrop
// finding tmevet surfaced in the stream handler: write errors were
// discarded, so a dead client streaming a job that never terminates left
// the handler polling forever at 10ms intervals. The scheduler is never
// started, so the queued job stays non-terminal for the whole test — the
// only way out of the loop is noticing the failed write.
func TestStreamStopsOnWriteError(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := mustSubmit(t, s, fastSpec(1, 1000))

	srv := NewServer(s)
	req := httptest.NewRequest("GET", "/jobs/"+st.ID+"/stream", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(&deadWriter{header: http.Header{}}, req)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream handler kept polling a non-terminal job after the client's writer failed")
	}
}

// TestEngineReleasedOnDone pins the retire split: a finished job's
// engine memory (its run) is freed on the scheduler goroutine
// once the job reaches a terminal state. Read after Close, which joins
// the loop goroutine, so the check races with nothing.
func TestEngineReleasedOnDone(t *testing.T) {
	s, err := New(Config{MaxActive: 1, Quantum: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := mustSubmit(t, s, fastSpec(3, 20))
	s.Start()
	if got := waitState(t, s, st.ID); got.State != StateDone {
		t.Fatalf("job ended %s, want done", got.State)
	}
	s.Close()
	j := s.jobs[st.ID]
	if j.run != nil {
		t.Error("terminal job retains engine state")
	}
}

// TestCancelQueuedStaysOffEngineFields is the schedown regression: Cancel
// runs on the caller's (HTTP) goroutine, and for a still-queued job it
// finalizes directly — which used to write the //tme:owner engine fields
// from the wrong goroutine. A queued job never had engine state, so after
// the split Cancel must terminate it without ever touching those fields.
func TestCancelQueuedStaysOffEngineFields(t *testing.T) {
	s, err := New(Config{MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := mustSubmit(t, s, fastSpec(5, 50)) // scheduler not started: stays queued
	got, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("canceled queued job is %s, want canceled", got.State)
	}
	j := s.jobs[st.ID]
	if j.run != nil {
		t.Error("queued job acquired engine state through Cancel")
	}
}
