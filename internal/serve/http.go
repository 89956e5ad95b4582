package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"tme4a/internal/solver"
)

// Server exposes a Scheduler as the mdserve HTTP/JSON API:
//
//	POST   /jobs               submit a Spec           → 201 Status (400/429/503)
//	GET    /jobs               list all jobs           → 200 []Status
//	GET    /jobs/{id}          one job                 → 200 Status
//	DELETE /jobs/{id}          cancel                  → 200 Status
//	GET    /jobs/{id}/metrics  per-stage obs report    → 200 obs.Report
//	GET    /jobs/{id}/energies ledger rows ?from=&max= → 200 {rows, next}
//	GET    /jobs/{id}/stream   live CSV energy stream  → 200 text/csv (chunked)
//	GET    /stats              scheduler counters      → 200 Stats
//	GET    /methods            solver methods          → 200 []solver.Method
//	GET    /healthz            liveness                → 200 {"ok":true}
//
// Errors are JSON: {"error": "..."}.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer builds the API surface over s.
func NewServer(s *Scheduler) *Server {
	sv := &Server{sched: s, mux: http.NewServeMux()}
	sv.mux.HandleFunc("POST /jobs", sv.submit)
	sv.mux.HandleFunc("GET /jobs", sv.list)
	sv.mux.HandleFunc("GET /jobs/{id}", sv.get)
	sv.mux.HandleFunc("DELETE /jobs/{id}", sv.cancel)
	sv.mux.HandleFunc("GET /jobs/{id}/metrics", sv.metrics)
	sv.mux.HandleFunc("GET /jobs/{id}/energies", sv.energies)
	sv.mux.HandleFunc("GET /jobs/{id}/stream", sv.stream)
	sv.mux.HandleFunc("GET /stats", sv.stats)
	sv.mux.HandleFunc("GET /methods", sv.methods)
	sv.mux.HandleFunc("GET /healthz", sv.healthz)
	return sv
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { sv.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //tmevet:ignore errdrop -- status already committed by WriteHeader; nothing left to signal the client with
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// submitErrCode maps a Submit error to its HTTP status.
func submitErrCode(err error) int {
	var verr *ValidationError
	switch {
	case errors.As(err, &verr):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (sv *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	sp, err := DecodeSpec(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := sv.sched.Submit(sp)
	if err != nil {
		writeErr(w, submitErrCode(err), err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (sv *Server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sv.sched.List())
}

func (sv *Server) get(w http.ResponseWriter, r *http.Request) {
	st, err := sv.sched.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (sv *Server) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := sv.sched.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (sv *Server) metrics(w http.ResponseWriter, r *http.Request) {
	rep, err := sv.sched.Metrics(r.PathValue("id"), runtime.GOMAXPROCS(0))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (sv *Server) energies(w http.ResponseWriter, r *http.Request) {
	from := queryInt(r, "from", 0)
	max := queryInt(r, "max", 0)
	rows, next, err := sv.sched.Energies(r.PathValue("id"), from, max)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rows": rows, "next": next})
}

// stream writes the job's energy ledger as chunked CSV, following the
// live run until it reaches a terminal state (or the client goes away).
func (sv *Server) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := sv.sched.Get(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	// A write error means the client is gone; without checking it, a
	// non-terminal job whose context outlives the connection would keep
	// this handler polling forever (found by tmevet errdrop).
	if _, err := fmt.Fprintln(w, "step,potential,kinetic,total"); err != nil {
		return
	}
	writeRows := func(rows []EnergyPoint) error {
		for _, e := range rows {
			if _, err := fmt.Fprintf(w, "%d,%.17g,%.17g,%.17g\n", e.Step, e.Potential, e.Kinetic, e.Total); err != nil {
				return err
			}
		}
		return nil
	}
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		rows, n, err := sv.sched.Energies(id, next, 0)
		if err != nil {
			return
		}
		if writeRows(rows) != nil {
			return
		}
		next = n
		if flusher != nil {
			flusher.Flush()
		}
		st, err := sv.sched.Get(id)
		if err != nil || st.State.Terminal() {
			// Drain any rows appended between the read and the state check.
			if rows, _, err := sv.sched.Energies(id, next, 0); err == nil {
				writeRows(rows) //tmevet:ignore errdrop -- final drain; the handler returns either way
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (sv *Server) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sv.sched.Stats())
}

func (sv *Server) methods(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, solver.Methods())
}

func (sv *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}
