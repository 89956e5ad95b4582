// Command mdserve is the MD-as-a-service daemon: it serves the
// internal/serve job API over HTTP, multiplexing every submitted
// simulation across the shared worker pool in fair round-robin quanta.
//
// Usage:
//
//	mdserve -addr :8612 -dir mdserve-data
//
// Submit and watch a job:
//
//	curl -s localhost:8612/jobs -d '{"method":"tme","side":4,"steps":1000}'
//	curl -s localhost:8612/jobs/j000000
//	curl -s localhost:8612/jobs/j000000/metrics
//	curl -sN localhost:8612/jobs/j000000/stream
//
// With -dir set, jobs are durable: killing the daemon at any instant —
// including mid-checkpoint — and restarting it resumes every unfinished
// job from its newest valid checkpoint, bitwise identical to a run that
// was never interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tme4a/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8612", "listen address")
	dir := flag.String("dir", "mdserve-data", "durability root (specs, checkpoints); empty disables persistence")
	maxActive := flag.Int("max-active", 8, "concurrent jobs in the round-robin ring")
	queueCap := flag.Int("queue", 64, "pending-queue capacity (beyond it, submissions get 429)")
	quantum := flag.Int("quantum", 25, "steps per scheduling quantum")
	ckptEvery := flag.Int("ckpt-every", 200, "checkpoint cadence in steps (-dir \"\" turns persistence off)")
	ckptKeep := flag.Int("ckpt-keep", 3, "checkpoints retained per job")
	energyEvery := flag.Int("energy-every", 10, "energy-ledger cadence in steps")
	flag.Parse()

	cfg := serve.Config{
		Dir:         *dir,
		MaxActive:   *maxActive,
		QueueCap:    *queueCap,
		Quantum:     *quantum,
		CkptEvery:   *ckptEvery,
		CkptKeep:    *ckptKeep,
		EnergyEvery: *energyEvery,
	}
	err := checkFlags(cfg)
	var sched *serve.Scheduler
	if err == nil {
		sched, err = serve.New(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdserve: %v\n", err)
		os.Exit(1)
	}
	resumed := 0
	for _, st := range sched.List() {
		if !st.State.Terminal() {
			resumed++
		}
	}
	if resumed > 0 {
		fmt.Printf("mdserve: recovered %d unfinished job(s) from %s\n", resumed, *dir)
	}
	sched.Start()

	srv := &http.Server{Addr: *addr, Handler: serve.NewServer(sched)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("mdserve: listening on %s (max-active %d, quantum %d steps)\n", *addr, *maxActive, *quantum)

	select {
	case <-ctx.Done():
		fmt.Println("mdserve: shutting down")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "mdserve: %v\n", err)
		sched.Close()
		os.Exit(1)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx) //nolint:errcheck // best-effort drain before Close
	sched.Close()         // checkpoints stay durable; restart resumes
}

// checkFlags refuses the counts serve.Config would otherwise quietly
// replace with its defaults: each must be at least 1.
func checkFlags(c serve.Config) error {
	if c.CkptEvery < 1 {
		return fmt.Errorf("-ckpt-every %d: want a cadence of at least 1 step; -dir \"\" turns persistence off", c.CkptEvery)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-max-active", c.MaxActive}, {"-queue", c.QueueCap}, {"-quantum", c.Quantum},
		{"-ckpt-keep", c.CkptKeep}, {"-energy-every", c.EnergyEvery},
	} {
		if f.v < 1 {
			return fmt.Errorf("%s %d: want at least 1", f.name, f.v)
		}
	}
	return nil
}
