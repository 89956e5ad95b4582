#!/bin/sh
# Tier-1 gate: formatting, vet, the tmevet invariant linter, build, full
# test suite, then the race detector over the parallelized packages (grid
# ops, particle mesh, FFT, TME core, SPME, par, the short-range stack:
# cell list, nonbond, md, the bonded/constraint/summation packages, the
# obs stage recorder whose atomic slots every parallel stage touches, the
# quadrature tables, the solver registry whose round-trip tests drive
# every registered method's parallel pipeline, the serve tier whose
# scheduler loop shares the job table with concurrent API readers, the
# dist halo-exchange layer, and the rank engine whose short equivalence
# matrix re-proves the bitwise rank-count invariance under the race
# detector every run, and the auto-tuner whose monitor the retune loop
# shares with the recorder), and a one-iteration benchmark smoke so the
# benchmarks themselves cannot rot. Fuzz smokes of the snapshot decoder
# (30s), the job-spec decoder (15s), the halo partition (10s) and the
# tuner's plan request (10s) keep the byte-level attack surfaces
# (arbitrary bytes into GobDecode, arbitrary JSON into the daemon,
# arbitrary geometry into the halo planner and the planner) continuously
# exercised beyond the committed seed corpora. A 20-step mdrun -tune run
# smokes the planner-to-engine wiring end to end.
# tmevet runs with the committed baseline (grandfathered noalloc-ipa
# findings in the deep engine, see DESIGN.md §7.8): any NEW finding fails
# the gate, and the deterministic JSON report lands in tmevet.json for CI
# to archive. A 10s fuzz smoke of the suppression-directive parser guards
# the one piece of comment grammar that can silence every other check.
# The frozen benchmark module (bench/, its own go.mod, invisible to ./...)
# compiles against internal/...: its unit, schema and smoke tests run last so
# an API change that would break the benchmark fails here, not in the driver.
# Run from the repo root:  ./tier1.sh
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/tmevet -baseline tmevet.baseline.json -json ./... > tmevet.json
go build ./...
go test ./...
go test -race ./internal/par/ ./internal/grid/ ./internal/pmesh/ \
	./internal/fft/ ./internal/spme/ ./internal/core/ \
	./internal/celllist/ ./internal/nonbond/ \
	./internal/ewald/ ./internal/msm/ ./internal/bonded/ \
	./internal/constraint/ ./internal/obs/ ./internal/ckpt/ \
	./internal/quad/ ./internal/solver/ ./internal/tune/ \
	./internal/serve/ ./internal/serve/loadgen/ ./internal/dist/
go test -race -short ./internal/md/ ./internal/expt/ ./internal/rank/
go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 30s ./internal/md/
go test -run '^$' -fuzz '^FuzzJobSpecDecode$' -fuzztime 15s ./internal/serve/
go test -run '^$' -fuzz '^FuzzHaloPartition$' -fuzztime 10s ./internal/dist/
go test -run '^$' -fuzz '^FuzzIgnoreDirective$' -fuzztime 10s ./internal/lint/
go test -run '^$' -fuzz '^FuzzPlanRequest$' -fuzztime 10s ./internal/tune/
go run ./cmd/mdrun -tune -errbudget 1e-3 -side 5 -steps 20 -report 10
go test -run '^$' -bench . -benchtime 1x . ./internal/nonbond/ > /dev/null
(cd bench && go test ./...)
