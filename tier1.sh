#!/bin/sh
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/tmevet -json ./... > tmevet.json
go build ./...
# The pair loop must not regain a call per pair: the minimum image and the
# pair-kernel pieces stay inlinable and are inlined in the pair loop and the
# direct-mode traversal (internal/nonbond/kernel.go).
inl=$(go build -gcflags=-m ./internal/vec/ ./internal/r2tab/ ./internal/nonbond/ ./internal/celllist/ 2>&1)
for want in \
	'vec.go:.*: can inline MinImage1$' \
	'r2tab.go:.*: can inline (\*Table).Segment$' \
	'r2tab.go:.*: can inline (\*Segment).Cubic$' \
	'kernel.go:.*: can inline coulomb$' \
	'kernel.go:.*: can inline ljEval$' \
	'celllist.go:.*: inlining call to vec.MinImage1$' \
	'verlet.go:.*: inlining call to vec.MinImage1$' \
	'verlet.go:.*: inlining call to r2tab.(\*Table).Segment$' \
	'verlet.go:.*: inlining call to coulomb$' \
	'verlet.go:.*: inlining call to (\*LJ).site$' \
	'verlet.go:.*: inlining call to ljEval$'; do
	echo "$inl" | grep -q "$want" || { echo "tier1: hot-loop inlining lost: $want" >&2; exit 1; }
done
go test ./...
# The force terms overlap as one nested par.For whose writes no lint check
# covers: the par tests pin that pattern under -race at several worker
# counts, and md's race run below covers the terms themselves.
go test -race -cpu 1,2,4 ./internal/par/
go test -race ./internal/grid/ ./internal/pmesh/ \
	./internal/fft/ ./internal/spme/ ./internal/core/ \
	./internal/celllist/ ./internal/nonbond/ \
	./internal/ewald/ ./internal/msm/ ./internal/bonded/ \
	./internal/constraint/ ./internal/obs/ ./internal/ckpt/ \
	./internal/quad/ ./internal/solver/ ./internal/tune/ \
	./internal/serve/ ./internal/dist/
go test -race -short ./internal/md/ ./internal/expt/ ./internal/rank/
go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 30s ./internal/md/
go test -run '^$' -fuzz '^FuzzJobSpecDecode$' -fuzztime 15s ./internal/serve/
go test -run '^$' -fuzz '^FuzzHaloPartition$' -fuzztime 10s ./internal/dist/
go test -run '^$' -fuzz '^FuzzIgnoreDirective$' -fuzztime 10s ./internal/lint/
go test -run '^$' -fuzz '^FuzzPlanRequest$' -fuzztime 10s ./internal/tune/
go run ./cmd/mdrun -tune -errbudget 1e-3 -side 5 -steps 20 -report 10
go test -run '^$' -bench . -benchtime 1x . ./internal/nonbond/ ./internal/grid/ \
	./internal/pmesh/ ./internal/msm/ ./internal/core/ ./internal/bspline/ \
	./internal/vec/ > /dev/null
(cd bench && go test ./...)
