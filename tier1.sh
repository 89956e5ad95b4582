#!/bin/sh
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
go test -run '^$' -bench . -benchtime 1x . ./internal/nonbond/ ./internal/grid/ \
	./internal/pmesh/ ./internal/msm/ ./internal/core/ > /dev/null
(cd bench && go test ./...)
