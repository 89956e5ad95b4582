#!/bin/sh
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/tmevet ./...
go build ./...
# The pair loop, listJob.eval in internal/nonbond/verlet.go, must not regain
# a call per pair: the kernel pieces (internal/nonbond/kernel.go) stay
# inlinable and are inlined within the loop's own lines, and its amd64 code
# calls nothing but the out-of-table fallback, the once-per-slab buffer
# clears and the runtime's panics. Nor may the list build's per-pair test,
# (*VerletList).pair, whose amd64 code calls only the entry append's
# growslice and write barrier, the stack check and the runtime's panics.
# The minimum image stays inlined in the cell list's direct-mode traversal.
loop=$(awk '/^func \(j listJob\) eval\(/ { s = NR } s && !e && /^}/ { e = NR } END { print s ":" e }' internal/nonbond/verlet.go)
inl=$(go build -gcflags=-m ./internal/vec/ ./internal/r2tab/ ./internal/nonbond/ ./internal/celllist/ 2>&1)
for want in \
	'vec.go:.*: can inline MinImage1$' \
	'r2tab.go:.*: can inline (\*Table).Segment$' \
	'r2tab.go:.*: can inline (\*Segment).Cubic$' \
	'kernel.go:.*: can inline coulomb$' \
	'kernel.go:.*: can inline ljEval$' \
	'kernel.go:.*: can inline exclusion$' \
	'celllist.go:.*: inlining call to vec.MinImage1$'; do
	echo "$inl" | grep -q "$want" || { echo "tier1: hot-loop inlining lost: $want" >&2; exit 1; }
done
for call in 'r2tab.(\*Table).Segment' 'coulomb' 'r2tab.(\*Segment).Cubic' 'ljEval' 'exclusion'; do
	echo "$inl" | grep "verlet.go:[0-9]*:[0-9]*: inlining call to $call\$" |
		awk -F: -v r="$loop" 'BEGIN { split(r, b, ":") } $2 >= b[1] && $2 <= b[2] { f = 1 } END { exit !f }' ||
		{ echo "tier1: $call is no longer inlined into the pair loop" >&2; exit 1; }
done
asm=$(go build -gcflags=-S ./internal/nonbond/ 2>&1)
calls=$(echo "$asm" |
	awk '/STEXT/ { p = ($1 == "tme4a/internal/nonbond.listJob.eval") } p && /\tCALL\t/' |
	grep -vE 'CALL	(tme4a/internal/nonbond\.\(\*kernel\)\.coulombOut\(SB\)|runtime\.(panic[A-Za-z]*\(SB\)|memclrNoHeapPointers\(SB\)|morestack_noctxt\(SB\)|duffzero\+[0-9]+))$' || true)
[ -z "$calls" ] || { echo "tier1: the pair loop calls $calls" >&2; exit 1; }
calls=$(echo "$asm" |
	awk '/STEXT/ { p = ($1 == "tme4a/internal/nonbond.(*VerletList).pair") } p && /\tCALL\t/' |
	grep -vE 'CALL	runtime\.(growslice|gcWriteBarrier[0-9]*|morestack_noctxt|panic[A-Za-z]*)\(SB\)$' || true)
[ -z "$calls" ] || { echo "tier1: the list build's pair test calls $calls" >&2; exit 1; }
# No fused multiply-add anywhere in internal/nonbond — the list build,
# whose distance tests decide which pairs the loop ever sees, the pair loop
# and the pieces inlined into it — nor in r2tab's lookup, the mesh's
# mirrored-tap convolution row, the direct convolution's row body, the MSM
# level-kernel construction and charge spreading and back interpolation,
# on an architecture that fuses (gc fuses x*y + z on arm64 unless the
# product is rounded with float64(x*y)), so they sum the same bits
# everywhere.
fma=$(GOARCH=arm64 go build -gcflags=-S ./internal/nonbond/ ./internal/r2tab/ ./internal/grid/ ./internal/pmesh/ ./internal/msm/ 2>&1 |
	awk '/STEXT/ { p = ($1 ~ /^tme4a\/internal\/(nonbond\..*|r2tab\.\(\*(Segment\)\.Cubic|Table\)\.Segment)|grid\.(ConvRow|directJob\.rows)|msm\.levelKernel3D(\.func[0-9]+)?|pmesh\.\(\*Mesher\)\.(gather|spread))$/) } p && /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/')
[ -z "$fma" ] || { echo "tier1: fused multiply-add in a fixed-order kernel on arm64:" >&2; echo "$fma" >&2; exit 1; }
go test ./...
# Parallel writes are the race detector's to catch, at several worker
# counts: the par tests pin the nested par.For the force terms overlap as,
# ewald's 512-atom box runs its closure bodies on more than one worker, and
# md's race run below covers the terms themselves.
go test -race -cpu 1,2,4 ./internal/par/ ./internal/ewald/
go test -race ./internal/grid/ ./internal/pmesh/ \
	./internal/fft/ ./internal/spme/ ./internal/core/ \
	./internal/celllist/ ./internal/nonbond/ \
	./internal/msm/ ./internal/bonded/ \
	./internal/constraint/ ./internal/obs/ ./internal/ckpt/ \
	./internal/quad/ ./internal/solver/ ./internal/tune/ \
	./internal/serve/ ./internal/dist/
go test -race -short ./internal/md/ ./internal/expt/ ./internal/rank/
# Each new corpus entry is minimised for at most 2 s: at Go's default of
# 60 s, FuzzSnapshotDecode's first minimisation took its whole budget
# (129 execs in 30 s).
go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 30s -fuzzminimizetime 2s ./internal/md/
go test -run '^$' -fuzz '^FuzzJobSpecDecode$' -fuzztime 15s -fuzzminimizetime 2s ./internal/serve/
go test -run '^$' -fuzz '^FuzzHaloPartition$' -fuzztime 10s -fuzzminimizetime 2s ./internal/dist/
go test -run '^$' -fuzz '^FuzzIgnoreDirective$' -fuzztime 10s -fuzzminimizetime 2s ./internal/lint/
go test -run '^$' -fuzz '^FuzzPlanRequest$' -fuzztime 10s -fuzzminimizetime 2s ./internal/tune/
go run ./cmd/mdrun -tune -errbudget 1e-3 -side 5 -steps 20 -report 10
# End-to-end resume: a run checkpointed at step 20 and resumed to step 40
# prints the straight run's step-40 energies byte for byte, plain and under
# the tuned plan, whose skin-0.1 Verlet list travels as its build positions.
smoke=$(mktemp -d)
go build -o "$smoke/mdrun" ./cmd/mdrun
for tune in '' '-tune -errbudget 1e-3'; do
	rm -rf "$smoke/ck"
	"$smoke/mdrun" $tune -side 4 -steps 40 -report 10 | grep -E '^ +40 ' > "$smoke/straight"
	"$smoke/mdrun" $tune -side 4 -steps 20 -report 10 -checkpoint-dir "$smoke/ck" -checkpoint-every 10 > /dev/null
	"$smoke/mdrun" $tune -side 4 -steps 40 -report 10 -checkpoint-dir "$smoke/ck" -resume | grep -E '^ +40 ' > "$smoke/resumed"
	test -s "$smoke/straight"
	cmp "$smoke/straight" "$smoke/resumed"
done
# The retune path end to end: the drift monitor reads the recorder's real,
# nested stage profile at every checkpoint boundary.
"$smoke/mdrun" -tune -errbudget 1e-3 -retune -side 5 -steps 40 -checkpoint-dir "$smoke/rt" -checkpoint-every 10 > /dev/null
# A watergen box is a checkpoint image: mdrun -in runs from it, and with
# one payload byte overwritten refuses it (exit 1), naming the CRC.
go build -o "$smoke/watergen" ./cmd/watergen
"$smoke/watergen" -side 3 -steps 10 -o "$smoke/w.tme" > /dev/null
"$smoke/mdrun" -in "$smoke/w.tme" -steps 5 > /dev/null
cp "$smoke/w.tme" "$smoke/bad.tme"
printf '\377' | dd of="$smoke/bad.tme" bs=1 seek=100 conv=notrunc 2> /dev/null
code=0
"$smoke/mdrun" -in "$smoke/bad.tme" -steps 5 > /dev/null 2> "$smoke/err" || code=$?
test "$code" -eq 1
grep -q 'CRC mismatch' "$smoke/err"
# A temperature mdrun cannot draw velocities at is a usage error (exit 1)
# naming the flag, not a run on NaN energies.
code=0
"$smoke/mdrun" -T -5 -steps 1 > /dev/null 2> "$smoke/err" || code=$?
test "$code" -eq 1
grep -q -e '-T' "$smoke/err"
# A checkpoint cadence with nowhere to write is refused, not run without
# checkpoints; so is mdserve's -ckpt-every 0 (persistence is off only
# with -dir "").
code=0
"$smoke/mdrun" -checkpoint-every 10 -steps 1 > /dev/null 2> "$smoke/err" || code=$?
test "$code" -eq 1
grep -q -e '-checkpoint-dir' "$smoke/err"
go build -o "$smoke/mdserve" ./cmd/mdserve
code=0
timeout 60 "$smoke/mdserve" -addr 127.0.0.1:0 -dir "$smoke/serve" -ckpt-every 0 > /dev/null 2> "$smoke/err" || code=$?
test "$code" -eq 1
grep -q -e '-ckpt-every' "$smoke/err"
rm -rf "$smoke"
go test -run '^$' -bench . -benchtime 1x . ./internal/nonbond/ ./internal/grid/ \
	./internal/pmesh/ ./internal/msm/ ./internal/core/ ./internal/bspline/ \
	./internal/vec/ > /dev/null
(cd bench && go test ./...)
