#!/bin/sh
# check.sh — the repo's full verification pass: vet, build, the complete
# test suite, and the complete test suite again under the race detector.
#
# Set CHECK_SHORT=1 for the CI-friendly variant: identical coverage, but
# the seeded chaos/crash matrices run their -short subset of seeds (in both
# the plain and the race-enabled pass).
#
# The soak gates (CHECK_SCRUB, CHECK_FAILOVER, CHECK_SHARD, CHECK_RESIZE,
# CHECK_WIRE, CHECK_OVERLOAD) and the perf-trajectory gate (CHECK_MATRIX)
# are documented and run by scripts/soak.sh, which this pass calls last:
# set a gate's variable and it runs after the default pass, or run soak.sh
# alone to skip the default pass.
set -eux

SHORT=""
if [ -n "${CHECK_SHORT:-}" ]; then
    SHORT="-short"
fi

go vet ./...
# Every tracked Go file is gofmt-clean: the gate fails on any file listed.
test -z "$(gofmt -l $(git ls-files '*.go') | tee /dev/stderr)"
go build ./...
go test $SHORT ./...
# One iteration of the LSM scan and compaction benchmarks, the TC commit
# and read benchmarks, the wire round-trip benchmark and the traced engine
# read, so they cannot rot.
go test -run '^$' -bench 'Scan|Compaction' -benchtime 1x ./internal/lsm
go test -run '^$' -bench 'Commit|Read' -benchtime 1x ./internal/tc
go test -run '^$' -bench 'RoundTrip' -benchtime 1x ./internal/wire
go test -run '^$' -bench EngineGet -benchtime 1x ./internal/obs
# A bounded fuzz run of the recovery log's two decoders (the commit-record
# codec and logstore's one frame decoder and walker), of the repl ship
# link's frame and ack decoders, of the Bw-tree's three page decoders, and
# of the LSM manifest decoder.
go test -run '^$' -fuzz '^FuzzDecodeCommit$' -fuzztime 10s ./internal/tc
go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 10s ./internal/llama/logstore
go test -run '^$' -fuzz '^FuzzDecodeShipFrame$' -fuzztime 10s ./internal/repl
go test -run '^$' -fuzz '^FuzzDecodeAck$' -fuzztime 10s ./internal/repl
for target in FuzzDecodeLeafBase FuzzDecodeIndexBase FuzzDecodeDeltaBatch; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/bwtree
done
go test -run '^$' -fuzz '^FuzzDecodeManifest$' -fuzztime 10s ./internal/lsm
# Every example program runs once, so a constructor change that breaks
# one at run time fails the pass.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done
go test $SHORT -race ./...
sh scripts/soak.sh
