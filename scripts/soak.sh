#!/bin/sh
# soak.sh — the soak gates: long chaos and soak sweeps, and the
# perf-trajectory gate, each behind its own variable. Every gate whose
# variable is set runs; with none set the script does nothing. scripts/check.sh calls it after the default pass,
# and CI's soak jobs call it alone, one gate per job:
#
#   env CHECK_SHORT=1 CHECK_WIRE=1 sh scripts/soak.sh
#
# Set CHECK_SCRUB=1 for the long scrub-soak pass: a mirrored device under
# sustained traffic with latent bit flips, verifying the background
# scrubber's token-bucket I/O budget and repair convergence over several
# wall-clock seconds (skipped otherwise).
#
# Set CHECK_FAILOVER=1 for the full 100-seed warm-standby failover soak
# under the race detector: lossy/partitioned ship links, mid-ship primary
# crashes, forced promotions, and PITR verification against the acked-state
# oracle, with a hard watchdog timeout so a wedged drain fails the run
# instead of hanging it.
#
# Set CHECK_SHARD=1 for the full 100-seed shard-migration soak under the
# race detector: a live shard migration per seed with concurrent writers
# on the moving shard, a lossy and periodically partitioned migration
# link, and an injected crash at every phase boundary of the cutover
# state machine, asserting zero lost acked writes, exactly-once
# application against an acked-state oracle, and fenced stale owners —
# with a hard watchdog timeout.
#
# Set CHECK_RESIZE=1 for the full 100-seed elastic-resize soak under the
# race detector: every seed splits a shard and merges the children back
# while concurrent writers hit the resizing range over a lossy,
# periodically partitioned stream link, with an injected crash at every
# phase boundary of the split and merge cutovers, asserting zero
# lost acked writes, a byte-identical final state against the acked-state
# oracle, fenced stale owners (split source and both merge sources), and
# bounded key movement (a hash moves owner iff it lies in the split
# range) — with a hard watchdog timeout.
#
# Set CHECK_WIRE=1 for the full 50-seed network chaos sweep under the race
# detector: wire clients and server over real connections through
# fault.Conn (drops, dups, reorders, half-closes, stalls, a mid-run
# partition-driven retry storm), asserting exactly-once retried writes,
# zero lost acked writes, bounded retry amplification, graceful drain, and
# no leaked goroutines — again with a hard watchdog.
#
# Set CHECK_OVERLOAD=1 for the full 50-seed metastable-failure chaos
# sweep under the race detector: a capacity-limited store behind the
# engine's adaptive concurrency limiter and the wire server, hit with a
# flash-crowd storm (6x the steady client fleet plus a request-path
# partition blip). Each seed asserts the adaptive stack re-converges to
# >=90% of pre-storm goodput the moment the storm stops, keeps the
# high-priority class served through the storm (brownout ladder sheds
# scans and low first), loses zero acked writes, and actually delivered
# retry-after hints to clients — then reruns the identical harness with
# the limiter disabled and requires it to demonstrably fail to
# re-converge in the same window, proving the mechanism and not the test.
#
# Set CHECK_MATRIX=1 for the perf-trajectory gate: run the full scenario
# matrix (kvbench -matrix all) at a CI-sized workload, then hold benchdiff
# to its exit-code contract — the identity diff must pass, an injected
# 50% regression must fail, and a -report-only diff against the committed
# BENCH_matrix.json must prove the scenario coverage never shrinks
# (absolute numbers across machines are advisory; coverage is not). CI's
# matrix job runs it alone:
#
#   env CHECK_SHORT=1 CHECK_MATRIX=1 sh scripts/soak.sh
set -eux

# The soak gates, one row each: gate variable, race detector (on/off),
# timeout, -run regex, comma-separated packages, full-sweep flag (- for
# none). A gate runs when its variable is set, with the variable set to 1
# in the test's environment.
while read -r gate race timeout run pkgs full; do
    eval "on=\${$gate:-}"
    if [ -z "$on" ]; then
        continue
    fi
    if [ "$race" = on ]; then race=-race; else race=; fi
    if [ "$full" = - ]; then full=; fi
    env "$gate=1" go test $race -run "$run" -count=1 -timeout "$timeout" \
        $(echo "$pkgs" | tr , ' ') $full </dev/null
done <<'EOF'
CHECK_SCRUB     off  10m  TestScrubSoakLong|TestMirror  ./internal/ssd,./internal/integration  -
CHECK_FAILOVER  on   15m  TestFailoverChaosSweep        ./internal/integration  -full
CHECK_SHARD     on   15m  TestShardMigrationChaosSweep  ./internal/integration  -full
CHECK_RESIZE    on   15m  TestShardResizeChaosSweep     ./internal/integration  -full
CHECK_WIRE      on   15m  TestWireChaosSweep            ./internal/integration  -full
CHECK_OVERLOAD  on   20m  TestOverloadChaosSweep        ./internal/integration  -full
EOF
if [ -n "${CHECK_MATRIX:-}" ]; then
    go build -o /tmp/kvbench ./cmd/kvbench
    go build -o /tmp/benchdiff ./cmd/benchdiff
    /tmp/kvbench -matrix all -matrix-stores masstree,lsm -matrix-conc 8 \
        -keys 5000 -ops 8000 -bench-out /tmp/BENCH_matrix.ci.json
    # Identity diff must pass (exit 0)...
    /tmp/benchdiff /tmp/BENCH_matrix.ci.json /tmp/BENCH_matrix.ci.json
    # ...and an injected regression must fail (exit 1), proving the gate bites.
    if /tmp/benchdiff -inject-regression 0.5 \
        /tmp/BENCH_matrix.ci.json /tmp/BENCH_matrix.ci.json; then
        echo "CHECK_MATRIX: injected regression was not caught" >&2
        exit 1
    fi
    # Committed trajectory: metric deltas across machines are advisory
    # (-report-only), but every committed scenario cell must still exist.
    /tmp/benchdiff -report-only BENCH_matrix.json /tmp/BENCH_matrix.ci.json
fi
