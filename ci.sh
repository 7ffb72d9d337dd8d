#!/bin/sh
# ci.sh — the repository's check suite: static analysis, formatting,
# race-enabled tests, the probe-overhead guard asserting that the
# disabled observability path stays within PROBE_OVERHEAD_MAX_PCT
# (default 2%) of the uninstrumented channel throughput, a fuzz smoke
# pass over the parser/decoder fuzz targets, the fault determinism
# gate running one fault scenario twice and diffing the QoS reports
# byte for byte, the protocol-checker soak (randomized configs replayed
# under the timing invariant checker and the differential oracle, -race on,
# seed counts bounded by CHECK_SOAK_CONFIGS / CHECK_ORACLE_CONFIGS),
# the policy x device matrix gate (every registered scheduling policy
# on every registered datasheet through the checked differential
# oracle, CHECK_MATRIX_REQS requests per cell),
# the cache differential gate (cached, uncached, serial-cached and
# disk-cached runs must produce byte-identical output), the
# observability gates (the disabled metrics registry stays within the
# same overhead limit as the probe layer, a metrics-enabled paper run
# prints byte-identical stdout, and a live sweep's -debug-addr server
# answers /metrics and /debug/pprof/ mid-run), the simulation-service
# soak gate (a race-built simd daemon must answer byte-identical
# sweeps, shed honestly with 429 + Retry-After under saturation,
# enforce deadlines with 504, and drain cleanly on SIGTERM under
# load), the sharded grid router gate (a race-built 3-shard fleet
# behind simrouter must merge sweeps byte-identical to cmd/sweep,
# survive a mid-soak shard kill with zero wrong answers, answer a
# warmed grid 100% from cache, and — on hosts with at least 4 CPUs —
# run a cache-cold grid at least ROUTER_SPEEDUP_MIN times faster on 4
# single-worker shards than on one), and the
# throughput gate recording the simulator benchmarks to
# results/BENCH_<date>.json (suffixed -2, -3, ... instead of
# clobbering a same-day export) and failing if BenchmarkRawChannel
# falls below the floor checked in at results/BENCH_FLOOR. The floor
# gate downgrades to a warning when BenchmarkHostCalibration shows the
# host is detectably slower than the machine that recorded the floor;
# the allocation gate ("# allocs" and "# bytes" lines in BENCH_FLOOR)
# never downgrades — allocs/op and B/op are host-independent, so
# exceeding a limit is always a code regression.
#
# Usage: ./ci.sh [-quick]
#   -quick skips the race detector, the benchmarks, the fuzz smoke,
#   the checker soak and the determinism gate.
set -eu

cd "$(dirname "$0")"
quick=0
[ "${1:-}" = "-quick" ] && quick=1

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

if [ "$quick" = 1 ]; then
    echo "== go test (quick) =="
    go test ./...
    echo "ci: OK (quick)"
    exit 0
fi

echo "== go test -race =="
go test -race ./...

echo "== protocol checker soak =="
# Randomized workloads replayed with the timing-invariant checker
# attached, plus the differential oracle (per-burst reference vs
# coalesced command streams), both under -race.
# -count=1 forces a fresh run even when the package test cache is warm;
# the seed counts are bounded so CI time stays predictable.
CHECK_SOAK_CONFIGS="${CHECK_SOAK_CONFIGS:-40}" \
CHECK_ORACLE_CONFIGS="${CHECK_ORACLE_CONFIGS:-100}" \
    go test -race -count=1 -run 'TestCheckerSoak$|TestDifferentialOracle$' ./internal/check/
echo "ci: checker soak OK"

echo "== policy x device matrix gate =="
# The admissibility contract for scheduling policies and datasheets:
# every registered policy on every registered device must run a mixed
# multi-client workload with the timing-invariant checker silent AND
# replay it bit-identically through both dispatch strategies of the
# differential oracle (coalesce-unsafe policies proving their fast-path
# fallback). Workload size scales with CHECK_MATRIX_REQS.
CHECK_MATRIX_REQS="${CHECK_MATRIX_REQS:-200}" \
    go test -race -count=1 -run 'TestPolicyDeviceMatrix$' ./internal/check/
echo "ci: policy x device matrix OK"

echo "== checked end-to-end run =="
# One flagship run per tool path with -check on: any DRAM command that
# violates the device timing constraints fails the build. The second run
# crosses a reordering policy with a modern datasheet so the non-baseline
# plumbing stays covered end to end.
go run ./cmd/mcmsim -format 1080p30 -channels 4 -fraction 0.02 -check >/dev/null
go run ./cmd/mcmsim -format 1080p30 -channels 4 -fraction 0.02 -check \
    -page frfcfs -device lpddr4 -freq 800 >/dev/null
echo "ci: checked run OK"

echo "== fuzz smoke =="
# Each target runs for a short budget; any crasher fails the build.
go test -run '^$' -fuzz '^FuzzReadText$' -fuzztime "${FUZZ_SMOKE_TIME:-5s}" ./internal/trace/
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime "${FUZZ_SMOKE_TIME:-5s}" ./internal/mapping/
go test -run '^$' -fuzz '^FuzzDecodeSimulateRequest$' -fuzztime "${FUZZ_SMOKE_TIME:-5s}" ./internal/server/

echo "== fault determinism gate =="
# The flagship fault scenario, run twice with the same seed, must
# produce byte-identical QoS reports.
qos_dir=$(mktemp -d)
trap 'rm -rf "$qos_dir"' EXIT
fault_flags="-format 1080p30 -channels 2 -fraction 0.02 -fault-seed 1 \
    -fault-drop-channel 1 -fault-read-error-rate 0.005 -fault-stall-rate 0.002 \
    -fault-frames 10"
# shellcheck disable=SC2086
go run ./cmd/mcmsim $fault_flags -qos-out "$qos_dir/first.txt" >/dev/null
# shellcheck disable=SC2086
go run ./cmd/mcmsim $fault_flags -qos-out "$qos_dir/second.txt" >/dev/null
if ! cmp "$qos_dir/first.txt" "$qos_dir/second.txt"; then
    echo "ci: two runs of the same fault scenario produced different QoS reports" >&2
    exit 1
fi
echo "ci: fault determinism OK"

echo "== cache differential gate =="
# The content-addressed result cache must never change what the tools
# print: the full paper CSV run is compared byte for byte across
# uncached, cached-parallel and cached-serial executions, and a sweep
# with an on-disk cache must reproduce the uncached CSV both cold
# (populating the store) and warm (served from it).
cache_dir=$(mktemp -d)
trap 'rm -rf "$qos_dir" "$cache_dir"' EXIT
go run ./cmd/paper -csv -fraction 0.02 -no-cache >"$cache_dir/paper-uncached.csv" 2>/dev/null
go run ./cmd/paper -csv -fraction 0.02 >"$cache_dir/paper-cached.csv" 2>/dev/null
go run ./cmd/paper -csv -fraction 0.02 -jobs 1 >"$cache_dir/paper-serial.csv" 2>/dev/null
if ! cmp "$cache_dir/paper-uncached.csv" "$cache_dir/paper-cached.csv"; then
    echo "ci: cached paper output differs from -no-cache" >&2
    exit 1
fi
if ! cmp "$cache_dir/paper-uncached.csv" "$cache_dir/paper-serial.csv"; then
    echo "ci: cached -jobs 1 paper output differs from -no-cache" >&2
    exit 1
fi
sweep_flags="-formats 1080p30 -channels 2,4 -freqs 400 -fraction 0.02"
# shellcheck disable=SC2086
go run ./cmd/sweep $sweep_flags -no-cache >"$cache_dir/sweep-uncached.csv"
# shellcheck disable=SC2086
go run ./cmd/sweep $sweep_flags -cache-dir "$cache_dir/store" >"$cache_dir/sweep-cold.csv" 2>"$cache_dir/sweep-cold.log"
# shellcheck disable=SC2086
go run ./cmd/sweep $sweep_flags -cache-dir "$cache_dir/store" >"$cache_dir/sweep-warm.csv" 2>"$cache_dir/sweep-warm.log"
if ! cmp "$cache_dir/sweep-uncached.csv" "$cache_dir/sweep-cold.csv" ||
    ! cmp "$cache_dir/sweep-uncached.csv" "$cache_dir/sweep-warm.csv"; then
    echo "ci: disk-cached sweep output differs from -no-cache" >&2
    exit 1
fi
if ! grep -q 'disk hits' "$cache_dir/sweep-warm.log" ||
    grep -q ' 0 disk hits' "$cache_dir/sweep-warm.log"; then
    echo "ci: warm sweep did not report disk hits:" >&2
    cat "$cache_dir/sweep-warm.log" >&2
    exit 1
fi
echo "ci: cache differential OK"

echo "== observability stdout gate =="
# The run-level metrics surface must never change what the tools print:
# the paper CSV with -progress, -debug-addr and -summary-out all on is
# compared byte for byte against the plain cached run above, and the
# summary must carry the versioned schema header.
go run ./cmd/paper -csv -fraction 0.02 -progress -debug-addr 127.0.0.1:0 \
    -summary-out "$cache_dir/paper-summary.json" \
    >"$cache_dir/paper-metrics.csv" 2>"$cache_dir/paper-metrics.log"
if ! cmp "$cache_dir/paper-cached.csv" "$cache_dir/paper-metrics.csv"; then
    echo "ci: metrics-enabled paper stdout differs from the plain run" >&2
    exit 1
fi
if ! grep -q '"schema": "mcm-run-summary/v1"' "$cache_dir/paper-summary.json"; then
    echo "ci: paper summary missing the mcm-run-summary/v1 schema header" >&2
    exit 1
fi
if ! grep -q 'paper: debug: listening on' "$cache_dir/paper-metrics.log"; then
    echo "ci: paper run did not announce the debug server" >&2
    exit 1
fi
echo "ci: observability stdout OK"

echo "== live debug-server smoke =="
# A backgrounded sweep with -debug-addr must serve live Prometheus series
# (cache hit/miss counters, worker-utilization gauges) and pprof while
# the run is in flight, then exit cleanly.
live_log="$cache_dir/sweep-live.log"
go run ./cmd/sweep -formats 2160p30,2160p60 -channels 1,2,4,8 \
    -freqs 200,266,333,400,533 -fraction 1 -jobs 2 \
    -debug-addr 127.0.0.1:0 >"$cache_dir/sweep-live.csv" 2>"$live_log" &
live_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^sweep: debug: listening on //p' "$live_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci: sweep never announced its debug server:" >&2
    cat "$live_log" >&2
    kill "$live_pid" 2>/dev/null || true
    exit 1
fi
scraped=0
for _ in $(seq 1 200); do
    if curl -fsS "http://$addr/metrics" 2>/dev/null | tee "$cache_dir/metrics.prom" |
        grep -q '^runindexed_workers_busy'; then
        scraped=1
        break
    fi
    sleep 0.05
done
if [ "$scraped" != 1 ]; then
    echo "ci: /metrics never served live series during the sweep" >&2
    kill "$live_pid" 2>/dev/null || true
    exit 1
fi
if ! grep -q '^simcache_misses_total' "$cache_dir/metrics.prom"; then
    echo "ci: live /metrics missing simcache series:" >&2
    cat "$cache_dir/metrics.prom" >&2
    kill "$live_pid" 2>/dev/null || true
    exit 1
fi
pprof_status=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/")
if [ "$pprof_status" != 200 ]; then
    echo "ci: /debug/pprof/ returned $pprof_status, want 200" >&2
    kill "$live_pid" 2>/dev/null || true
    exit 1
fi
if ! wait "$live_pid"; then
    echo "ci: instrumented sweep exited non-zero:" >&2
    cat "$live_log" >&2
    exit 1
fi
if [ "$(wc -l < "$cache_dir/sweep-live.csv")" -ne 41 ]; then
    echo "ci: instrumented sweep CSV truncated" >&2
    exit 1
fi
echo "ci: live debug-server smoke OK"

echo "== simulation service soak gate =="
# The simd daemon, built with the race detector, is driven end to end:
# a service sweep must be byte-identical to the direct CLI sweep; a
# saturation soak with 8x more clients than worker slots must finish
# with zero failed requests — every request either completes or sheds
# honestly with 429 + Retry-After, and above the admission limit the
# 429s must actually occur; an undersized deadline must come back 504;
# and a SIGTERM under load must drain cleanly with exit 0.
svc_dir=$(mktemp -d)
trap 'rm -rf "$qos_dir" "$cache_dir" "$svc_dir"' EXIT
go build -race -o "$svc_dir/simd" ./cmd/simd
go build -race -o "$svc_dir/simctl" ./cmd/simctl
svc_fail() {
    echo "ci: $1" >&2
    [ -f "$svc_dir/simd.log" ] && cat "$svc_dir/simd.log" >&2
    kill "$simd_pid" 2>/dev/null || true
    exit 1
}
"$svc_dir/simd" -addr 127.0.0.1:0 -workers 2 -queue-limit 4 -drain 20s \
    2>"$svc_dir/simd.log" &
simd_pid=$!
svc_addr=""
for _ in $(seq 1 100); do
    svc_addr=$(sed -n 's/^simd: listening on //p' "$svc_dir/simd.log")
    [ -n "$svc_addr" ] && break
    sleep 0.1
done
[ -n "$svc_addr" ] || svc_fail "simd never announced its address"
"$svc_dir/simctl" sweep -server "http://$svc_addr" \
    -formats 1080p30 -channels 2,4 -freqs 400 -fraction 0.02 \
    >"$svc_dir/svc-sweep.csv" ||
    svc_fail "service sweep failed"
cmp "$cache_dir/sweep-uncached.csv" "$svc_dir/svc-sweep.csv" ||
    svc_fail "service sweep differs from the direct cmd/sweep run"
"$svc_dir/simctl" soak -server "http://$svc_addr" -clients 16 -requests 3 \
    -fraction 0.3 >"$svc_dir/soak.txt" ||
    svc_fail "saturation soak reported failed requests"
cat "$svc_dir/soak.txt"
grep -q ' failed=0$' "$svc_dir/soak.txt" ||
    svc_fail "soak summary reports failures"
grep -Eq ' shed=[1-9][0-9]* ' "$svc_dir/soak.txt" ||
    svc_fail "16 clients against 2+4 admission slots never shed a 429"
if "$svc_dir/simctl" simulate -server "http://$svc_addr" -format 2160p60 \
    -channels 8 -freq 533 -fraction 1 -deadline 50ms \
    >/dev/null 2>"$svc_dir/deadline.log"; then
    svc_fail "50ms deadline on a full 2160p60 frame did not fail"
fi
grep -q '504' "$svc_dir/deadline.log" ||
    svc_fail "undersized deadline did not surface a 504"
( sleep 0.5; kill -TERM "$simd_pid" ) &
"$svc_dir/simctl" soak -server "http://$svc_addr" -clients 16 -requests 6 \
    -fraction 0.05 -allow-shutdown >"$svc_dir/soak-drain.txt" ||
    svc_fail "mid-drain soak reported failed requests"
cat "$svc_dir/soak-drain.txt"
if ! wait "$simd_pid"; then
    svc_fail "simd exited non-zero after SIGTERM"
fi
grep -q 'simd: drained cleanly' "$svc_dir/simd.log" ||
    svc_fail "simd did not report a clean drain"
echo "ci: simulation service soak OK"

echo "== sharded grid router gate =="
# A race-built 3-shard fleet behind simrouter must be indistinguishable
# from one daemon: the routed sweep is byte-identical to the direct
# cmd/sweep run; killing a shard mid-soak costs failover latency but
# zero wrong answers (failed=0, and the post-kill sweep still matches
# byte for byte); a warmed grid re-queries 100% from cache (X-Sim-Cache
# reports only hits); and a 4-shard cache-cold grid must finish at least
# ROUTER_SPEEDUP_MIN (default 2) times faster than a single-worker simd
# — warn-only on hosts with fewer than 4 CPUs, where the shards time-
# slice one core and no scale-out is physically possible.
grid_dir=$(mktemp -d)
trap 'rm -rf "$qos_dir" "$cache_dir" "$svc_dir" "$grid_dir"' EXIT
go build -race -o "$grid_dir/simrouter" ./cmd/simrouter
grid_fail() {
    echo "ci: $1" >&2
    for log in "$grid_dir"/*.log; do
        [ -f "$log" ] && { echo "--- $log" >&2; cat "$log" >&2; }
    done
    # shellcheck disable=SC2086
    kill $grid_pids 2>/dev/null || true
    exit 1
}
scrape_addr() { # log-file prefix
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n "s/^$2//p" "$1" | sed 's/ .*//')
        [ -n "$addr" ] && break
        sleep 0.1
    done
    echo "$addr"
}
# The shards must be children of THIS shell (not a command substitution)
# so the drain check below can wait on them.
"$svc_dir/simd" -addr 127.0.0.1:0 -workers 2 -queue-limit 8 \
    -shard-name s1 -drain 20s 2>"$grid_dir/s1.log" &
s1_pid=$!
"$svc_dir/simd" -addr 127.0.0.1:0 -workers 2 -queue-limit 8 \
    -shard-name s2 -drain 20s 2>"$grid_dir/s2.log" &
s2_pid=$!
"$svc_dir/simd" -addr 127.0.0.1:0 -workers 2 -queue-limit 8 \
    -shard-name s3 -drain 20s 2>"$grid_dir/s3.log" &
s3_pid=$!
grid_pids="$s1_pid $s2_pid $s3_pid"
s1_addr=$(scrape_addr "$grid_dir/s1.log" "simd: listening on ")
s2_addr=$(scrape_addr "$grid_dir/s2.log" "simd: listening on ")
s3_addr=$(scrape_addr "$grid_dir/s3.log" "simd: listening on ")
[ -n "$s1_addr" ] && [ -n "$s2_addr" ] && [ -n "$s3_addr" ] ||
    grid_fail "a fleet shard never announced its address"
"$grid_dir/simrouter" -addr 127.0.0.1:0 -health-interval 200ms \
    -shard "s1=http://$s1_addr" -shard "s2=http://$s2_addr" \
    -shard "s3=http://$s3_addr" 2>"$grid_dir/router.log" &
router_pid=$!
grid_pids="$grid_pids $router_pid"
router_addr=$(scrape_addr "$grid_dir/router.log" "simrouter: listening on ")
[ -n "$router_addr" ] || grid_fail "simrouter never announced its address"
"$svc_dir/simctl" sweep -server "http://$router_addr" \
    -formats 1080p30 -channels 2,4 -freqs 400 -fraction 0.02 \
    >"$grid_dir/routed-sweep.csv" || grid_fail "routed sweep failed"
cmp "$cache_dir/sweep-uncached.csv" "$grid_dir/routed-sweep.csv" ||
    grid_fail "routed sweep differs from the direct cmd/sweep run"
# Warm an untouched grid, then re-query it: every point must come back a
# cache hit, and the merged answer must still match a direct run.
"$svc_dir/simctl" warm -server "http://$router_addr" \
    -formats 720p30 -channels 1,2 -freqs 266,333 -fraction 0.02 \
    >"$grid_dir/warm.txt" || grid_fail "fleet warm failed"
cat "$grid_dir/warm.txt"
grep -q 'simulated=4' "$grid_dir/warm.txt" ||
    grid_fail "warm did not compute the 4 cold points"
curl -fsS -D "$grid_dir/warm-headers.txt" -o "$grid_dir/warm-sweep.json" \
    -H 'Content-Type: application/json' \
    -d '{"formats":["720p30"],"channels":[1,2],"freqs_mhz":[266,333],"fraction":0.02}' \
    "http://$router_addr/v1/sweep" || grid_fail "post-warm sweep failed"
grep -iq '^x-sim-cache: hit=4' "$grid_dir/warm-headers.txt" || {
    cat "$grid_dir/warm-headers.txt" >&2
    grid_fail "warmed grid was not answered 100% from cache"
}
# Kill a shard mid-soak: the router fails over, so every request still
# either succeeds or sheds honestly — zero failures, zero wrong answers.
( sleep 0.3; kill -TERM "$s2_pid" ) &
"$svc_dir/simctl" soak -server "http://$router_addr" -clients 8 -requests 4 \
    -fraction 0.02 >"$grid_dir/soak.txt" ||
    grid_fail "mid-kill soak reported failed requests"
cat "$grid_dir/soak.txt"
grep -q ' failed=0$' "$grid_dir/soak.txt" ||
    grid_fail "soak across a shard kill reported failures"
wait "$s2_pid" || grid_fail "killed shard did not drain cleanly"
"$svc_dir/simctl" sweep -server "http://$router_addr" \
    -formats 1080p30 -channels 2,4 -freqs 400 -fraction 0.02 \
    >"$grid_dir/degraded-sweep.csv" || grid_fail "post-kill sweep failed"
cmp "$cache_dir/sweep-uncached.csv" "$grid_dir/degraded-sweep.csv" ||
    grid_fail "sweep after losing a shard differs from the direct run"
kill -TERM "$s1_pid" "$s3_pid" "$router_pid" 2>/dev/null || true
wait "$s1_pid" "$s3_pid" "$router_pid" 2>/dev/null || true
# Scale-out timing: a cache-cold grid on 4 single-worker shards vs one
# single-worker daemon, same binaries, fresh processes (cold caches).
ncpu=$(nproc 2>/dev/null || echo 1)
speed_grid="-formats 1080p30 -channels 1,2,4,8 -freqs 200,266,333,400 -fraction 0.05"
"$svc_dir/simd" -addr 127.0.0.1:0 -workers 1 2>"$grid_dir/solo.log" &
solo_pid=$!
grid_pids="$solo_pid"
solo_addr=$(scrape_addr "$grid_dir/solo.log" "simd: listening on ")
[ -n "$solo_addr" ] || grid_fail "solo timing daemon never announced its address"
t0=$(date +%s%N)
# shellcheck disable=SC2086
"$svc_dir/simctl" sweep -server "http://$solo_addr" $speed_grid \
    >"$grid_dir/solo-sweep.csv" || grid_fail "solo timing sweep failed"
t1=$(date +%s%N)
kill -TERM "$solo_pid" 2>/dev/null || true
wait "$solo_pid" 2>/dev/null || true
grid_pids=""
for i in 1 2 3 4; do
    "$svc_dir/simd" -addr 127.0.0.1:0 -workers 1 \
        -shard-name "f$i" 2>"$grid_dir/f$i.log" &
    grid_pids="$grid_pids $!"
done
f_shards=""
for i in 1 2 3 4; do
    f_addr=$(scrape_addr "$grid_dir/f$i.log" "simd: listening on ")
    [ -n "$f_addr" ] || grid_fail "fleet timing shard f$i never announced its address"
    f_shards="$f_shards -shard f$i=http://$f_addr"
done
# shellcheck disable=SC2086
"$grid_dir/simrouter" -addr 127.0.0.1:0 $f_shards 2>"$grid_dir/frouter.log" &
frouter_pid=$!
grid_pids="$grid_pids $frouter_pid"
frouter_addr=$(scrape_addr "$grid_dir/frouter.log" "simrouter: listening on ")
[ -n "$frouter_addr" ] || grid_fail "timing simrouter never announced its address"
t2=$(date +%s%N)
# shellcheck disable=SC2086
"$svc_dir/simctl" sweep -server "http://$frouter_addr" $speed_grid \
    >"$grid_dir/fleet-sweep.csv" || grid_fail "fleet timing sweep failed"
t3=$(date +%s%N)
cmp "$grid_dir/solo-sweep.csv" "$grid_dir/fleet-sweep.csv" ||
    grid_fail "fleet timing sweep differs from the solo run"
# shellcheck disable=SC2086
kill -TERM $grid_pids 2>/dev/null || true
# shellcheck disable=SC2086
wait $grid_pids 2>/dev/null || true
grid_pids=""
solo_ms=$(( (t1 - t0) / 1000000 ))
fleet_ms=$(( (t3 - t2) / 1000000 ))
[ "$fleet_ms" -gt 0 ] || fleet_ms=1
speed_x10=$(( solo_ms * 10 / fleet_ms ))
echo "ci: solo sweep ${solo_ms}ms, 4-shard fleet ${fleet_ms}ms ($((speed_x10 / 10)).$((speed_x10 % 10))x)"
if [ "$speed_x10" -lt "$(( ${ROUTER_SPEEDUP_MIN:-2} * 10 ))" ]; then
    if [ "$ncpu" -lt 4 ]; then
        echo "ci: WARNING: fleet speedup below ${ROUTER_SPEEDUP_MIN:-2}x on a ${ncpu}-CPU host — shards time-slice, not failing"
    else
        echo "ci: 4-shard fleet under ${ROUTER_SPEEDUP_MIN:-2}x over a single worker — scale-out regression" >&2
        exit 1
    fi
fi
echo "ci: sharded grid router OK"

echo "== fidelity differential gate =="
# The auto fidelity tier's contract is verdict identity at a fraction of
# the cost: a cache-cold full-grid auto sweep must carry byte-identical
# verdict columns to the exact sweep while finishing at least
# FIDELITY_SPEEDUP_MIN (default 50) times faster, and the estimated
# column must be honest — every exact row false, every auto fallback row
# byte-identical to its exact counterpart, and at least one auto row
# actually served analytically. A shared on-disk cache across an auto
# and an exact run must not leak estimates into exact answers, and a
# small calibration pass must emit a well-formed, decodable envelope
# that drives -fidelity auto through the -envelope flag.
fid_dir=$(mktemp -d)
trap 'rm -rf "$qos_dir" "$cache_dir" "$svc_dir" "$grid_dir" "$fid_dir"' EXIT
go build -o "$fid_dir/sweep" ./cmd/sweep
t0=$(date +%s%N)
"$fid_dir/sweep" -no-cache >"$fid_dir/exact.csv"
t1=$(date +%s%N)
"$fid_dir/sweep" -no-cache -fidelity auto >"$fid_dir/auto.csv"
t2=$(date +%s%N)
cut -d, -f1,2,3,8 "$fid_dir/exact.csv" >"$fid_dir/exact-verdicts"
cut -d, -f1,2,3,8 "$fid_dir/auto.csv" >"$fid_dir/auto-verdicts"
if ! cmp "$fid_dir/exact-verdicts" "$fid_dir/auto-verdicts"; then
    echo "ci: auto sweep verdicts differ from exact — the envelope proof is broken" >&2
    exit 1
fi
if grep -q ',true$' "$fid_dir/exact.csv"; then
    echo "ci: exact sweep flagged rows estimated" >&2
    exit 1
fi
auto_estimates=$(grep -c ',true$' "$fid_dir/auto.csv" || true)
if [ "$auto_estimates" -eq 0 ]; then
    echo "ci: auto sweep served nothing analytically on the calibrated grid" >&2
    exit 1
fi
if ! paste -d'|' "$fid_dir/exact.csv" "$fid_dir/auto.csv" | awk -F'|' '
    $2 !~ /,true$/ && $1 != $2 {
        printf "ci: auto fallback row differs from exact:\n  %s\n  %s\n", $1, $2
        fail = 1
    }
    END { exit fail }'; then
    exit 1
fi
exact_ms=$(( (t1 - t0) / 1000000 ))
auto_ms=$(( (t2 - t1) / 1000000 ))
[ "$auto_ms" -gt 0 ] || auto_ms=1
ratio=$(( exact_ms / auto_ms ))
echo "ci: exact sweep ${exact_ms}ms, auto sweep ${auto_ms}ms (${auto_estimates}/120 analytic, ${ratio}x)"
if [ "$ratio" -lt "${FIDELITY_SPEEDUP_MIN:-50}" ]; then
    echo "ci: auto sweep only ${ratio}x faster than exact (want >= ${FIDELITY_SPEEDUP_MIN:-50}x)" >&2
    exit 1
fi
# Cache-pollution check: estimates are memoized under tier-tagged keys
# and never written to disk, so an exact run sharing the store must
# reproduce the uncached exact output byte for byte.
pollute_flags="-formats 720p30 -channels 4 -freqs 400,533"
# shellcheck disable=SC2086
"$fid_dir/sweep" $pollute_flags -no-cache >"$fid_dir/pollute-ref.csv"
# shellcheck disable=SC2086
"$fid_dir/sweep" $pollute_flags -fidelity auto -cache-dir "$fid_dir/store" >/dev/null 2>&1
# shellcheck disable=SC2086
"$fid_dir/sweep" $pollute_flags -cache-dir "$fid_dir/store" >"$fid_dir/pollute-exact.csv" 2>/dev/null
if ! cmp "$fid_dir/pollute-ref.csv" "$fid_dir/pollute-exact.csv"; then
    echo "ci: exact sweep through a store shared with an auto sweep differs — estimate pollution" >&2
    exit 1
fi
# Calibration smoke: a tiny pass must emit the current schema and the
# artifact must round-trip through -envelope into an auto sweep.
"$fid_dir/sweep" -calibrate $pollute_flags -fraction 0.02 \
    >"$fid_dir/envelope.json" 2>"$fid_dir/calibrate.log"
grep -q '"schema": "mcm-analytic-envelope/v1"' "$fid_dir/envelope.json" || {
    echo "ci: calibration artifact missing the schema header:" >&2
    cat "$fid_dir/calibrate.log" >&2
    exit 1
}
# shellcheck disable=SC2086
"$fid_dir/sweep" $pollute_flags -fraction 0.02 -no-cache >"$fid_dir/calib-exact.csv"
# shellcheck disable=SC2086
"$fid_dir/sweep" $pollute_flags -fraction 0.02 -no-cache -fidelity auto \
    -envelope "$fid_dir/envelope.json" >"$fid_dir/calib-auto.csv"
cut -d, -f1,2,3,8 "$fid_dir/calib-exact.csv" >"$fid_dir/calib-exact-verdicts"
cut -d, -f1,2,3,8 "$fid_dir/calib-auto.csv" >"$fid_dir/calib-auto-verdicts"
if ! cmp "$fid_dir/calib-exact-verdicts" "$fid_dir/calib-auto-verdicts"; then
    echo "ci: auto sweep under a fresh -envelope changed verdicts" >&2
    exit 1
fi
echo "ci: fidelity differential OK"

echo "== disabled-overhead benchmarks (probe + metrics) =="
# Repeated -count runs, best-of-N per arm: scheduling noise only ever
# slows an iteration down, so the max MB/s is the robust estimate. The
# gate retries because a loaded host can still skew one attempt; a real
# regression fails every attempt. Both observability layers — the
# per-event probe sinks and the run-level metrics registry — must stay
# within the same limit of the uninstrumented throughput when disabled.
attempts="${PROBE_BENCH_ATTEMPTS:-3}"
i=1
while :; do
    bench_out=$(go test -run '^$' -bench 'BenchmarkRawChannel$|BenchmarkProbeDisabledOverhead$|BenchmarkMetricsDisabledOverhead$' \
        -benchtime "${PROBE_BENCHTIME:-1s}" -count "${PROBE_BENCHCOUNT:-5}" .)
    echo "$bench_out"
    if echo "$bench_out" | awk -v max="${PROBE_OVERHEAD_MAX_PCT:-2}" '
        /^BenchmarkRawChannel/              { if ($(NF-1) > raw)  raw = $(NF-1) }
        /^BenchmarkProbeDisabledOverhead/   { if ($(NF-1) > probe) probe = $(NF-1) }
        /^BenchmarkMetricsDisabledOverhead/ { if ($(NF-1) > met)  met = $(NF-1) }
        END {
            if (raw == 0 || probe == 0 || met == 0) { print "ci: benchmark output missing MB/s"; exit 1 }
            ppct = (raw - probe) / raw * 100
            mpct = (raw - met) / raw * 100
            printf "ci: disabled-probe overhead %.2f%% (limit %s%%)\n", ppct, max
            printf "ci: disabled-metrics overhead %.2f%% (limit %s%%)\n", mpct, max
            if (ppct > max + 0 || mpct > max + 0) exit 1
        }'; then
        break
    fi
    if [ "$i" -ge "$attempts" ]; then
        echo "ci: overhead above limit in all $attempts attempts" >&2
        exit 1
    fi
    i=$((i + 1))
    echo "ci: retrying overhead benchmark (attempt $i of $attempts)"
done

echo "== benchmark throughput gate =="
# Record the simulator-throughput benchmarks (best of BENCH_COUNT runs
# per name: min ns/op, max MB/s — noise only ever slows an iteration)
# to results/BENCH_<date>.json and gate the headline BenchmarkRawChannel
# MB/s against the checked-in floor. The floor is deliberately far below
# tuned-hardware numbers so only a real regression (e.g. losing the
# burst-coalesced fast path) trips it.
mkdir -p results
bench_stem="results/BENCH_$(date +%Y%m%d)"
bench_json="$bench_stem.json"
# Never clobber a same-day export: suffix reruns with -2, -3, ...
n=1
while [ -e "$bench_json" ]; do
    n=$((n + 1))
    bench_json="$bench_stem-$n.json"
done
raw_out=$(go test -run '^$' \
    -bench 'BenchmarkRawChannel$|BenchmarkPerBurstRun$|BenchmarkCoalescedRun$|BenchmarkSimulate$|BenchmarkSimulateCached$|BenchmarkFullFormatMatrix$|BenchmarkFullFormatMatrixCached$|BenchmarkAnalyticResult$|BenchmarkAutoSweep$' \
    -benchmem -benchtime "${BENCH_BENCHTIME:-0.5s}" -count "${BENCH_COUNT:-3}" .)
echo "$raw_out"
echo "$raw_out" | awk -v date="$(date +%Y-%m-%d)" '
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = 0; mbs = 0; alloc = -1; bytes = -1
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op") ns = $(i-1)
            if ($i == "MB/s") mbs = $(i-1)
            if ($i == "B/op") bytes = $(i-1)
            if ($i == "allocs/op") alloc = $(i-1)
        }
        if (!(name in best_ns) || ns < best_ns[name]) best_ns[name] = ns
        if (!(name in best_mbs) || mbs > best_mbs[name]) best_mbs[name] = mbs
        allocs[name] = alloc
        bytes_op[name] = bytes
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    END {
        printf "{\n  \"date\": \"%s\",\n  \"benchmarks\": {\n", date
        for (i = 1; i <= n; i++) {
            name = order[i]
            printf "    \"%s\": {\"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n",
                name, best_ns[name], best_mbs[name], bytes_op[name], allocs[name], (i < n ? "," : "")
        }
        printf "  }\n}\n"
    }' > "$bench_json"
echo "ci: wrote $bench_json"

echo "== allocation gate =="
# allocs/op and B/op are deterministic for a given code path — no
# host-speed calibration applies, so exceeding a "# allocs <name> <max>"
# or "# bytes <name> <max>" entry in results/BENCH_FLOOR is always a hard
# failure. Best (minimum) of the BENCH_COUNT runs is compared, mirroring
# the throughput gate.
echo "$raw_out" | awk '
    NR == FNR {
        if ($1 == "#" && $2 == "allocs") limit["allocs/op", $3] = $4
        if ($1 == "#" && $2 == "bytes") limit["B/op", $3] = $4
        next
    }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= NF; i++)
            if (($i == "allocs/op" || $i == "B/op") && (!(($i, name) in best) || $(i-1) + 0 < best[$i, name]))
                best[$i, name] = $(i-1)
    }
    END {
        fail = 0
        for (key in limit) {
            split(key, k, SUBSEP)
            unit = k[1]; name = k[2]
            if (!(key in best)) {
                printf "ci: allocation gate: %s has a %s limit but was not measured\n", name, unit
                fail = 1
                continue
            }
            printf "ci: %s %d %s (limit %d)\n", name, best[key], unit, limit[key]
            if (best[key] + 0 > limit[key] + 0) {
                printf "ci: %s exceeds its %s limit — regression\n", name, unit
                fail = 1
            }
        }
        exit fail
    }' results/BENCH_FLOOR -
echo "ci: allocation gate OK"
floor=$(grep -v '^#' results/BENCH_FLOOR | head -1)
# Host-speed calibration: the floor is an absolute MB/s recorded on a
# particular machine. Re-measure the simulator-independent calibration
# benchmark and compare against the "# calib" reference in BENCH_FLOOR;
# a host under 70% of the reference can undercut the floor without any
# code regression, so the gate becomes warn-only there.
calib_ref=$(sed -n 's/^# calib[ \t]*\([0-9.]*\).*/\1/p' results/BENCH_FLOOR | head -1)
floor_mode=fail
if [ -n "$calib_ref" ]; then
    calib_out=$(go test -run '^$' -bench 'BenchmarkHostCalibration$' \
        -benchtime "${CALIB_BENCHTIME:-0.3s}" -count "${CALIB_COUNT:-3}" .)
    if ! echo "$calib_out" | awk -v ref="$calib_ref" '
        /^BenchmarkHostCalibration/ { for (i = 2; i <= NF; i++) if ($i == "MB/s" && $(i-1) > best) best = $(i-1) }
        END {
            if (best == 0) { print "ci: calibration output missing MB/s — keeping hard floor" ; exit 0 }
            printf "ci: host calibration %.0f MB/s (floor recorded at %s MB/s)\n", best, ref
            if (best + 0 < 0.7 * ref) exit 1
        }'; then
        floor_mode=warn
        echo "ci: host detectably slower than the floor reference — throughput gate is warn-only"
    fi
fi
echo "$raw_out" | awk -v floor="$floor" -v mode="$floor_mode" '
    /^BenchmarkRawChannel/ { for (i = 2; i <= NF; i++) if ($i == "MB/s" && $(i-1) > best) best = $(i-1) }
    END {
        if (best == 0) { print "ci: BenchmarkRawChannel output missing MB/s"; exit 1 }
        printf "ci: BenchmarkRawChannel %.0f MB/s (floor %s MB/s)\n", best, floor
        if (best + 0 < floor + 0) {
            if (mode == "warn") { print "ci: WARNING: below floor on a slow host — not failing" }
            else { print "ci: throughput below floor — simulator regression" ; exit 1 }
        }
    }'

echo "ci: OK"
