#!/usr/bin/env bash
# Captures a perf snapshot of the quick experiment suite, the
# join-evaluation kernels, the failure detector, and the socket hot path,
# writing <NAME>.json at the repo root so future changes have a trajectory
# to compare against.
#
#   scripts/bench_snapshot.sh NAME       full snapshot -> NAME.json
#   scripts/bench_snapshot.sh --check    CI smoke mode: one quick-suite run,
#                                        shrunk kernel audit and throughput
#                                        bench, output to a temp file (no
#                                        committed snapshot is touched),
#                                        plus every gate below
#
# The snapshot records wall times (min over N runs — min, not mean, because
# a shared box only adds noise upward) for the whole quick suite and for
# each experiment (parsed from its "[<id> finished in …]" line), kernel
# events/sec, heap allocations per event from the counting-allocator build,
# and loopback throughput at three payload sizes through the real TCP
# reactor.
#
# Gates enforced in both modes:
#   - scan-kernel allocations stay flat in the table size (slope < 0.5)
#   - the ALQT group scan is allocation-free (< 0.01 allocs/event)
#   - the socket pump is allocation-free in steady state (< 0.01
#     allocs/frame: encode-in-place write, vectored flush, pooled read)
#   - the failure detector's steady state (heartbeats, probe round trips,
#     deadline sweeps, cached digest rounds) stays below 0.1 allocs/probe
#     at every ring size, and flat in the ring size (slope < 0.05)
#   - the throughput bench covers >= 3 payload sizes, every size moves
#     messages, coalesces > 1 frame per vectored flush on average, and
#     recycles inbox buffers at a >= 90% pool hit rate
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
name=
for arg in "$@"; do
  case "$arg" in
    --check) mode=check ;;
    -*) echo "unknown argument: $arg" >&2; exit 2 ;;
    *) name=$arg ;;
  esac
done
if [[ $mode == full && ! $name =~ ^[A-Za-z0-9_.-]+$ ]]; then
  echo "usage: $0 NAME | --check   (NAME.json is written at the repo root)" >&2
  exit 2
fi

out=$name.json
runs=3
audit_args=()
socket_args=()
if [[ $mode == check ]]; then
  out=$(mktemp --suffix=.json)
  runs=1
  audit_args=(--quick)
  socket_args=(--quick)
fi

cargo build --release -p cq-sim --bin experiments
cargo build --release -p cq-bench --features count-allocs --bin alloc_audit
cargo build --release -p cq-bench --bin socket_bench

# Per-experiment wall times, one "<id> <ms>" line per experiment per run.
walls=$(mktemp)
trap 'rm -f "$walls"' EXIT
best=
for ((i = 0; i < runs; i++)); do
  t0=$(date +%s%N)
  suite=$(target/release/experiments --csv)
  t1=$(date +%s%N)
  ms=$(( (t1 - t0) / 1000000 ))
  echo "quick suite run $((i + 1))/$runs: ${ms} ms" >&2
  if [[ -z $best || $ms -lt $best ]]; then best=$ms; fi
  # "[ef02 finished in 2.84s]" -> "ef02 2840.000" (Duration's Debug units)
  sed -n 's/^\[\([A-Za-z0-9_-]*\) finished in \([0-9.]*\)\([a-zµ]*\)\]$/\1 \2 \3/p' <<< "$suite" |
    awk '{ f = ($3 == "s") ? 1000 : ($3 == "ms") ? 1 : ($3 == "ns") ? 1e-6 : 1e-3;
           printf "%s %.3f\n", $1, $2 * f }' >> "$walls"
done
# Min per experiment, in suite order.
per_experiment=$(jq -Rn '
  reduce (inputs | split(" ")) as [$id, $ms] ({};
    .[$id] = ([(.[$id] // infinite), ($ms | tonumber)] | min))
' < "$walls")
if [[ $(jq 'length' <<< "$per_experiment") -eq 0 ]]; then
  echo "FAIL: no \"[<id> finished in …]\" lines in the quick-suite output" >&2
  exit 1
fi

audit=$(target/release/alloc_audit "${audit_args[@]}")
socket=$(target/release/socket_bench "${socket_args[@]}")

jq -n \
  --arg name "${name:-check}" \
  --argjson wall "$best" \
  --argjson runs "$runs" \
  --argjson per_experiment "$per_experiment" \
  --argjson audit "$audit" \
  --argjson socket "$socket" \
  '{
    snapshot: $name,
    baseline: {
      quick_suite_wall_ms: 4230,
      note: "main before PR 6 (zero-clone kernels + batched delivery), same box; PR 10 adds the socket hot-path snapshot"
    },
    quick_suite: { wall_ms_min: $wall, runs: $runs, experiment_wall_ms_min: $per_experiment },
    alloc_audit: $audit,
    socket_bench: $socket
  }' > "$out"

echo "wrote $out (quick suite min ${best} ms over ${runs} run(s))" >&2

# Zero-clone guarantee: per-event allocations of the scan kernels must be
# flat in the table size (slope < 0.5 allocs/event between the small and
# large size), and the ALQT group scan must be allocation-free.
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels
      | group_by(.kernel)[]
      | select(.[0].kernel | test("-scan$"))
      | (max_by(.size).allocs_per_event - min_by(.size).allocs_per_event)
    ] | all(. < 0.5)
  )
' "$out" > /dev/null || { echo "FAIL: scan-kernel allocations grow with table size" >&2; exit 1; }
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels[] | select(.kernel == "alqt-scan") | .allocs_per_event ]
    | all(. < 0.01)
  )
' "$out" > /dev/null || { echo "FAIL: alqt-scan is not allocation-free" >&2; exit 1; }

# Zero-copy socket guarantee: the loopback frame pump (encode in place,
# vectored flush, pooled read, recycle) must be allocation-free per frame.
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels[] | select(.kernel == "socket-pump") | .allocs_per_event ]
    | (length > 0 and all(. < 0.01))
  )
' "$out" > /dev/null || { echo "FAIL: socket-pump allocates per frame" >&2; exit 1; }

# Failure-detector guarantee: heartbeat rounds, probe round trips, deadline
# sweeps and cached anti-entropy rounds allocate < 0.1 times per probe in
# steady state, at every ring size measured, and no more at the larger one.
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels[] | select(.kernel == "detector-tick") ] as $d
    | ($d | length >= 2)
      and ($d | all(.allocs_per_event < 0.1))
      and (($d | max_by(.size).allocs_per_event) - ($d | min_by(.size).allocs_per_event) < 0.05)
  )
' "$out" > /dev/null || { echo "FAIL: detector-tick allocates per probe or grows with ring size" >&2; exit 1; }

# Throughput-bench structure: >= 3 payload sizes, every size moves
# messages, coalesces > 1 frame per flush, and recycles pool buffers.
jq -e '
  .socket_bench.payloads | length >= 3
' "$out" > /dev/null || { echo "FAIL: socket_bench must cover >= 3 payload sizes" >&2; exit 1; }
jq -e '
  [ .socket_bench.payloads[] | .msgs_per_sec > 0 and .wire_bytes > 0 ] | all
' "$out" > /dev/null || { echo "FAIL: a payload size moved no traffic" >&2; exit 1; }
jq -e '
  [ .socket_bench.payloads[].frames_per_flush ] | all(. > 1)
' "$out" > /dev/null || { echo "FAIL: coalesced flushes must batch > 1 frame on average" >&2; exit 1; }
jq -e '
  [ .socket_bench.payloads[].pool_hit_rate ] | all(. >= 0.9)
' "$out" > /dev/null || { echo "FAIL: inbox pool hit rate below 90%" >&2; exit 1; }
echo "allocation-slope, detector and socket hot-path checks passed" >&2
