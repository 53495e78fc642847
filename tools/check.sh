#!/usr/bin/env bash
# One-stop pre-merge gate: tier-1 suite, the per-phase cost-regression
# budgets (tests/trace_budget_test.cpp — the paper's lemmas as executable
# budgets), and the sanitizer matrix. The budget test runs again under
# TSan via sanitize.sh, so a data race in the tracer cannot hide behind
# a green plain-mode run.
#
# Usage: tools/check.sh [fast]
#   fast  — skip the sanitizer matrix (tier-1 + budgets only)

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== [check] tier-1: configure + build ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

echo "=== [check] tier-1: ctest ==="
(cd build && ctest --output-on-failure -j "$jobs")

echo "=== [check] cost-regression budgets (trace_budget_test) ==="
./build/tests/trace_budget_test

echo "=== [check] pipelined Coin-Gen smoke (bench/pipeline) ==="
# Smoke run of E16: depth 1 must match the serial loop bit-for-bit
# ("serial_match": "yes") and no envelope may cross batches (stale 0).
pipeline_out="$(./build/bench/pipeline --json --smoke)"
echo "$pipeline_out"
echo "$pipeline_out" | grep -q '"serial_match": "yes"' || {
  echo "check.sh: pipeline depth-1 diverged from the serial loop" >&2
  exit 1
}
if echo "$pipeline_out" | grep '"stale"' | grep -qv '"stale": 0'; then
  echo "check.sh: pipeline reported cross-batch stale deliveries" >&2
  exit 1
fi

echo "=== [check] wide-batch kernel gate (block_kernels / PCLMUL) ==="
# The PCLMUL-vs-software GF(2^64) differentials in both modes: once with
# the hardware multiply where the CPU has it, once with
# DPRBG_FORCE_SCALAR=1 pinning the software loop. The force-scalar rerun
# is what certifies the software fallback actually runs green on this
# host, not just that it exists. golden_test pins the ChaCha stream and
# a GF2_64 Coin-Gen digest, so the software multiply must reproduce the
# same coins bit for bit. berlekamp_welch_test holds the quorum decode
# every dealing round accepts by to its differential over GF2_64, so the
# software multiply certifies the acceptance rule too.
./build/tests/block_kernels_test
DPRBG_FORCE_SCALAR=1 ./build/tests/block_kernels_test
DPRBG_FORCE_SCALAR=1 ./build/tests/gf2_test
DPRBG_FORCE_SCALAR=1 ./build/tests/golden_test
DPRBG_FORCE_SCALAR=1 ./build/tests/berlekamp_welch_test

echo "=== [check] wide-batch M-sweep smoke (bench/pipeline --sweep-M) ==="
# E20 smoke: at every swept M, depth 1 must match the serial loop
# bit-for-bit and no envelope may cross batches. The bench exits 1
# itself on violations; the greps below double-check the markers.
sweep_out="$(./build/bench/pipeline --json --smoke --sweep-M)"
echo "$sweep_out"
if echo "$sweep_out" | grep '"serial_match"' | grep -v '"serial_match": "n/a"' \
    | grep -qv '"serial_match": "yes"'; then
  echo "check.sh: M-sweep depth-1 diverged from the serial loop" >&2
  exit 1
fi
if echo "$sweep_out" | grep '"stale"' | grep -qv '"stale": 0'; then
  echo "check.sh: M-sweep reported cross-batch stale deliveries" >&2
  exit 1
fi
# Kernel-level differential sweep (field_ops --sweep-M asserts every
# kernel equals its reference loop on every timed buffer and exits 1 on
# mismatch).
./build/bench/field_ops --sweep-M --smoke --json >/dev/null || {
  echo "check.sh: field_ops kernel sweep differential failed" >&2
  exit 1
}

echo "=== [check] sharded-beacon smoke (bench/beacon) ==="
# Smoke run of E17 at K in {1,2}: honest players must agree on every
# committee's coins ("success": "yes"), no envelope may cross batches
# (stale 0) or committee rosters (foreign 0), and the per-committee
# fault-ledger sum must reconcile with Cluster::faults() (the bench
# exits nonzero itself on any of these).
beacon_out="$(./build/bench/beacon --json --smoke)"
echo "$beacon_out"
if echo "$beacon_out" | grep '"success"' | grep -qv '"success": "yes"'; then
  echo "check.sh: beacon committees disagreed or failed" >&2
  exit 1
fi
if echo "$beacon_out" | grep '"foreign"' | grep -qv '"foreign": 0'; then
  echo "check.sh: beacon reported cross-committee deliveries" >&2
  exit 1
fi

echo "=== [check] degraded-beacon smoke (bench/beacon --crash-committee) ==="
# Smoke run of E18: the last committee crashes after its first batch;
# the bench itself hard-fails unless the crashed committee is evicted,
# the survivors stay unanimous, and the degraded rate clears the
# liveness floor. Double-check the degraded marking here so a silently
# healthy-looking crashed run cannot slip through.
degraded_out="$(./build/bench/beacon --json --smoke --crash-committee)"
echo "$degraded_out"
echo "$degraded_out" | grep -q '"mode": "crashed".*"degraded": "yes"' || {
  echo "check.sh: crashed beacon run not marked degraded" >&2
  exit 1
}
echo "$degraded_out" | grep -q '"mode": "crashed".*"evicted": "yes"' || {
  echo "check.sh: crashed committee was not evicted" >&2
  exit 1
}

echo "=== [check] beacon failover chaos suite ==="
./build/tests/chaos_beacon_test

echo "=== [check] adversarial hardening suite (misbehavior / DoS / wire) ==="
# The stalling-peer DoS scenario (hostage detected, scored, banned;
# survivors bit-for-bit equal to a from-scratch run) plus the wire
# format and varint codec suites in the plain build. All four run
# again under the sanitizer matrix via ctest.
./build/tests/misbehavior_test
./build/tests/dos_stall_test
./build/tests/wire_format_test
./build/tests/varint_test

echo "=== [check] TCP transport gate (loopback equivalence + process smoke) ==="
# The frame codec suite and the loopback equivalence suite: VSS,
# Grade-Cast, and pipelined Coin-Gen over real sockets must be
# bit-for-bit equal to the simulated cluster at the same seeds (both
# suites run again under the sanitizer matrix via ctest).
./build/tests/tcp_framing_test
./build/tests/tcp_cluster_test
# Shutdown races (Bye vs. the last round frames) only show up under
# repetition.
./build/tests/tcp_cluster_test --gtest_repeat=20

# Multi-process smoke: three dprbg_node processes on loopback must mint
# at least one beacon output and print IDENTICAL beacon lines — the
# distributed deployment's observable contract. PID-derived ports keep
# concurrent check.sh runs on one host from colliding.
tcp_dir="$(mktemp -d)"
tcp_base_port=$((20000 + ($$ % 20000)))
for i in 0 1 2; do
  echo "127.0.0.1:$((tcp_base_port + i))"
done > "$tcp_dir/roster.txt"
tcp_pids=()
for i in 0 1 2; do
  ./build/tools/dprbg_node --roster="$tcp_dir/roster.txt" --id="$i" \
    --batches=1 --m=2 --metrics="$tcp_dir/node$i.metrics.jsonl" \
    > "$tcp_dir/node$i.out" 2> "$tcp_dir/node$i.err" &
  tcp_pids+=($!)
done
tcp_rc=0
for p in "${tcp_pids[@]}"; do wait "$p" || tcp_rc=1; done
if [[ "$tcp_rc" != 0 ]]; then
  echo "check.sh: dprbg_node smoke failed" >&2
  cat "$tcp_dir"/node*.err >&2
  exit 1
fi
beacons="$(grep -c '^BEACON' "$tcp_dir/node0.out")"
echo "dprbg_node smoke: $beacons beacon outputs"
[[ "$beacons" -ge 1 ]] || {
  echo "check.sh: dprbg_node produced no beacon output" >&2
  exit 1
}
cmp "$tcp_dir/node0.out" "$tcp_dir/node1.out" || {
  echo "check.sh: nodes 0 and 1 disagree on beacon outputs" >&2
  exit 1
}
cmp "$tcp_dir/node0.out" "$tcp_dir/node2.out" || {
  echo "check.sh: nodes 0 and 2 disagree on beacon outputs" >&2
  exit 1
}
# The per-node transport telemetry snapshot must render cleanly, and its
# per-player comm view must list every player of the 3-node roster.
./build/tools/metrics_report report "$tcp_dir/node0.metrics.jsonl" >/dev/null
talkers="$(./build/tools/metrics_report top-talkers "$tcp_dir/node0.metrics.jsonl")"
echo "$talkers"
echo "$talkers" | grep -q '^3 player(s)' || {
  echo "check.sh: dprbg_node snapshot does not list 3 players" >&2
  exit 1
}
rm -rf "$tcp_dir"

echo "=== [check] telemetry reconciliation gate ==="
# The telemetry unit suite (enable/disable identity, bucket math, the
# 8-thread hammer — the sanitizer matrix reruns it under TSan), then
# both benches' --metrics reconciliation: every snapshot counter must
# equal the cluster's own ledgers EXACTLY, and the beacon gate
# additionally cross-checks the trace layer's per-round comm deltas.
./build/tests/telemetry_test
metrics_dir="$(mktemp -d)"
trap 'rm -rf "$metrics_dir"' EXIT
./build/bench/pipeline --json --smoke --metrics="$metrics_dir/pipeline.jsonl" \
  >/dev/null || {
  echo "check.sh: pipeline telemetry reconciliation failed" >&2
  exit 1
}
./build/bench/beacon --json --smoke --metrics="$metrics_dir/beacon.jsonl" \
  >/dev/null || {
  echo "check.sh: beacon telemetry reconciliation failed" >&2
  exit 1
}
# The snapshots must render cleanly (no malformed lines -> exit 0).
./build/tools/metrics_report report "$metrics_dir/beacon.jsonl" >/dev/null
./build/tools/metrics_report top-talkers "$metrics_dir/beacon.jsonl" >/dev/null
# Prometheus text format: one # TYPE line per metric family, also for a
# snapshot file whose lines are not grouped by family. The interleaved
# copy (odd lines, then even lines) splits every multi-sample family; a
# reversed copy would not, since reversal keeps each family contiguous.
awk 'NR % 2 == 1' "$metrics_dir/beacon.jsonl" >"$metrics_dir/beacon_interleaved.jsonl"
awk 'NR % 2 == 0' "$metrics_dir/beacon.jsonl" >>"$metrics_dir/beacon_interleaved.jsonl"
for snapshot in beacon.jsonl beacon_interleaved.jsonl; do
  dup_types="$(./build/tools/metrics_report prom "$metrics_dir/$snapshot" \
    | grep '^# TYPE' | sort | uniq -d)"
  if [[ -n "$dup_types" ]]; then
    echo "check.sh: repeated # TYPE lines in the Prometheus output of $snapshot:" >&2
    echo "$dup_types" >&2
    exit 1
  fi
done
./build/tools/metrics_report diff "$metrics_dir/pipeline.jsonl" \
  "$metrics_dir/beacon.jsonl" >/dev/null

if [[ "$mode" == "full" ]]; then
  echo "=== [check] sanitizer matrix ==="
  tools/sanitize.sh all

  echo "=== [check] fuzz smoke (60s per target under ASan+UBSan) ==="
  # sanitize.sh configured build-san-asan with -DDPRBG_FUZZ=ON, so the
  # fuzz binaries there are address+UB instrumented. Each target replays
  # its checked-in corpus and then mutates from it for the smoke budget;
  # any trap/sanitizer report is a hard failure. Under clang this is
  # coverage-guided libFuzzer; under gcc the standalone driver honors
  # the same flags.
  for target in fuzz_varint fuzz_envelope_header fuzz_protocol_decoders \
      fuzz_frames; do
    corpus="fuzz/corpus/${target#fuzz_}"
    ./build-san-asan/fuzz/"$target" -max_total_time=60 -seed=1 "$corpus" || {
      echo "check.sh: fuzz smoke failed for $target" >&2
      exit 1
    }
  done
else
  echo "=== [check] fast mode: sanitizer matrix + fuzz smoke skipped ==="
fi

echo "check.sh: all requested gates passed"
