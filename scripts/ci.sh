#!/usr/bin/env bash
# CI entry point: build, test, static-analyse, then soak.
#
# The verus-check pass runs after build/test so that compile/test
# failures surface first; it exits non-zero on any diagnostic, which
# fails the pipeline. The final job re-runs the fault-injection soak in
# a release build with the runtime invariant layers compiled in
# (`strict-invariants` on every crate that has one): optimized-build
# timing with every conservation/phase assert armed, on a fixed seed so
# failures reproduce.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo run -p verus-check

# Machine-readable scan: the JSON report must parse and contain zero
# deny-level diagnostics (warn-level entries — e.g. stale suppressions —
# also fail the human-mode run above via the workspace test, but the jq
# gate keeps the deny contract explicit for downstream tooling).
check_json="$(mktemp /tmp/verus_check.XXXXXX.json)"
cargo run -q -p verus-check -- --json > "$check_json"
jq -e '
  .tool == "verus-check" and .version == 2
  and (.counts.deny == 0)
  and ([.diagnostics[] | select(.severity == "deny")] | length == 0)
' "$check_json" > /dev/null || { echo "verus-check --json reported deny-level findings:"; cat "$check_json"; exit 1; }
rm -f "$check_json"

cargo test --release -q -p verus-bench --test fault_injection \
  --features verus-netsim/strict-invariants,verus-core/strict-invariants,verus-transport/strict-invariants

# CLI smoke: the sender/receiver binaries end to end on loopback. The
# receiver binds an ephemeral port and names it on stderr; a 2 s Verus
# transfer at it must get at least one packet acknowledged.
recv_log="$(mktemp /tmp/verus_recv.XXXXXX.log)"
target/release/verus-recv 127.0.0.1:0 --quiet 2> "$recv_log" &
recv_pid=$!
trap 'kill "$recv_pid" 2> /dev/null || true' EXIT
recv_addr=""
for _ in $(seq 100); do
  recv_addr="$(sed -n 's/^verus-recv listening on //p' "$recv_log")"
  [ -n "$recv_addr" ] && break
  sleep 0.1
done
[ -n "$recv_addr" ] || { echo "verus-recv never reported its address:"; cat "$recv_log"; exit 1; }
send_out="$(target/release/verus-send "$recv_addr" --secs 2)"
kill "$recv_pid"
wait "$recv_pid" 2> /dev/null || true
trap - EXIT
acked="$(sed -n 's/.*(\([0-9]*\) acked \/ [0-9]* sent).*/\1/p' <<< "$send_out")"
[ "${acked:-0}" -gt 0 ] || { echo "verus-send got nothing acknowledged:"; echo "$send_out"; exit 1; }
rm -f "$recv_log"

# Bench smoke: the tracked baseline must run and emit a well-formed
# record. Written to a scratch path (the committed BENCH_1.json is a
# reviewed artifact, updated deliberately, not on every CI run); jq
# validates the v2 schema — every figure positive, median-of-K with the
# rep/iteration counts recorded. The trace-overhead ceiling is looser
# than the reviewed artifact's ~9% reading because a loaded single-CPU
# CI box cannot measure a few percent reliably; a well-above-double-digit
# reading still catches an accidentally quadratic hook.
bench_out="$(mktemp /tmp/bench_baseline.XXXXXX.json)"
VERUS_BENCH_OUT="$bench_out" cargo run --release -q -p verus-bench --bin bench_baseline
jq -e '
  .schema == "verus-bench-baseline-v2"
  and (.reps >= 5)
  and (.lookup_old_ns > 0) and (.lookup_old_iters > 0)
  and (.lookup_new_ns > 0) and (.lookup_new_iters > 0) and (.lookup_speedup > 0)
  and (.epochs_per_sec > 0) and (.epochs_iters > 0)
  and (.sim_events > 0) and (.sim_rounds >= 5) and (.events_per_sec > 0)
  and (.trace_off_events_per_sec > 0) and (.trace_on_events_per_sec > 0)
  and (.trace_records > 0) and (.trace_overhead_pct < 20)
' "$bench_out" > /dev/null || { echo "bench_baseline emitted a malformed record:"; cat "$bench_out"; exit 1; }
rm -f "$bench_out"

# Scale smoke: a 100-flow RED crowd on the timing-wheel core with every
# conservation assert armed (strict-invariants checks the ledger after
# every event; the binary re-checks each flow's report-level ledger).
cargo run --release -q -p verus-bench --bin bench_scale \
  --features verus-netsim/strict-invariants -- --smoke

# Loadtest smoke: the sharded transport plane (thread-per-core UDP
# server, batched syscall I/O) on a 1k-flow crowd through the identical
# two-leg pipeline as the committed BENCH_4.json. The binary itself
# asserts the exact packet ledger, zero stuck sessions, cross-backend
# digest equality, and (when the batched leg runs mmsg) the >= 8x
# syscalls-per-packet ratio. Two smoke runs must agree byte-for-byte on
# the deterministic core — `measured` holds the wall-clock/syscall
# readings that legitimately vary and is excluded. jq then gates the
# schema on both the smoke record and the committed artifact; the
# epoch-timer p99 jitter budget applies only to records measured on
# >= 4 cores (on fewer cores the figure measures the OS scheduler,
# not the timer plane).
load_out="$(mktemp /tmp/bench_loadtest.XXXXXX.json)"
load_out2="$(mktemp /tmp/bench_loadtest.XXXXXX.json)"
VERUS_BENCH_OUT="$load_out" cargo run --release -q -p verus-bench --bin bench_loadtest -- --smoke
VERUS_BENCH_OUT="$load_out2" cargo run --release -q -p verus-bench --bin bench_loadtest -- --smoke > /dev/null
diff <(jq -S 'del(.measured)' "$load_out") <(jq -S 'del(.measured)' "$load_out2") \
  || { echo "loadtest smoke deterministic core is not byte-stable across same-seed runs"; exit 1; }
load_jq='
  .schema == "verus-bench-loadtest-v1"
  and (.ledger.residual == 0) and (.ledger.stuck == 0)
  and (.ledger.acked == .offered) and (.ledger.closed == .flows)
  and .gates.ledger_exact and .gates.digests_match_across_backends
  and (.gates.syscall_ratio_enforced == (.io_backend == "mmsg"))
  and (if .gates.syscall_ratio_enforced
       then .measured.syscall_ratio >= .syscall_ratio_floor else true end)
  and (.gates.jitter_enforced == (.cores >= 4))
  and (if .gates.jitter_enforced
       then .measured.batched.jitter_p99_ms <= .jitter_budget_ms else true end)
  and (.measured.baseline.syscalls > 0) and (.measured.batched.syscalls > 0)
'
jq -e "$load_jq and .smoke" "$load_out" > /dev/null \
  || { echo "loadtest smoke emitted a malformed record or missed a gate:"; cat "$load_out"; exit 1; }
jq -e "$load_jq and (.smoke | not) and (.flows >= 100000)" BENCH_4.json > /dev/null \
  || { echo "committed BENCH_4.json malformed or below acceptance"; exit 1; }
rm -f "$load_out" "$load_out2"

# Chaos smoke: the seeded chaos soak on both substrates with the
# recovery SLOs armed (the binary itself asserts them and exits
# non-zero on a miss). Written to scratch; jq then re-checks the SLO
# verdicts from the record, and the committed CHAOS_0.json (a reviewed
# artifact from the full 30 s soak, byte-stable across same-seed runs)
# is validated structurally the same way.
chaos_out="$(mktemp /tmp/bench_chaos.XXXXXX.json)"
VERUS_BENCH_OUT="$chaos_out" cargo run --release -q -p verus-bench --bin bench_chaos -- --smoke
chaos_jq='
  .schema == "verus-chaos-soak-v1"
  and (.slo_budget_ms == 2 * .backoff_cap_ms)
  and (.slo_budget_ms as $slo |
       [.sim.recoveries_ms[] | select(. > $slo)] == [])
  and (.sim.blackouts > 0) and .sim.slo_met and .sim.ledger_balanced
  and (.sim.delivered > 0)
  and (.transport.blackouts > 0)
  and .transport.reached_established
  and .transport.recovered_after_every_blackout
  and .transport.recovery_p99_within_slo
  and .transport.final_state_closed
  and .transport.ledger_consistent
'
jq -e "$chaos_jq and .smoke" "$chaos_out" > /dev/null \
  || { echo "chaos smoke emitted a malformed record or missed an SLO:"; cat "$chaos_out"; exit 1; }
jq -e "$chaos_jq and (.smoke | not)" CHAOS_0.json > /dev/null \
  || { echo "committed CHAOS_0.json malformed or below the recovery SLOs"; exit 1; }
rm -f "$chaos_out"

# Tournament smoke: the baseline tournament (every protocol × scenario,
# scored against the omniscient bound) on its 3-scenario smoke grid.
# Run twice to scratch paths — the artifact is hand-rolled fixed-
# precision JSON from a seeded simulation, so the two runs must be
# byte-identical. jq then gates the contract on the smoke record and on
# the committed TOURNAMENT_0.json (the reviewed full 8 × 10 grid):
# the oracle's regret is *exactly* 0 in every scenario (its utility is
# the denominator), every other regret lies in [0, 1], and every cell
# delivered traffic.
tourn_out="$(mktemp /tmp/bench_tournament.XXXXXX.json)"
tourn_out2="$(mktemp /tmp/bench_tournament.XXXXXX.json)"
VERUS_BENCH_OUT="$tourn_out" cargo run --release -q -p verus-bench --bin bench_tournament -- --smoke
VERUS_BENCH_OUT="$tourn_out2" cargo run --release -q -p verus-bench --bin bench_tournament -- --smoke > /dev/null
cmp -s "$tourn_out" "$tourn_out2" \
  || { echo "tournament smoke is not byte-stable across same-seed runs"; diff "$tourn_out" "$tourn_out2" | head; exit 1; }
tourn_jq='
  .schema == "verus-tournament-v1"
  and (.protocols == 8)
  and ([.scenarios[].cells | length] | unique == [8])
  and ([.scenarios[].cells[].protocol] | unique | sort
       == ["abc", "c2tcp", "cubic", "newreno", "oracle", "sprout", "vegas", "verus"])
  and ([.scenarios[].cells[] | select(.protocol == "oracle") | .regret] | unique == [0])
  and ([.scenarios[].cells[].regret | select(. < 0 or . > 1)] == [])
  and ([.scenarios[].cells[] | select(.delivered <= 0)] == [])
  and ([.scenarios[] | select(.optimal_utility <= 0)] == [])
'
jq -e "$tourn_jq and .smoke and (.scenarios | length == 3)" "$tourn_out" > /dev/null \
  || { echo "tournament smoke emitted a malformed record:"; cat "$tourn_out"; exit 1; }
jq -e "$tourn_jq and (.smoke | not) and (.scenarios | length == 10)
       and ([.scenarios[].kind] | unique | sort == [\"paper\", \"stress\"])" TOURNAMENT_0.json > /dev/null \
  || { echo "committed TOURNAMENT_0.json malformed or below acceptance"; exit 1; }
rm -f "$tourn_out" "$tourn_out2"

# Trace smoke: capture a short traced simulation, validate the JSONL
# schema line by line, replay it through trace_report, and fail if the
# recorder dropped anything (a nonzero drop counter means the bounded
# buffers silently truncated the run).
trace_out="$(mktemp -d /tmp/trace_smoke.XXXXXX)"
cargo run --release -q -p verus-bench --bin trace_report -- capture "$trace_out/smoke.jsonl"
jq -es '
  (.[0].type == "header" and .[0].schema == "verus-trace-v0")
  and ([.[].type] | unique | sort == ["epoch", "header", "packet", "profile", "summary"])
  and ([.[] | select(.type == "epoch")] | length > 0)
  and ([.[] | select(.type == "packet")] | length > 0)
  and (.[-1].type == "summary")
  and (.[-1].dropped_epochs == 0)
  and (.[-1].dropped_packets == 0)
  and (.[-1].dropped_profiles == 0)
' "$trace_out/smoke.jsonl" > /dev/null || { echo "trace capture emitted a malformed or lossy trace"; exit 1; }
VERUS_RESULTS="$trace_out" cargo run --release -q -p verus-bench --bin trace_report -- report "$trace_out/smoke.jsonl"
test -s "$trace_out/smoke_timeline.csv" || { echo "trace_report produced no timeline"; exit 1; }
test -s "$trace_out/smoke_profile_evolution.csv" || { echo "trace_report produced no profile evolution"; exit 1; }
jq -e '.schema == "verus-trace-report-v0"' "$trace_out/smoke_summary.json" > /dev/null \
  || { echo "trace_report summary malformed"; exit 1; }
rm -rf "$trace_out"

# Benchmark self-check: perfbench (the repository's benchmark, see
# BENCHMARK.json) runs each workload for one second and ends its output
# with one JSON line. Its own correctness checks — every flow's ledger
# balances, report digests agree across passes, the UDP packet ledger
# closes — must all hold, and no operation may fail.
for workload in verus_single cubic_crowd udp_crowd; do
  perf_line="$(cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  jq -e '.correct and .failed == 0' <<< "$perf_line" > /dev/null \
    || { echo "perfbench $workload failed its correctness checks: $perf_line"; exit 1; }
done

# Coalescing guard: one sendmmsg moves at most 64 messages and one
# recvmmsg at most 16, so udp_crowd can exceed 64 datagrams per syscall
# only while UDP segmentation offload (GSO send, GRO receive) coalesces
# same-destination runs. A reading at or below 64 on the mmsg backend
# means the plain-datagram fallback has latched on silently.
perf_out="$(cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
  --workload udp_crowd --seed 1 --seconds 1 --trace 1)"
if head -n 1 <<< "$perf_out" | jq -e '.host.io_backend == "mmsg"' > /dev/null; then
  tail -n 1 <<< "$perf_out" | jq -e '.correct and .failed == 0
    and .metrics["transport.io.pkts_per_syscall"].value > 64' > /dev/null \
    || { echo "udp_crowd is not coalescing datagrams (GSO/GRO):"; tail -n 1 <<< "$perf_out"; exit 1; }
fi

# Interleaving models: verus-model (the in-tree loom-style checker)
# exhaustively explores the transport stop/counter handshakes and the
# bench work-claiming protocol. No gate needed — the checker is vendored
# in crates/model, so these run on every toolchain.
cargo test -q -p verus-model
cargo test -q -p verus-transport --test loom_models
cargo test -q -p verus-bench --test loom_models

# Miri (undefined-behaviour interpreter) over the std-only crates. The
# simulator crates forbid unsafe outright, so the std-only leaf crates
# are the ones with anything for Miri to find; gated on the component
# being installed because not every toolchain ships it.
if cargo miri --version > /dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo miri test -q -p verus-check -p verus-spline -p verus-stats
else
  echo "miri not installed for this toolchain; skipping (rustup component add miri)"
fi

# ThreadSanitizer over the threaded crates' tests (the emulator/receiver
# handshakes and the parallel bench runner), same availability gate
# shape as Miri: -Zsanitizer=thread needs a nightly toolchain with the
# matching rust-src/std; skip cleanly when this toolchain lacks it.
if cargo +nightly --version > /dev/null 2>&1 \
   && RUSTFLAGS="-Zsanitizer=thread" cargo +nightly rustc -p verus-model --lib -- --emit=metadata > /dev/null 2>&1; then
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -p verus-model -p verus-transport -p verus-bench --lib --tests
else
  echo "nightly with -Zsanitizer=thread unavailable; skipping TSan job"
fi
