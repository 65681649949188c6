#!/usr/bin/env bash
# CI entry point: build, test, static-analyse, then soak.
#
# The verus-check pass runs after build/test so that compile/test
# failures surface first; it exits non-zero on any diagnostic, which
# fails the pipeline. The next job re-runs the fault-injection soak and
# the netsim conservation tests (among them a 100-flow CUBIC crowd on a
# RED cell) in a release build with the runtime invariant layers
# compiled in (`strict-invariants` on every crate that has one):
# optimized-build timing with every conservation/phase assert armed, on
# fixed seeds so failures reproduce.
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

cargo test --release -q -p verus-bench -p verus-netsim --test fault_injection --test conservation \
  --features verus-netsim/strict-invariants,verus-core/strict-invariants,verus-transport/strict-invariants

# CLI smoke: the sender/receiver binaries end to end on loopback. The
# receiver binds an ephemeral port and names it on stderr; a 2 s
# transfer at it must get at least one packet acknowledged, once with
# Verus and once with CUBIC (no tick interval: it runs on the shard's
# maintenance epoch). Each send runs under `timeout 5`: a transfer that
# drains promptly ends a few milliseconds after its 2 s, and one that
# hangs into the server's hard abort (deadline + 2 s drain timeout +
# 1 s) fails here.
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
for proto in verus cubic; do
  send_out="$(timeout 5 target/release/verus-send "$recv_addr" --secs 2 --proto "$proto")" \
    || { echo "verus-send --proto $proto failed or outlived its 5 s budget:"; echo "$send_out"; exit 1; }
  acked="$(sed -n 's/.*(\([0-9]*\) acked \/ [0-9]* sent).*/\1/p' <<< "$send_out")"
  [ "${acked:-0}" -gt 0 ] || { echo "verus-send --proto $proto got nothing acknowledged:"; echo "$send_out"; exit 1; }
done
kill "$recv_pid"
wait "$recv_pid" 2> /dev/null || true
trap - EXIT
rm -f "$recv_log"

# Chaos smoke: the seeded chaos soak on both substrates with the
# recovery SLOs armed (the binary itself asserts them and exits
# non-zero on a miss). Written to scratch; jq then re-checks the SLO
# verdicts from the record, and the committed CHAOS_0.json (a reviewed
# artifact from the full 30 s soak, byte-stable across same-seed runs)
# is validated structurally the same way. A fresh full soak (~30 s)
# must then reproduce the committed record's sim half exactly (it is
# seeded simulation); the transport half holds only the SLO verdicts the
# jq gate above already checks.
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
VERUS_BENCH_OUT="$chaos_out" cargo run --release -q -p verus-bench --bin bench_chaos > /dev/null
jq -e --slurpfile fresh "$chaos_out" '.sim == $fresh[0].sim' CHAOS_0.json > /dev/null \
  || { echo "CHAOS_0.json's sim half is stale against a fresh full soak:";
       diff <(jq -S .sim CHAOS_0.json) <(jq -S .sim "$chaos_out"); exit 1; }
rm -f "$chaos_out"

# Tournament smoke: the baseline tournament (every protocol × scenario,
# scored against the omniscient bound) on its 3-scenario smoke grid.
# Run twice to temporary paths — the artifact is fixed-precision JSON
# from a seeded simulation, so the two runs must be byte-identical. A
# fresh full run (~1 s) must equal the committed TOURNAMENT_0.json (the
# reviewed full 8 × 10 grid) byte for byte. jq then gates the contract
# on the smoke record and on the committed one: the oracle's regret is
# *exactly* 0 in every scenario (its utility is the denominator), every
# other regret lies in [0, 1], every cell delivered traffic, and every
# scenario's optimum is positive.
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
VERUS_BENCH_OUT="$tourn_out2" cargo run --release -q -p verus-bench --bin bench_tournament > /dev/null
cmp -s TOURNAMENT_0.json "$tourn_out2" \
  || { echo "TOURNAMENT_0.json is stale against a fresh full run:"; diff TOURNAMENT_0.json "$tourn_out2" | head; exit 1; }
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

# Committed results: repro_all regenerates every figure's JSON and its
# console log into a scratch VERUS_RESULTS, trace_report re-captures the
# sample trace and re-derives its timeline, profile-evolution and
# summary artifacts, and every file must equal the committed one byte
# for byte, so a stale artifact fails here. (The EXPERIMENTS.md verdicts
# are re-derived from the committed files by the tier-1 test
# crates/bench/tests/experiments.rs.)
cargo build --release -q -p verus-bench --bins
regen="$(mktemp -d /tmp/verus_results.XXXXXX)"
VERUS_RESULTS="$regen" target/release/repro_all > "$regen/repro_all_output.txt"
VERUS_RESULTS="$regen" target/release/trace_report capture > /dev/null
VERUS_RESULTS="$regen" target/release/trace_report report "$regen/sample_trace.jsonl" > /dev/null
diff <(ls results) <(ls "$regen") \
  || { echo "results/ and a fresh regeneration list different files"; exit 1; }
for f in results/*; do
  cmp -s "$f" "$regen/${f#results/}" \
    || { echo "$f is stale against a fresh regeneration:"; diff "$f" "$regen/${f#results/}" | head; exit 1; }
done
rm -rf "$regen"

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

# Trace-overhead ceiling: the traced pass of verus_single re-runs the
# flow with a verus-trace recorder attached and reports the wall-time
# cost against the untraced pass. The ceiling is loose because a loaded
# 2-core host cannot measure a few percent reliably; a reading well into
# double digits still catches an accidentally quadratic hook.
perf_line="$(cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
  --workload verus_single --seed 1 --seconds 3 --trace 1 | tail -n 1)"
jq -e '.correct and .failed == 0 and .metrics["trace.overhead_pct"].value < 20' <<< "$perf_line" > /dev/null \
  || { echo "verus_single trace overhead at or above 20 %:"; echo "$perf_line"; exit 1; }

# Coalescing guard: one sendmmsg moves at most 64 messages and one
# recvmmsg at most 16, so udp_crowd can exceed 64 datagrams per syscall
# only while UDP segmentation offload (GSO send, GRO receive) coalesces
# same-destination runs. A reading at or below 64 on the mmsg backend
# means the plain-datagram fallback has latched on silently. On hosts
# with at least 4 cores the shard's epoch timers must also fire within
# 250 ms at p99; on fewer cores that reading measures the OS scheduler,
# not the timer plane.
perf_out="$(cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
  --workload udp_crowd --seed 1 --seconds 1 --trace 1)"
backend="$(head -n 1 <<< "$perf_out" | jq -r '.host.io_backend')"
tail -n 1 <<< "$perf_out" | jq -e --arg backend "$backend" --argjson cores "$(nproc)" '
  .correct and .failed == 0
  and ($backend != "mmsg" or .metrics["transport.io.pkts_per_syscall"].value > 64)
  and ($cores < 4 or .metrics["transport.timer.late_p99_ms"].value <= 250)
' > /dev/null || { echo "udp_crowd missed its coalescing or timer-lateness gate:"; tail -n 1 <<< "$perf_out"; exit 1; }

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
