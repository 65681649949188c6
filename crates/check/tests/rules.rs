//! Seeded-violation tests: every rule must fire on a deliberately bad
//! snippet and stay quiet when the code is out of scope or suppressed.
//!
//! The bad snippets live in string literals, which the scanner blanks
//! out of its code view — so this file itself never trips the rules it
//! seeds.

use std::path::Path;
use verus_check::{scan_source, Diagnostic};

fn scan(rel: &str, text: &str) -> Vec<Diagnostic> {
    scan_source(Path::new(rel), text)
}

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- no-wallclock

#[test]
fn wallclock_instant_fires_in_deterministic_crate() {
    let d = scan(
        "crates/core/src/foo.rs",
        "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n",
    );
    // `core` is both deterministic and clock-injected, so the
    // `Instant::now()` line additionally trips `no-ambient-clock`.
    assert_eq!(rules(&d), ["no-wallclock", "no-wallclock", "no-ambient-clock"]);
    assert_eq!(d[0].line, 1);
    assert_eq!(d[1].line, 2);
    assert_eq!(d[2].line, 2);
}

#[test]
fn wallclock_sleep_and_systemtime_fire() {
    let d = scan(
        "crates/netsim/src/foo.rs",
        "fn f() { std::thread::sleep(d); let _ = SystemTime::now(); }\n",
    );
    assert_eq!(rules(&d), ["no-wallclock", "no-wallclock"]);
}

#[test]
fn wallclock_fires_even_in_tests_of_deterministic_crates() {
    let d = scan("crates/spline/tests/t.rs", "fn f() { let t = Instant::now(); }\n");
    assert_eq!(rules(&d), ["no-wallclock"]);
}

#[test]
fn wallclock_allowed_in_transport() {
    let d = scan(
        "crates/transport/src/clock.rs",
        "use std::time::Instant;\nfn f() { std::thread::sleep(d); }\n",
    );
    assert!(d.is_empty(), "transport may use the wall clock: {d:?}");
}

#[test]
fn wallclock_ignores_identifier_substrings() {
    let d = scan(
        "crates/core/src/foo.rs",
        "struct InstantaneousRate; fn f(x: MySystemTimeish) {}\n",
    );
    assert!(d.is_empty(), "{d:?}");
}

// ------------------------------------------------------------ no-ambient-clock

#[test]
fn ambient_clock_fires_in_trace_crate() {
    let d = scan(
        "crates/trace/src/recorder.rs",
        "fn stamp() -> u64 { nanos(std::time::Instant::now()) }\n",
    );
    assert_eq!(rules(&d), ["no-ambient-clock"]);
    assert_eq!(d[0].line, 1);
}

#[test]
fn ambient_clock_systemtime_fires_even_in_trace_tests() {
    // Scope is the whole crate, tests included: a test stamping records
    // from the wall clock would hide nondeterminism the rule exists to
    // prevent.
    let d = scan(
        "crates/trace/tests/t.rs",
        "fn f() { let t = SystemTime::now(); }\n",
    );
    assert_eq!(rules(&d), ["no-ambient-clock"]);
}

#[test]
fn ambient_clock_allowed_in_transport_and_bench() {
    assert!(scan(
        "crates/transport/src/clock.rs",
        "fn f() { let t = Instant::now(); }\n"
    )
    .is_empty());
    assert!(scan(
        "crates/bench/src/bin/fig.rs",
        "fn f() { let t = std::time::Instant::now(); }\n"
    )
    .is_empty());
}

#[test]
fn ambient_clock_needs_the_now_call_not_just_the_type() {
    // The *type* appearing in trace (e.g. in a doc example's signature)
    // is not an ambient read; only `::now` is.
    let d = scan(
        "crates/trace/src/sink.rs",
        "fn f(t: std::time::Instant) -> Instant { t }\n",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn ambient_clock_in_netsim_is_wallclock_territory() {
    // netsim is deterministic but not clock-injected: `Instant::now()`
    // there trips `no-wallclock` (twice: type + call site share the
    // `Instant` token only once, so exactly one wallclock hit) and must
    // not trip this rule.
    let d = scan("crates/netsim/src/foo.rs", "fn f() { Instant::now(); }\n");
    assert_eq!(rules(&d), ["no-wallclock"]);
}

#[test]
fn ambient_clock_suppression_works() {
    let text = "fn f() { std::time::Instant::now(); } // verus-check: allow(no-ambient-clock)\n";
    assert!(scan("crates/trace/src/export.rs", text).is_empty());
}

#[test]
fn oracle_reading_the_wall_clock_fires_both_clock_rules() {
    // A "bad oracle" that stamps its plan from the machine clock: the
    // omniscient bound would differ per host. Oracle is both a
    // deterministic crate and clock-injected, so the hit trips
    // `no-wallclock` *and* `no-ambient-clock`.
    let d = scan(
        "crates/oracle/src/plan.rs",
        "fn stamp() -> u64 { nanos(std::time::Instant::now()) }\n",
    );
    let mut r = rules(&d);
    r.sort_unstable();
    assert_eq!(r, ["no-ambient-clock", "no-wallclock"]);
}

#[test]
fn oracle_hash_iteration_fires_unordered_rule() {
    // A "bad oracle" collecting its send schedule through a HashMap:
    // iteration order would vary per run, so two builds of the same
    // plan could disagree — exactly the nondeterminism the bound must
    // not have.
    let d = scan(
        "crates/oracle/src/cc.rs",
        "use std::collections::HashMap;\nfn f(m: &HashMap<u64, u64>) { for _ in m {} }\n",
    );
    assert!(
        rules(&d).contains(&"no-unordered-iteration"),
        "{d:?}"
    );
}

#[test]
fn oracle_violations_fire_even_in_its_tests() {
    // The deterministic scope covers test code too.
    let d = scan(
        "crates/oracle/tests/t.rs",
        "fn f() { let _ = std::collections::HashSet::<u64>::new(); }\n",
    );
    assert_eq!(rules(&d), ["no-unordered-iteration"]);
}

// ------------------------------------------------------------ no-unwrap-in-lib

#[test]
fn unwrap_fires_in_core_lib() {
    let d = scan("crates/core/src/foo.rs", "fn f() { v.last().unwrap(); }\n");
    assert_eq!(rules(&d), ["no-unwrap-in-lib"]);
}

#[test]
fn expect_and_panic_fire_in_netsim_lib() {
    let d = scan(
        "crates/netsim/src/foo.rs",
        "fn f() { v.pop().expect(\"x\"); }\nfn g() { panic!(\"boom\"); }\n",
    );
    assert_eq!(rules(&d), ["no-unwrap-in-lib", "no-unwrap-in-lib"]);
}

#[test]
fn unwrap_or_is_not_flagged() {
    let d = scan("crates/core/src/foo.rs", "fn f() { v.pop().unwrap_or(0); }\n");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn unwrap_ok_in_cfg_test_module() {
    let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { v.pop().unwrap(); }\n}\n";
    let d = scan("crates/core/src/foo.rs", text);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn unwrap_ok_in_tests_dir_and_other_crates() {
    assert!(scan("crates/core/tests/t.rs", "fn f() { v.pop().unwrap(); }\n").is_empty());
    assert!(scan("crates/stats/src/foo.rs", "fn f() { v.pop().unwrap(); }\n").is_empty());
}

#[test]
fn doc_comment_mentioning_unwrap_is_ignored() {
    let d = scan(
        "crates/core/src/foo.rs",
        "/// Calls `.unwrap()` internally — just kidding.\nfn f() {}\n",
    );
    assert!(d.is_empty(), "{d:?}");
}

// ------------------------------------------------------------- no-print-in-lib

#[test]
fn println_fires_in_lib_code() {
    let d = scan("crates/stats/src/foo.rs", "fn f() { println!(\"x\"); }\n");
    assert_eq!(rules(&d), ["no-print-in-lib"]);
}

#[test]
fn eprintln_fires_in_lib_code() {
    let d = scan("crates/transport/src/foo.rs", "fn f() { eprintln!(\"x\"); }\n");
    assert_eq!(rules(&d), ["no-print-in-lib"]);
}

#[test]
fn print_allowed_in_bench_bins_and_tests() {
    assert!(scan("crates/bench/src/output.rs", "fn f() { println!(\"x\"); }\n").is_empty());
    assert!(scan("crates/bench/src/bin/fig.rs", "fn f() { println!(\"x\"); }\n").is_empty());
    assert!(scan("crates/core/tests/t.rs", "fn f() { println!(\"x\"); }\n").is_empty());
    assert!(scan("examples/demo.rs", "fn f() { println!(\"x\"); }\n").is_empty());
}

// -------------------------------------------------------------- nan-unsafe-cmp

#[test]
fn partial_cmp_unwrap_fires() {
    let d = scan("crates/stats/src/q.rs", "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n");
    assert_eq!(rules(&d), ["nan-unsafe-cmp"]);
}

#[test]
fn partial_cmp_expect_fires_across_lines() {
    let text = "let i = xs.binary_search_by(|p| {\n    p.partial_cmp(&x)\n        .expect(\"nan\")\n});\n";
    let d = scan("crates/spline/src/m.rs", text);
    assert_eq!(rules(&d), ["nan-unsafe-cmp"]);
    assert_eq!(d[0].line, 2, "diagnostic anchors at the partial_cmp call");
}

#[test]
fn partial_cmp_unwrap_or_fires() {
    let d = scan(
        "crates/bench/src/bin/fig.rs",
        "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));\n",
    );
    assert_eq!(rules(&d), ["nan-unsafe-cmp"]);
}

#[test]
fn partial_cmp_definition_is_not_flagged() {
    let text = "impl PartialOrd for T {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }\n}\n";
    assert!(scan("crates/netsim/src/s.rs", text).is_empty());
}

#[test]
fn total_cmp_is_clean() {
    let d = scan("crates/stats/src/q.rs", "v.sort_by(f64::total_cmp);\n");
    assert!(d.is_empty(), "{d:?}");
}

// -------------------------------------------------------------------- no-todo

#[test]
fn todo_fires_anywhere() {
    let d = scan("crates/bench/src/bin/fig.rs", "fn f() { todo!() }\n");
    assert_eq!(rules(&d), ["no-todo"]);
    let d = scan("crates/core/tests/t.rs", "fn f() { unimplemented!() }\n");
    assert_eq!(rules(&d), ["no-todo"]);
}

// ---------------------------------------------------------- no-truncating-cast

#[test]
fn narrowing_casts_fire_in_netsim_lib() {
    let mut d = scan(
        "crates/netsim/src/sim.rs",
        "fn f(n: u64) -> usize { n as usize }\nfn g(n: u64) -> u32 { n as u32 }\n",
    );
    d.sort();
    assert_eq!(rules(&d), ["no-truncating-cast", "no-truncating-cast"]);
    assert_eq!(d[0].line, 1);
    assert_eq!(d[1].line, 2);
}

#[test]
fn narrowing_casts_fire_in_transport_lib() {
    let d = scan(
        "crates/transport/src/emulator.rs",
        "fn f(n: u64) -> u16 { n as u16 }\nfn g(n: u64) -> u8 { n as u8 }\n",
    );
    assert_eq!(rules(&d), ["no-truncating-cast", "no-truncating-cast"]);
}

#[test]
fn narrowing_casts_fire_in_the_batched_io_plane() {
    // io_batch.rs marshals datagram lengths between kernel structs and
    // Rust types — exactly where a silent truncation would corrupt the
    // packet ledger, so the rule covers it like the rest of transport.
    let d = scan(
        "crates/transport/src/io_batch.rs",
        "fn f(n: u64) -> usize { n as usize }\n",
    );
    assert_eq!(rules(&d), ["no-truncating-cast"]);
}

#[test]
fn widening_casts_are_clean() {
    let d = scan(
        "crates/netsim/src/sim.rs",
        "fn f(n: usize) -> u64 { n as u64 }\nfn g(x: u32) -> f64 { f64::from(x) }\n",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn narrowing_cast_allowed_outside_packet_crates_and_in_tests() {
    assert!(scan("crates/stats/src/q.rs", "fn f(n: u64) -> usize { n as usize }\n").is_empty());
    assert!(scan("crates/netsim/tests/t.rs", "fn f(n: u64) -> u32 { n as u32 }\n").is_empty());
    let in_test_mod =
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(n: u64) -> u32 { n as u32 }\n}\n";
    assert!(scan("crates/transport/src/emulator.rs", in_test_mod).is_empty());
}

#[test]
fn narrowing_cast_suppression_works() {
    let text = "fn f(n: u64) -> u32 { n as u32 } // verus-check: allow(no-truncating-cast)\n";
    assert!(scan("crates/netsim/src/sim.rs", text).is_empty());
}

// --------------------------------------------------------------- suppressions

#[test]
fn trailing_allow_comment_suppresses() {
    let text = "fn f() { v.pop().unwrap(); } // verus-check: allow(no-unwrap-in-lib)\n";
    assert!(scan("crates/core/src/foo.rs", text).is_empty());
}

#[test]
fn preceding_line_allow_comment_suppresses() {
    let text = "// bootstrap only — verus-check: allow(no-unwrap-in-lib)\nfn f() { v.pop().unwrap(); }\n";
    assert!(scan("crates/core/src/foo.rs", text).is_empty());
}

#[test]
fn allow_for_a_different_rule_does_not_suppress() {
    let text = "fn f() { v.pop().unwrap(); } // verus-check: allow(no-todo)\n";
    let d = scan("crates/core/src/foo.rs", text);
    assert_eq!(rules(&d), ["no-unwrap-in-lib"]);
}

#[test]
fn allow_list_suppresses_multiple_rules() {
    let text =
        "fn f() { println!(\"{}\", x.partial_cmp(&y).unwrap().is_eq()); } // verus-check: allow(no-print-in-lib, nan-unsafe-cmp)\n";
    assert!(scan("crates/stats/src/foo.rs", text).is_empty());
}

// ---------------------------------------------------- no-unordered-iteration

#[test]
fn hashmap_fires_in_deterministic_crate() {
    let d = scan(
        "crates/core/src/foo.rs",
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
    );
    assert_eq!(
        rules(&d),
        ["no-unordered-iteration", "no-unordered-iteration", "no-unordered-iteration"]
    );
    assert_eq!(d[0].line, 1);
}

#[test]
fn hashset_fires_even_in_tests_of_deterministic_crates() {
    // Arbitrary iteration order hides flaky assertions, so tests are in
    // scope too — this is the shape of the live finding the rule was
    // introduced to catch (cellular's predictor-name test).
    let d = scan(
        "crates/cellular/tests/t.rs",
        "fn f() { let s: std::collections::HashSet<u32> = Default::default(); }\n",
    );
    assert_eq!(rules(&d), ["no-unordered-iteration"]);
}

#[test]
fn btree_collections_are_clean() {
    let d = scan(
        "crates/cellular/src/foo.rs",
        "use std::collections::{BTreeMap, BTreeSet};\nfn f(m: BTreeMap<u32, u32>) {}\n",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn hashmap_allowed_outside_deterministic_crates() {
    assert!(scan(
        "crates/transport/src/foo.rs",
        "use std::collections::HashMap;\n"
    )
    .is_empty());
    assert!(scan("crates/bench/src/output.rs", "fn f(m: HashMap<u32, u32>) {}\n").is_empty());
}

#[test]
fn unordered_iteration_suppression_works() {
    let text = "// lookup only, never iterated — verus-check: allow(no-unordered-iteration)\nfn f(m: HashMap<u32, u32>) {}\n";
    assert!(scan("crates/core/src/foo.rs", text).is_empty());
}

// ------------------------------------------------- atomic-ordering-justified

#[test]
fn unjustified_relaxed_fires_in_lib_and_bin() {
    let d = scan(
        "crates/transport/src/foo.rs",
        "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }\n",
    );
    assert_eq!(rules(&d), ["atomic-ordering-justified"]);
    let d = scan(
        "crates/bench/src/bin/fig.rs",
        "fn f(x: &AtomicBool) -> bool { x.load(Ordering::Acquire) }\n",
    );
    assert_eq!(rules(&d), ["atomic-ordering-justified"]);
}

#[test]
fn same_line_ordering_comment_justifies() {
    let text = "fn f(x: &AtomicU64) { x.fetch_add(1, Ordering::Relaxed); } // ordering: monotonic stat counter\n";
    assert!(scan("crates/transport/src/foo.rs", text).is_empty());
}

#[test]
fn ordering_comment_on_another_line_does_not_justify() {
    // The justification must sit on the line of the access itself —
    // that is what keeps it attached through refactors.
    let text = "// ordering: stat counter\nfn f(x: &AtomicU64) { x.fetch_add(1, Ordering::Relaxed); }\n";
    let d = scan("crates/transport/src/foo.rs", text);
    assert_eq!(rules(&d), ["atomic-ordering-justified"]);
}

#[test]
fn every_atomic_ordering_variant_is_audited() {
    for variant in ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"] {
        let text = format!("fn f(x: &AtomicU64) {{ x.store(1, Ordering::{variant}); }}\n");
        let d = scan("crates/transport/src/foo.rs", &text);
        assert_eq!(rules(&d), ["atomic-ordering-justified"], "{variant}");
    }
}

#[test]
fn shard_server_atomics_are_in_the_audited_scope() {
    // The sharded transport plane's lock-free stats and mailbox live in
    // shard_server.rs: every new `Ordering::` site there must carry the
    // same-line justification, exactly like the rest of the crate.
    let d = scan(
        "crates/transport/src/shard_server.rs",
        "fn f(x: &AtomicU64) -> u64 { x.fetch_add(1, Ordering::Relaxed) }\n",
    );
    assert_eq!(rules(&d), ["atomic-ordering-justified"]);
    let justified = "fn f(x: &AtomicU64) { x.store(1, Ordering::Release); } // ordering: publish barrier for the stats snapshot\n";
    assert!(scan("crates/transport/src/shard_server.rs", justified).is_empty());
}

#[test]
fn cmp_ordering_variants_are_not_atomic_sites() {
    let d = scan(
        "crates/transport/src/foo.rs",
        "fn f() -> Ordering { Ordering::Equal.then(Ordering::Less) }\n",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn atomics_in_tests_are_out_of_scope() {
    assert!(scan(
        "crates/transport/tests/t.rs",
        "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }\n"
    )
    .is_empty());
    let in_test_mod = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: &AtomicU64) { x.store(1, Ordering::SeqCst); }\n}\n";
    assert!(scan("crates/transport/src/foo.rs", in_test_mod).is_empty());
}

#[test]
fn atomic_ordering_suppression_works() {
    let text = "fn f(x: &AtomicU64) { x.store(1, Ordering::SeqCst); } // verus-check: allow(atomic-ordering-justified)\n";
    assert!(scan("crates/transport/src/foo.rs", text).is_empty());
}

// ---------------------------------------------- no-thread-outside-transport

#[test]
fn thread_spawn_fires_outside_transport() {
    let d = scan(
        "crates/core/src/foo.rs",
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    assert_eq!(rules(&d), ["no-thread-outside-transport"]);
    let d = scan(
        "crates/netsim/src/foo.rs",
        "fn f() { std::thread::scope(|s| {}); }\n",
    );
    assert_eq!(rules(&d), ["no-thread-outside-transport"]);
    let d = scan(
        "crates/trace/src/foo.rs",
        "fn f() { std::thread::Builder::new(); }\n",
    );
    assert_eq!(rules(&d), ["no-thread-outside-transport"]);
}

#[test]
fn threads_allowed_in_transport_model_and_parallel_runner() {
    let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
    assert!(scan("crates/transport/src/emulator.rs", spawn).is_empty());
    assert!(scan("crates/model/src/scheduler.rs", spawn).is_empty());
    assert!(scan("crates/bench/src/parallel.rs", spawn).is_empty());
}

#[test]
fn thread_scope_is_denied_in_every_netsim_file() {
    // The simulator is single-threaded: no netsim file carries a thread
    // exemption, including the path the removed sharded runner used.
    let scope = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    for rel in [
        "crates/netsim/src/shard.rs",
        "crates/netsim/src/sim.rs",
        "crates/netsim/src/wheel.rs",
        "crates/netsim/src/bin/tool.rs",
    ] {
        assert_eq!(
            rules(&scan(rel, scope)),
            ["no-thread-outside-transport"],
            "{rel}"
        );
    }
}

#[test]
fn loadtest_bench_bin_may_not_spawn_threads() {
    // The BENCH_4 driver must stay a pure client of `ShardServer` —
    // all thread-per-core fan-out lives behind the transport API, so
    // the bench numbers measure the plane, not ad-hoc bin threading.
    let d = scan(
        "crates/bench/src/bin/bench_loadtest.rs",
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    assert_eq!(rules(&d), ["no-thread-outside-transport"]);
}

#[test]
fn threads_in_tests_are_out_of_scope() {
    // Test targets may spin helper threads (e.g. the loom-style model
    // harnesses drive verus-model, whose API shape includes
    // `thread::spawn`); lib/bin code is where confinement matters.
    assert!(scan("crates/core/tests/t.rs", "fn f() { std::thread::spawn(|| {}); }\n").is_empty());
}

#[test]
fn thread_rule_suppression_works() {
    let text = "fn f() { std::thread::spawn(|| {}); } // verus-check: allow(no-thread-outside-transport)\n";
    assert!(scan("crates/core/src/foo.rs", text).is_empty());
}

// -------------------------------------------------------- no-shared-mut-static

#[test]
fn static_mut_fires_anywhere() {
    let d = scan("crates/bench/src/output.rs", "static mut COUNTER: u64 = 0;\n");
    assert_eq!(rules(&d), ["no-shared-mut-static"]);
    let d = scan("crates/core/tests/t.rs", "static mut FLAG: bool = false;\n");
    assert_eq!(rules(&d), ["no-shared-mut-static"]);
}

#[test]
fn immutable_and_thread_local_statics_are_clean() {
    let text = "static N: u64 = 3;\nstatic S: AtomicU64 = AtomicU64::new(0);\nthread_local! { static T: Cell<u64> = Cell::new(0); }\n";
    assert!(scan("crates/bench/src/output.rs", text).is_empty());
}

// ---------------------------------------------------- no-unwrap-in-transport

#[test]
fn unwrap_in_transport_lib_warns() {
    let d = scan(
        "crates/transport/src/session.rs",
        "fn f() { v.pop().unwrap(); }\nfn g() { r.lock().expect(\"poisoned\"); }\n",
    );
    assert_eq!(rules(&d), ["no-unwrap-in-transport", "no-unwrap-in-transport"]);
    assert_eq!(d[0].severity, verus_check::Severity::Warn);
    assert_eq!(d[0].line, 1);
    assert_eq!(d[1].line, 2);
}

#[test]
fn unwrap_in_transport_bin_warns() {
    let d = scan(
        "crates/transport/src/bin/probe.rs",
        "fn main() { run().unwrap(); }\n",
    );
    assert_eq!(rules(&d), ["no-unwrap-in-transport"]);
}

#[test]
fn panic_in_transport_is_allowed() {
    // Unlike `no-unwrap-in-lib`, `panic!` stays legal: transport code
    // asserts programming contracts (e.g. config validation) with it.
    let d = scan(
        "crates/transport/src/session.rs",
        "fn f() { panic!(\"bad config\"); }\n",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn unwrap_in_transport_tests_is_out_of_scope() {
    let in_test_mod =
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { v.pop().unwrap(); }\n}\n";
    assert!(scan("crates/transport/src/session.rs", in_test_mod).is_empty());
    assert!(scan(
        "crates/transport/tests/t.rs",
        "fn f() { v.pop().unwrap(); }\n"
    )
    .is_empty());
}

#[test]
fn unwrap_outside_transport_is_not_this_rules_business() {
    // `bench` is covered by neither unwrap rule.
    let d = scan("crates/bench/src/output.rs", "fn f() { v.pop().unwrap(); }\n");
    assert!(d.is_empty(), "{d:?}");
    // `core` unwraps trip the deny-level lib rule instead.
    let d = scan("crates/core/src/foo.rs", "fn f() { v.pop().unwrap(); }\n");
    assert_eq!(rules(&d), ["no-unwrap-in-lib"]);
}

#[test]
fn unwrap_in_transport_suppression_works_and_is_not_stale() {
    let report = verus_check::scan_file(
        Path::new("crates/transport/src/session.rs"),
        "fn f() { v.pop().unwrap(); } // verus-check: allow(no-unwrap-in-transport)\n",
    );
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert!(report.stale.is_empty(), "{:?}", report.stale);
}

// ------------------------------------------------------------------ severity

#[test]
fn rule_findings_are_deny_level() {
    let d = scan("crates/core/src/foo.rs", "fn f() { todo!() }\n");
    assert_eq!(d[0].severity, verus_check::Severity::Deny);
}

// ---------------------------------------------------------- stale-suppression

#[test]
fn unused_allow_marker_is_reported_stale() {
    let report = verus_check::scan_file(
        Path::new("crates/core/src/foo.rs"),
        "fn f() { v.pop().unwrap_or(0); } // verus-check: allow(no-unwrap-in-lib)\n",
    );
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
    assert_eq!(report.stale[0].rule, "stale-suppression");
    assert_eq!(report.stale[0].severity, verus_check::Severity::Warn);
    assert_eq!(report.stale[0].line, 1);
}

#[test]
fn used_allow_marker_is_not_stale() {
    let report = verus_check::scan_file(
        Path::new("crates/core/src/foo.rs"),
        "fn f() { v.pop().unwrap(); } // verus-check: allow(no-unwrap-in-lib)\n",
    );
    assert!(report.diagnostics.is_empty());
    assert!(report.stale.is_empty(), "{:?}", report.stale);
}

#[test]
fn allow_of_unknown_rule_is_reported() {
    let report = verus_check::scan_file(
        Path::new("crates/core/src/foo.rs"),
        "fn f() {} // verus-check: allow(no-such-rule)\n",
    );
    assert_eq!(report.stale.len(), 1);
    assert!(
        report.stale[0].message.contains("unknown rule"),
        "{}",
        report.stale[0].message
    );
}

#[test]
fn marker_inside_string_literal_is_not_a_suppression_nor_stale() {
    // The seeded fixtures in this very file rely on this: an allow list
    // spelled inside a string literal is invisible to the engine.
    let report = verus_check::scan_file(
        Path::new("crates/core/src/foo.rs"),
        "fn f() { let s = \"x // verus-check: allow(no-todo)\"; }\n",
    );
    assert!(report.diagnostics.is_empty());
    assert!(report.stale.is_empty(), "{:?}", report.stale);
}

#[test]
fn preceding_line_marker_used_by_next_line_is_not_stale() {
    let report = verus_check::scan_file(
        Path::new("crates/core/src/foo.rs"),
        "// bootstrap only — verus-check: allow(no-unwrap-in-lib)\nfn f() { v.pop().unwrap(); }\n",
    );
    assert!(report.diagnostics.is_empty());
    assert!(report.stale.is_empty(), "{:?}", report.stale);
}

// ------------------------------------------------------------------ formatting

#[test]
fn diagnostic_formats_as_path_line_rule() {
    let d = scan("crates/core/src/foo.rs", "fn f() { v.pop().unwrap(); }\n");
    let s = d[0].to_string();
    assert!(s.contains("crates/core/src/foo.rs:1:"), "{s}");
    assert!(s.contains("[no-unwrap-in-lib]"), "{s}");
}
