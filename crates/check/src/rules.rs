//! The declarative rule table.
//!
//! Every rule is one [`Rule`] row: a name, a severity, a scope
//! (which crates), a target filter (which build targets), whether
//! `#[cfg(test)]` bodies are exempt, an optional per-file exemption
//! list, and a [`Matcher`] describing what to look for in the token
//! stream. The engine in `lib.rs` walks this table in order; adding a
//! rule means adding a row (plus a seeded-violation test).
//!
//! Scopes reference [`crate::DETERMINISTIC_CRATES`]; the table is what
//! `DESIGN.md` §8 documents.

use crate::TargetKind;

/// How severe a finding is.
///
/// `Deny` findings fail CI (non-zero exit, non-empty `deny` bucket in
/// `--json`). `Warn` findings are reported but do not fail the CLI on
/// their own — the warn-level rules today are `stale-suppression` and
/// `no-unwrap-in-transport` — and the tier-1 workspace test still
/// requires zero of those in-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported; does not fail the CLI exit code.
    Warn,
    /// Fails the build.
    Deny,
}

impl Severity {
    /// The lowercase name used in `--json` output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which crates a rule applies to.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every file in the workspace.
    Everywhere,
    /// The crates in [`crate::DETERMINISTIC_CRATES`].
    Deterministic,
    /// Exactly these crates.
    Crates(&'static [&'static str]),
    /// Every file except these crates (files outside `crates/` included).
    NotCrates(&'static [&'static str]),
}

/// What a rule looks for.
#[derive(Debug, Clone, Copy)]
pub enum Matcher {
    /// Fires on every occurrence of any of these token sequences.
    /// Patterns are lexed with the same lexer as source, so matching is
    /// whitespace-insensitive and respects identifier boundaries
    /// (`Instant` never matches inside `InstantaneousRate`).
    Patterns(&'static [&'static str]),
    /// Like [`Matcher::Patterns`], but a hit is forgiven when the same
    /// source line carries a comment containing `comment` — the
    /// `// ordering:` justification convention.
    PatternsUnlessComment {
        /// Token sequences to search for.
        patterns: &'static [&'static str],
        /// Comment substring that justifies a hit on the same line.
        comment: &'static str,
    },
    /// The special-cased `partial_cmp(..).unwrap()/.expect()/.unwrap_or()`
    /// chain detector (needs paren matching, not just a sequence).
    NanUnsafeCmp,
}

/// One row of the rule table.
pub struct Rule {
    /// Rule identifier, as printed in diagnostics and `allow(...)`.
    pub name: &'static str,
    /// Deny fails CI; warn is advisory.
    pub severity: Severity,
    /// Which crates the rule scans.
    pub scope: Scope,
    /// Which target kinds the rule scans; empty slice = all kinds.
    pub targets: &'static [TargetKind],
    /// Whether hits inside `#[cfg(test)]` module bodies are exempt.
    pub skip_cfg_test: bool,
    /// Workspace-relative files exempt from this rule.
    pub exempt_files: &'static [&'static str],
    /// What to match.
    pub matcher: Matcher,
    /// Renders the message for a hit: `(matched pattern, crate name)`.
    pub message: fn(&str, &str) -> String,
}

const ALL_TARGETS: &[TargetKind] = &[];
const LIB_ONLY: &[TargetKind] = &[TargetKind::Lib];
const LIB_AND_BIN: &[TargetKind] = &[TargetKind::Lib, TargetKind::Bin];

fn msg_wallclock(needle: &str, krate: &str) -> String {
    format!(
        "`{needle}` in deterministic crate `{krate}`; use SimTime/SimDuration \
         (only `transport` may touch the wall clock)"
    )
}

fn msg_ambient_clock(needle: &str, krate: &str) -> String {
    format!(
        "`{needle}()` in `{krate}`: clocks are injected here — take the \
         timestamp as a parameter instead of reading the ambient clock"
    )
}

fn msg_unwrap(needle: &str, krate: &str) -> String {
    format!(
        "`{needle}` in `{krate}` library code; return an error or restructure \
         so the state is impossible"
    )
}

fn msg_print(needle: &str, _krate: &str) -> String {
    format!("`{needle}` in library code; emit data, not console output")
}

fn msg_nan(bad: &str, _krate: &str) -> String {
    format!(
        "`partial_cmp(..){bad}..` is NaN-unsafe; use `f64::total_cmp` \
         (or handle the None arm explicitly)"
    )
}

fn msg_todo(needle: &str, _krate: &str) -> String {
    format!("`{needle}` must not land on main")
}

fn msg_cast(needle: &str, krate: &str) -> String {
    format!(
        "`{needle}` in `{krate}` packet-handling code can silently truncate \
         a counter; use `::try_from` and handle the error"
    )
}

fn msg_unordered(needle: &str, krate: &str) -> String {
    format!(
        "`{needle}` in deterministic crate `{krate}` iterates in arbitrary \
         per-process order; use BTreeMap/BTreeSet (or an index-keyed Vec) so \
         seeded runs stay byte-identical"
    )
}

fn msg_atomic(needle: &str, _krate: &str) -> String {
    format!(
        "`{needle}` without a same-line `// ordering:` justification; state \
         why this memory ordering is sufficient at the use site"
    )
}

fn msg_thread(needle: &str, _krate: &str) -> String {
    format!(
        "`{needle}` outside the transport crate and the audited bench \
         parallel runner; threads fork wall-clock \
         nondeterminism into the workspace — keep concurrency confined to \
         the exempted modules"
    )
}

fn msg_static_mut(needle: &str, _krate: &str) -> String {
    format!(
        "`{needle}` is unsynchronized shared mutable state (and UB-prone to \
         even touch); use an atomic, a Mutex, or `thread_local!`"
    )
}

fn msg_unwrap_transport(needle: &str, _krate: &str) -> String {
    format!(
        "`{needle}` in transport non-test code: a panic here kills the \
         session-supervision thread the resilience layer depends on; \
         return/propagate an error or restructure so the state is impossible"
    )
}

/// The rule table, in evaluation (and documentation) order.
///
/// The first seven rows predate the token-level engine and keep their
/// original semantics and message text; after them come the
/// determinism/concurrency family and the warn-level transport
/// robustness rule. `stale-suppression` is not a row here — it is
/// synthesized by the engine's post-pass over unused `allow(...)`
/// markers.
pub const RULESET: &[Rule] = &[
    Rule {
        name: "no-wallclock",
        severity: Severity::Deny,
        scope: Scope::Deterministic,
        targets: ALL_TARGETS,
        skip_cfg_test: false,
        exempt_files: &[],
        matcher: Matcher::Patterns(&["Instant", "SystemTime", "thread::sleep"]),
        message: msg_wallclock,
    },
    Rule {
        name: "no-ambient-clock",
        severity: Severity::Deny,
        // Clocks are *injected* in the algorithm and telemetry crates:
        // the controller receives `now` from whichever substrate drives
        // it, and `verus-trace` records carry caller-supplied
        // timestamps. `verus-oracle` is stricter still: its schedule is
        // computed entirely from the trace, so an ambient clock there
        // would make the "omniscient bound" depend on the machine that
        // computed it. Reading an ambient clock in any of these would
        // fork sim-time and wall-time traces and break replay
        // determinism. (`core` and `oracle` are also deterministic
        // crates, so a violation there additionally trips
        // `no-wallclock`; `trace` is covered by this rule alone.)
        scope: Scope::Crates(&["core", "trace", "oracle"]),
        targets: ALL_TARGETS,
        skip_cfg_test: false,
        exempt_files: &[],
        matcher: Matcher::Patterns(&["Instant::now", "SystemTime::now"]),
        message: msg_ambient_clock,
    },
    Rule {
        name: "no-unwrap-in-lib",
        severity: Severity::Deny,
        scope: Scope::Crates(&["core", "netsim"]),
        targets: LIB_ONLY,
        skip_cfg_test: true,
        exempt_files: &[],
        matcher: Matcher::Patterns(&[".unwrap()", ".expect(", "panic!"]),
        message: msg_unwrap,
    },
    Rule {
        name: "no-print-in-lib",
        severity: Severity::Deny,
        scope: Scope::NotCrates(&["bench"]),
        targets: LIB_ONLY,
        skip_cfg_test: true,
        exempt_files: &[],
        matcher: Matcher::Patterns(&["println!", "eprintln!", "print!", "eprint!"]),
        message: msg_print,
    },
    Rule {
        name: "nan-unsafe-cmp",
        severity: Severity::Deny,
        scope: Scope::Everywhere,
        targets: ALL_TARGETS,
        skip_cfg_test: false,
        exempt_files: &[],
        matcher: Matcher::NanUnsafeCmp,
        message: msg_nan,
    },
    Rule {
        name: "no-todo",
        severity: Severity::Deny,
        scope: Scope::Everywhere,
        targets: ALL_TARGETS,
        skip_cfg_test: false,
        exempt_files: &[],
        matcher: Matcher::Patterns(&["todo!", "unimplemented!"]),
        message: msg_todo,
    },
    Rule {
        // Packet and byte counters in the two packet-handling crates are
        // u64; a narrowing `as` cast silently truncates after 4 GiB /
        // 2³² packets and corrupts the conservation ledger. `usize` is
        // included because it is 32-bit on some targets.
        name: "no-truncating-cast",
        severity: Severity::Deny,
        scope: Scope::Crates(&["netsim", "transport"]),
        targets: LIB_ONLY,
        skip_cfg_test: true,
        exempt_files: &[],
        matcher: Matcher::Patterns(&["as u8", "as u16", "as u32", "as usize"]),
        message: msg_cast,
    },
    Rule {
        // Hash iteration order varies per process (SipHash keys), so a
        // HashMap/HashSet anywhere in the deterministic crates is a
        // reproducibility hazard — even in tests, where arbitrary order
        // hides flaky assertions. The one blessed alternative is the
        // BTree family (or dense index-keyed Vecs).
        name: "no-unordered-iteration",
        severity: Severity::Deny,
        scope: Scope::Deterministic,
        targets: ALL_TARGETS,
        skip_cfg_test: false,
        exempt_files: &[],
        matcher: Matcher::Patterns(&["HashMap", "HashSet"]),
        message: msg_unordered,
    },
    Rule {
        // Every atomic access must say *why* its ordering is enough, on
        // the same line: `// ordering: <reason>`. The audit keeps
        // Relaxed counters honest (and makes an upgrade to
        // Acquire/Release a reviewed decision, not a drive-by).
        name: "atomic-ordering-justified",
        severity: Severity::Deny,
        scope: Scope::Everywhere,
        targets: LIB_AND_BIN,
        skip_cfg_test: true,
        exempt_files: &[],
        matcher: Matcher::PatternsUnlessComment {
            patterns: &[
                "Ordering::Relaxed",
                "Ordering::Acquire",
                "Ordering::Release",
                "Ordering::AcqRel",
                "Ordering::SeqCst",
            ],
            comment: "ordering:",
        },
        message: msg_atomic,
    },
    Rule {
        // Concurrency stays confined to the crates whose thread
        // interactions are modeled (verus-model) and sanitized: the
        // transport endpoints, the model checker itself, and the bench
        // parallel runner. The simulator is single-threaded. New
        // thread use needs a new exemption row here, reviewed — never
        // a blanket `allow(...)` in the source file.
        name: "no-thread-outside-transport",
        severity: Severity::Deny,
        scope: Scope::NotCrates(&["transport", "model"]),
        targets: LIB_AND_BIN,
        skip_cfg_test: true,
        exempt_files: &["crates/bench/src/parallel.rs"],
        matcher: Matcher::Patterns(&["thread::spawn", "thread::scope", "thread::Builder"]),
        message: msg_thread,
    },
    Rule {
        name: "no-shared-mut-static",
        severity: Severity::Deny,
        scope: Scope::Everywhere,
        targets: ALL_TARGETS,
        skip_cfg_test: false,
        exempt_files: &[],
        matcher: Matcher::Patterns(&["static mut"]),
        message: msg_static_mut,
    },
    Rule {
        // The transport crate is where panics are most expensive: an
        // `unwrap()` on a socket path takes down the supervision thread
        // that exists precisely to survive bad network states. Warn
        // rather than deny — transport code legitimately asserts
        // programming contracts (`panic!` stays allowed) — but the
        // tier-1 workspace test requires zero warns in-tree, so every
        // hit must be fixed or explicitly suppressed with a reason.
        name: "no-unwrap-in-transport",
        severity: Severity::Warn,
        scope: Scope::Crates(&["transport"]),
        targets: LIB_AND_BIN,
        skip_cfg_test: true,
        exempt_files: &[],
        matcher: Matcher::Patterns(&[".unwrap()", ".expect("]),
        message: msg_unwrap_transport,
    },
];

/// The synthesized warn-level rule name for dead `allow(...)` markers.
pub const STALE_SUPPRESSION: &str = "stale-suppression";
