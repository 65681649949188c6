//! # verus-trace — protocol introspection & telemetry
//!
//! A dependency-free subsystem for recording what the Verus controller
//! actually did: per-epoch state ([`EpochRecord`]), packet lifecycle
//! events ([`PacketRecord`]) and delay-profile refits
//! ([`ProfileSnapshot`]), captured through a [`TraceHandle`] the
//! harness installs and exported as JSONL/CSV for paper-style timeline
//! reconstruction (`trace_report` in `verus-bench`). Its [`json`]
//! module is the workspace's one JSON reader and writer.
//!
//! Design rules (see `DESIGN.md` §11):
//!
//! * **No I/O in instrumented code.** `verus-core` only ever calls
//!   [`TraceHandle`] methods; serialization happens after the run.
//! * **No allocation on the hot path.** The [`Recorder`] preallocates
//!   bounded buffers and counts drops instead of growing.
//! * **One schema, two substrates.** Timestamps are plain `u64`
//!   nanoseconds; the simulator stamps simulated time, the UDP
//!   transport stamps wall-clock time. Everything else is identical
//!   field-for-field (`tests/trace_parity.rs` enforces this).
//! * **No ambient clocks.** This crate never reads `Instant::now()` /
//!   `SystemTime::now()`; time arrives in the records (enforced by
//!   `verus-check`'s `no-ambient-clock` rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod lane;
pub mod recorder;
pub mod schema;
pub mod sink;

pub use export::{epochs_csv, packets_csv, parse_jsonl, profiles_csv, to_jsonl, TraceFile, SCHEMA};
pub use recorder::{DropCounts, Recorder, SharedRecorder};
pub use schema::{
    DeltaDecision, EpochRecord, PacketKind, PacketRecord, ProfileSnapshot, SessionEventKind,
    SessionRecord, SessionState, TracePhase,
};
pub use sink::{NullSink, TraceHandle, TraceSink};
