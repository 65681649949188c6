//! Discrete-event network simulator for the Verus evaluation — the
//! OPNET substitute.
//!
//! The paper's trace-driven evaluation (§6.2) replays cellular channel
//! traces through OPNET's traffic shaper with a shared RED queue, and the
//! micro-evaluation (§7) uses a dumbbell of hosts behind a `tc`-controlled
//! bottleneck. This crate reproduces both setups with one event-driven
//! simulator:
//!
//! * **flows** — each flow is a full-buffer sender running any
//!   [`CongestionControl`](verus_nettypes::CongestionControl)
//!   implementation (Verus, Sprout, or the TCP baselines) on a shared
//!   transport: per-packet sequencing, per-ACK RTT/one-way-delay samples,
//!   duplicate-ACK or gap-timer loss detection, and RFC 6298 RTOs;
//! * **bottleneck** — either a [`FixedLink`](bottleneck) (configurable
//!   rate / loss / extra RTT, step-changeable mid-run for Figure 11) or a
//!   trace-driven [`CellLink`](bottleneck) that releases queued bytes at
//!   each delivery opportunity of a [`verus_cellular::Trace`], behind a
//!   DropTail or RED queue ([`queue`], with the paper's RED parameters as
//!   defaults);
//! * **metrics** — per-flow throughput series (1-second windows, matching
//!   Figures 11–14), per-packet one-way delays, and loss counters
//!   ([`metrics`]).
//!
//! Determinism: given the same configuration and seed, a simulation
//! produces bit-identical reports. The event queue breaks timestamp ties
//! by a canonical key (observer callback, then flow events in
//! `(flow, per-flow counter)` order, then channel events) rather than a
//! global insertion counter. The default timing-wheel scheduler and the
//! [`Reference`](sim::SchedulerKind::Reference) heap it is checked
//! against dispatch in exactly that order, so their reports and traces
//! are byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abc;
pub mod bottleneck;
pub mod chaos;
pub mod config;
pub mod impairment;
pub mod invariants;
pub mod metrics;
pub mod outstanding;
pub mod queue;
pub mod sim;
pub mod wheel;

pub use abc::AbcConfig;
pub use bottleneck::{BottleneckConfig, FixedParams};
pub use chaos::{ChaosSchedule, ChaosScript};
pub use config::{FlowConfig, LossDetection, SimConfig};
pub use impairment::{Blackout, ImpairmentConfig, Impairments, LossModel};
pub use metrics::FlowReport;
// The scheduling substrate, re-exported at the crate root as shared
// infrastructure: the transport crate's thread-per-core shard server
// runs its RTO/epoch timers and in-flight tables on the *identical*,
// property-tested structures the simulator uses (rather than a copy
// that would drift).
pub use outstanding::OutstandingTable;
pub use sim::{SchedulerKind, Simulation};
pub use wheel::TimingWheel;
