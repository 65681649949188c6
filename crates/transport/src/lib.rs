//! Real-socket deployment of the Verus reproduction.
//!
//! The paper's prototype (§5) is a multi-threaded C++ sender/receiver
//! pair over UDP, evaluated live on 3G/LTE networks and on a
//! `tc`-controlled dumbbell. Commercial cellular networks are not
//! available to this reproduction, so the live setup is replaced by:
//!
//! * `flow` — the per-flow sender machine (`FlowEngine`), sans I/O: one
//!   [`CongestionControl`](verus_nettypes::CongestionControl) (Verus
//!   with its 5 ms epochs, or a baseline) with the same loss detection
//!   as the simulator — the §5.2 3×delay reordering timer and an
//!   RFC 6298 RTO — plus the session machine and the shed cap. Every
//!   method takes `now`; its one driver, [`shard_server`], owns the
//!   sockets and the clock;
//! * [`shard_server`] — the one sender driver, for one flow (the
//!   paper's prototype sender: `verus-send`, the loopback and chaos
//!   tests) or thousands (the load tests); see below;
//! * [`receiver`] — the UDP sink: timestamps every data packet and
//!   returns an ACK echoing the packet's send time and sending window
//!   (one thread, like the prototype's receiver app);
//! * [`emulator`] — the mahimahi substitute: a UDP forwarder that
//!   releases queued data packets at the delivery opportunities of a
//!   cellular [`Trace`](verus_cellular::Trace) (looped), applies
//!   stochastic loss and a DropTail buffer, and delays ACKs by a fixed
//!   return path. Pointing the sender at the emulator and the emulator
//!   at the receiver on loopback reproduces the paper's trace-driven
//!   testbed with real packets and real clocks.
//!
//! Everything runs on plain `std::net::UdpSocket` + threads — the same
//! architecture as the paper's librt-based prototype; an async runtime
//! would add machinery without adding fidelity.
//!
//! The resilience layer (DESIGN.md §12) is the session machine the
//! engine carries:
//!
//! * [`session`] — the pure state machine (`Connecting → Established →
//!   Degraded → Reconnecting → Draining → Closed`) with capped,
//!   deterministically jittered reconnect backoff; the shard probes on
//!   its backoff schedule while disconnected, the engine warm-restarts
//!   the controller on resumption, and the shed cap sheds overload into
//!   the `shed_dropped` ledger column.
//!
//! The sender plane (DESIGN.md §15) is thread-per-core:
//!
//! * [`io_batch`] — `sendmmsg`/`recvmmsg` syscall batching with UDP
//!   segmentation offload (GSO/GRO) behind the [`IoBatcher`] trait,
//!   with a portable per-packet fallback;
//! * [`timer_plane`] — per-shard RTO/epoch timers on the netsim
//!   hierarchical timing wheel (no per-flow sleep loops);
//! * [`shard_server`] — the server itself: each shard exclusively owns
//!   `flow % shards == shard` flows, drives one flow engine per flow
//!   through one batched socket, publishes lock-free cache-padded stats
//!   snapshots, and returns a [`FlowReport`] per flow.

// `deny` rather than `forbid`: the one `#[allow(unsafe_code)]` in the
// tree is io_batch's cfg-gated mmsg FFI module (see its safety notes).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod emulator;
mod flow;
pub mod io_batch;
pub mod receiver;
pub mod session;
pub mod shard_server;
pub mod stats;
pub mod timer_plane;

pub use clock::WallClock;
pub use emulator::{Emulator, EmulatorConfig, EmulatorHandle};
pub use io_batch::{batcher_for, IoBatcher, IoCounters, IoMode, OutPacket, Received};
pub use receiver::{Receiver, ReceiverHandle};
pub use session::{BackoffSchedule, Session, SessionConfig, Transition};
pub use shard_server::{
    FlowReport, FlowSpec, LoadReport, ShardServer, ShardServerConfig, ShardSnapshot,
};
pub use timer_plane::{TimerKind, TimerPlane};
// The state enum lives in `verus-trace` (session records embed it);
// re-exported here because `Transition` is spelled in terms of it.
pub use verus_trace::SessionState;
pub use stats::TransferStats;
