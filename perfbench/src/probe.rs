//! Layer timing from outside the program: a forwarding decorator around
//! each flow's congestion controller.
//!
//! [`Probe`] wraps a `Box<dyn CongestionControl>` and counts and times
//! the five callbacks that do protocol work (`quota`, `on_packet_sent`,
//! `on_ack`, `on_loss`, `on_tick`). Every other trait method forwards
//! unchanged, so the wrapped flow behaves exactly like the bare one; the
//! benchmark checks that by comparing report digests. The counters are
//! plain fields on the hot path and are folded into a shared [`Sink`]
//! when the controller is dropped, i.e. when the simulation or the shard
//! that owns the flow finishes.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use verus_nettypes::{AckEvent, CongestionControl, LossEvent, SimDuration, SimTime, TraceHandle};

/// Calls made and wall nanoseconds spent inside one callback.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    fn add(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Time inside the callback itself: the measured time less what the
    /// clock reads add to each call (see [`clock_cost_ns`]).
    pub fn self_ns(&self, clock_cost_ns: f64) -> f64 {
        (self.ns as f64 - self.calls as f64 * clock_cost_ns).max(0.0)
    }
}

/// Nanoseconds a timed call adds to its own span when the callback does
/// nothing: the share of the two clock reads that falls inside the span.
pub fn clock_cost_ns() -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let mut span = Span::default();
            for _ in 0..100_000 {
                timed(&mut span, || std::hint::black_box(()));
            }
            span.ns as f64 / span.calls as f64
        })
        .collect();
    crate::host::median(&samples)
}

/// Spans of every timed callback of a group of controllers.
#[derive(Debug, Default, Clone, Copy)]
pub struct CcSpans {
    pub quota: Span,
    pub sent: Span,
    pub ack: Span,
    pub loss: Span,
    pub tick: Span,
}

impl CcSpans {
    fn add(&mut self, o: &CcSpans) {
        self.quota.add(o.quota);
        self.sent.add(o.sent);
        self.ack.add(o.ack);
        self.loss.add(o.loss);
        self.tick.add(o.tick);
    }

    /// Self time of all callbacks together, in seconds.
    pub fn self_s(&self, clock_cost_ns: f64) -> f64 {
        [self.quota, self.sent, self.ack, self.loss, self.tick]
            .iter()
            .map(|s| s.self_ns(clock_cost_ns))
            .sum::<f64>()
            * 1e-9
    }
}

/// Controller time split by crate: Verus (`verus-core`) is the `core`
/// layer, every other protocol belongs to `verus-baselines`.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerSpans {
    pub core: CcSpans,
    pub baselines: CcSpans,
}

/// Where dropped probes deposit their counts.
pub type Sink = Arc<Mutex<LayerSpans>>;

pub fn new_sink() -> Sink {
    Arc::new(Mutex::new(LayerSpans::default()))
}

/// Takes the totals out of `sink`, leaving it empty for the next run.
pub fn drain(sink: &Sink) -> LayerSpans {
    std::mem::take(&mut *sink.lock().expect("probe sink poisoned"))
}

pub struct Probe {
    inner: Box<dyn CongestionControl>,
    spans: CcSpans,
    core: bool,
    sink: Sink,
}

impl Probe {
    pub fn wrap(inner: Box<dyn CongestionControl>, sink: &Sink) -> Box<dyn CongestionControl> {
        let core = inner.name() == "verus";
        Box::new(Self {
            inner,
            spans: CcSpans::default(),
            core,
            sink: Arc::clone(sink),
        })
    }
}

fn timed<R>(span: &mut Span, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    span.ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    span.calls += 1;
    out
}

impl Drop for Probe {
    fn drop(&mut self) {
        // A poisoned sink means another flow's thread panicked; that
        // failure is reported there, so this flow's counts are dropped.
        if let Ok(mut totals) = self.sink.lock() {
            let layer = if self.core {
                &mut totals.core
            } else {
                &mut totals.baselines
            };
            layer.add(&self.spans);
        }
    }
}

impl CongestionControl for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn quota(&mut self, now: SimTime, in_flight: usize) -> usize {
        timed(&mut self.spans.quota, || self.inner.quota(now, in_flight))
    }

    fn on_packet_sent(&mut self, now: SimTime, seq: u64, bytes: u64) {
        timed(&mut self.spans.sent, || {
            self.inner.on_packet_sent(now, seq, bytes)
        });
    }

    fn on_ack(&mut self, now: SimTime, ev: &AckEvent) {
        timed(&mut self.spans.ack, || self.inner.on_ack(now, ev));
    }

    fn on_loss(&mut self, now: SimTime, ev: &LossEvent) {
        timed(&mut self.spans.loss, || self.inner.on_loss(now, ev));
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, now: SimTime) {
        timed(&mut self.spans.tick, || self.inner.on_tick(now));
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.inner.attach_trace(trace);
    }

    fn on_session_resumed(&mut self, now: SimTime) {
        self.inner.on_session_resumed(now);
    }

    fn window(&self) -> f64 {
        self.inner.window()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}
