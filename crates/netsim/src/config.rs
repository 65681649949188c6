//! Simulation configuration.

use crate::bottleneck::BottleneckConfig;
use crate::impairment::ImpairmentConfig;
use crate::queue::QueueConfig;
use verus_nettypes::{CongestionControl, SimDuration, SimTime};

/// How the transport declares a packet lost (besides the RTO).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossDetection {
    /// TCP-style: a packet is lost once `threshold` later packets have
    /// been acknowledged (the event-based equivalent of three duplicate
    /// ACKs / RACK's packet threshold).
    PacketThreshold {
        /// Number of later ACKs that condemn a hole (3 for TCP).
        threshold: u32,
    },
    /// Verus-style (§5.2): "for every missing sequence number Verus
    /// creates a timeout timer of 3×delay" — a hole is condemned
    /// `factor × current smoothed RTT` after it is first noticed.
    GapTimer {
        /// Multiple of the current delay ("3" in the prototype).
        factor: f64,
    },
}

impl LossDetection {
    /// TCP's three-duplicate-ACK equivalent.
    #[must_use]
    pub fn tcp() -> Self {
        Self::PacketThreshold { threshold: 3 }
    }

    /// Verus' 3×delay reordering timer.
    #[must_use]
    pub fn verus() -> Self {
        Self::GapTimer { factor: 3.0 }
    }
}

/// One flow in the simulation.
pub struct FlowConfig {
    /// The congestion controller driving this flow.
    pub cc: Box<dyn CongestionControl>,
    /// When the flow starts sending (Figures 12/14 stagger starts).
    pub start: SimTime,
    /// Extra one-way delay on this flow's forward path, added on top of
    /// the bottleneck's base RTT share (per-flow RTT diversity,
    /// Figure 13).
    pub extra_fwd_delay: SimDuration,
    /// Extra one-way delay on this flow's ACK path.
    pub extra_ack_delay: SimDuration,
    /// Payload bytes per packet (the paper uses a 1400-byte MTU).
    pub packet_bytes: u32,
    /// Loss-detection mechanism.
    pub loss_detection: LossDetection,
    /// Total payload bytes to transfer; `None` = full-buffer (the
    /// default everywhere in the paper except §7's short-flows
    /// discussion). The flow stops sending new packets once this many
    /// bytes have been handed to the network, and its report records the
    /// delivery time of the last byte as the flow-completion time.
    pub transfer_bytes: Option<u64>,
    /// Overload guard: when the outstanding table already holds this many
    /// packets, further quota is shed explicitly into the report's
    /// `shed_dropped` ledger column instead of being launched (the
    /// packets still consume sequence numbers and controller credit, so
    /// pacing is unaffected). `None` (the default) never sheds —
    /// existing configurations keep their behaviour exactly.
    pub shed_outstanding_cap: Option<usize>,
}

impl FlowConfig {
    /// A flow with the given controller and defaults matching the paper:
    /// starts at t = 0, no extra delay, 1400-byte packets, loss detection
    /// appropriate to the controller — the §5.2 3×delay gap timer for
    /// Verus, and a RACK-style 2×sRTT gap timer for everything else.
    /// (Pure duplicate-ACK counting is also available via
    /// [`LossDetection::tcp`], but at the few-packet windows cellular
    /// contention forces, three later ACKs often never arrive and every
    /// drop would escalate to a full RTO — kernels grew time-based RACK
    /// detection for exactly this reason.)
    #[must_use]
    pub fn new(cc: Box<dyn CongestionControl>) -> Self {
        let loss_detection = if cc.name() == "verus" {
            LossDetection::verus()
        } else {
            LossDetection::GapTimer { factor: 2.0 }
        };
        Self {
            cc,
            start: SimTime::ZERO,
            extra_fwd_delay: SimDuration::ZERO,
            extra_ack_delay: SimDuration::ZERO,
            packet_bytes: 1400,
            loss_detection,
            transfer_bytes: None,
            shed_outstanding_cap: None,
        }
    }

    /// Limits the flow to a finite transfer of `bytes` (short flows, §7).
    #[must_use]
    pub fn with_transfer(mut self, bytes: u64) -> Self {
        self.transfer_bytes = Some(bytes);
        self
    }

    /// Arms the overload guard: sheds quota into `shed_dropped` whenever
    /// `cap` packets are already outstanding (see
    /// [`Self::shed_outstanding_cap`]).
    #[must_use]
    pub fn with_shed_cap(mut self, cap: usize) -> Self {
        self.shed_outstanding_cap = Some(cap);
        self
    }

    /// Sets the start time.
    #[must_use]
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Adds symmetric extra delay so the flow's base RTT grows by `rtt`.
    #[must_use]
    pub fn with_extra_rtt(mut self, rtt: SimDuration) -> Self {
        self.extra_fwd_delay = rtt / 2;
        self.extra_ack_delay = rtt - rtt / 2;
        self
    }

    /// Attaches a `verus-trace` handle to this flow's controller.
    /// Records carry *simulated* time; controllers that don't support
    /// tracing ignore the handle (the trait default).
    #[must_use]
    pub fn with_trace(mut self, trace: verus_nettypes::TraceHandle) -> Self {
        self.cc.attach_trace(trace);
        self
    }
}

/// The whole simulation.
pub struct SimConfig {
    /// Bottleneck service model.
    pub bottleneck: BottleneckConfig,
    /// Queue discipline in front of the bottleneck.
    pub queue: QueueConfig,
    /// The flows.
    pub flows: Vec<FlowConfig>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// RNG seed (stochastic losses, RED decisions).
    pub seed: u64,
    /// Window length for throughput series (1 s in the paper's plots).
    pub throughput_window: SimDuration,
    /// Fault-injection pipeline between the flows and the bottleneck
    /// (loss bursts, reordering, duplication, corruption, blackouts).
    /// `Default` injects nothing.
    pub impairments: ImpairmentConfig,
    /// ABC router marking at the cell bottleneck: `Some` stamps every
    /// departing packet accelerate/brake (echoed to the controller via
    /// `AckEvent::abc_mark`); `None` — the default everywhere else —
    /// allocates no marker state and leaves every mark `None`, so all
    /// pre-ABC runs are byte-identical to builds without this field.
    /// Only meaningful with a [`BottleneckConfig::Cell`] bottleneck.
    pub abc: Option<crate::abc::AbcConfig>,
}

impl SimConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.bottleneck.validate()?;
        self.impairments.validate()?;
        if let Some(abc) = &self.abc {
            abc.validate()?;
            if !matches!(self.bottleneck, BottleneckConfig::Cell { .. }) {
                return Err("abc marking requires a cell bottleneck".into());
            }
        }
        if self.flows.is_empty() {
            return Err("simulation needs at least one flow".into());
        }
        if self.duration == SimDuration::ZERO {
            return Err("duration must be positive".into());
        }
        for (i, f) in self.flows.iter().enumerate() {
            if f.packet_bytes == 0 {
                return Err(format!("flow {i} has zero packet size"));
            }
            if let LossDetection::GapTimer { factor } = f.loss_detection {
                if factor < 1.0 {
                    return Err(format!("flow {i}: gap-timer factor must be ≥ 1"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verus_nettypes::FixedWindow;

    #[test]
    fn flow_defaults_follow_controller() {
        // Non-Verus controllers get the RACK-style 2×sRTT gap timer.
        let f = FlowConfig::new(Box::new(FixedWindow::new(4)));
        assert!(matches!(
            f.loss_detection,
            LossDetection::GapTimer { factor } if (factor - 2.0).abs() < 1e-12
        ));
        assert_eq!(f.packet_bytes, 1400);
        assert_eq!(f.start, SimTime::ZERO);
    }

    #[test]
    fn with_extra_rtt_splits_evenly() {
        let f = FlowConfig::new(Box::new(FixedWindow::new(4)))
            .with_extra_rtt(SimDuration::from_millis(50));
        assert_eq!(
            f.extra_fwd_delay + f.extra_ack_delay,
            SimDuration::from_millis(50)
        );
    }

    #[test]
    fn validation_catches_empty_flows() {
        let cfg = SimConfig {
            bottleneck: BottleneckConfig::fixed(1e6, SimDuration::from_millis(20), 0.0),
            queue: QueueConfig::deep_droptail(),
            flows: vec![],
            duration: SimDuration::from_secs(1),
            seed: 0,
            throughput_window: SimDuration::from_secs(1),
            impairments: ImpairmentConfig::default(),
            abc: None,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_impairments() {
        let cfg = SimConfig {
            bottleneck: BottleneckConfig::fixed(1e6, SimDuration::from_millis(20), 0.0),
            queue: QueueConfig::deep_droptail(),
            flows: vec![FlowConfig::new(Box::new(FixedWindow::new(4)))],
            duration: SimDuration::from_secs(1),
            seed: 0,
            throughput_window: SimDuration::from_secs(1),
            impairments: ImpairmentConfig {
                corrupt_prob: 2.0,
                ..ImpairmentConfig::default()
            },
            abc: None,
        };
        assert!(cfg.validate().is_err());
    }
}
