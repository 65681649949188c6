//! Bottleneck queues: DropTail and RED.
//!
//! §6.2: "the traffic shaper … implements a shared queue with Random
//! Early Detection (RED) queue management using the following parameters:
//! minimum queue size 3 MBit, maximum queue size 9 MBit, and drop
//! probability 10%." Those values are [`QueueConfig::paper_red`]'s defaults.
//! DropTail with a large capacity models the over-dimensioned
//! base-station buffers behind the paper's bufferbloat observations.

use verus_nettypes::SimTime;

/// A queued packet: identity is kept by the simulator, the queue only
/// needs size and the flow/seq handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedPacket {
    /// Flow index.
    pub flow: usize,
    /// Sequence number within the flow.
    pub seq: u64,
    /// On-wire size in bytes.
    pub bytes: u32,
    /// When the packet entered the queue.
    pub enqueued: SimTime,
    /// ABC accelerate/brake stamp, applied by the cell service at
    /// dequeue time when the simulation opts into ABC marking
    /// (`None` everywhere else — every pre-ABC path).
    pub abc_mark: Option<bool>,
}

/// Outcome of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Packet accepted.
    Queued,
    /// Packet dropped by the queue discipline.
    Dropped,
}

/// Queue-discipline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueConfig {
    /// FIFO with a byte capacity.
    DropTail {
        /// Capacity in bytes.
        capacity_bytes: u64,
    },
    /// Random Early Detection.
    Red {
        /// Average-queue threshold below which nothing drops, bytes.
        min_bytes: u64,
        /// Average-queue threshold above which everything drops, bytes.
        max_bytes: u64,
        /// Drop probability at `max_bytes`.
        p_max: f64,
        /// EWMA weight on history for the average queue size.
        weight: f64,
    },
}

impl QueueConfig {
    /// The paper's RED configuration: 3 Mbit min, 9 Mbit max, 10% drop.
    #[must_use]
    pub fn paper_red() -> Self {
        Self::Red {
            min_bytes: 3_000_000 / 8,
            max_bytes: 9_000_000 / 8,
            p_max: 0.1,
            weight: 0.998,
        }
    }

    /// A deep DropTail buffer (bufferbloat-style base-station queue).
    #[must_use]
    pub fn deep_droptail() -> Self {
        Self::DropTail {
            capacity_bytes: 9_000_000 / 8,
        }
    }
}

/// The bottleneck queue: FIFO storage plus a drop policy.
#[derive(Debug, Clone)]
pub struct Queue {
    config: QueueConfig,
    packets: std::collections::VecDeque<QueuedPacket>,
    bytes: u64,
    /// RED average queue size (bytes).
    avg_bytes: f64,
    /// Deterministic drop decisions: RED uses a supplied uniform sample.
    drops: u64,
}

impl Queue {
    /// Creates an empty queue with the given discipline.
    #[must_use]
    pub fn new(config: QueueConfig) -> Self {
        if let QueueConfig::Red {
            min_bytes,
            max_bytes,
            p_max,
            weight,
        } = config
        {
            assert!(min_bytes < max_bytes, "RED thresholds inverted");
            assert!((0.0..=1.0).contains(&p_max), "RED p_max out of range");
            assert!((0.0..1.0).contains(&weight), "RED weight out of range");
        }
        Self {
            config,
            packets: std::collections::VecDeque::new(),
            bytes: 0,
            avg_bytes: 0.0,
            drops: 0,
        }
    }

    /// Attempts to enqueue; `uniform` is a `[0,1)` random sample used by
    /// RED's probabilistic drop (passed in so the simulator controls the
    /// RNG and stays deterministic).
    pub fn enqueue(&mut self, pkt: QueuedPacket, uniform: f64) -> EnqueueResult {
        let accept = match self.config {
            QueueConfig::DropTail { capacity_bytes } => {
                self.bytes + u64::from(pkt.bytes) <= capacity_bytes
            }
            QueueConfig::Red {
                min_bytes,
                max_bytes,
                p_max,
                weight,
            } => {
                self.avg_bytes =
                    weight * self.avg_bytes + (1.0 - weight) * self.bytes as f64;
                if self.avg_bytes < min_bytes as f64 {
                    true
                } else if self.avg_bytes >= max_bytes as f64 {
                    false
                } else {
                    let frac = (self.avg_bytes - min_bytes as f64)
                        / (max_bytes - min_bytes) as f64;
                    uniform >= frac * p_max
                }
            }
        };
        if accept {
            self.bytes += u64::from(pkt.bytes);
            self.packets.push_back(pkt);
            EnqueueResult::Queued
        } else {
            self.drops += 1;
            EnqueueResult::Dropped
        }
    }

    /// Removes and returns the head packet.
    pub fn dequeue(&mut self) -> Option<QueuedPacket> {
        let pkt = self.packets.pop_front()?;
        self.bytes -= u64::from(pkt.bytes);
        Some(pkt)
    }

    /// Size of the head packet without removing it.
    #[must_use]
    pub fn peek_bytes(&self) -> Option<u32> {
        self.packets.front().map(|p| p.bytes)
    }

    /// Enqueue timestamp of the head packet without removing it — the
    /// head-of-line queueing delay is ABC's `x(t)` input.
    #[must_use]
    pub fn peek_enqueued(&self) -> Option<SimTime> {
        self.packets.front().map(|p| p.enqueued)
    }

    /// Current backlog in bytes.
    #[must_use]
    pub fn backlog_bytes(&self) -> u64 {
        self.bytes
    }

    /// Current backlog in packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Packets dropped by the discipline so far.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(bytes: u32) -> QueuedPacket {
        QueuedPacket {
            flow: 0,
            seq: 0,
            bytes,
            enqueued: SimTime::ZERO,
            abc_mark: None,
        }
    }

    #[test]
    fn droptail_accepts_until_capacity() {
        let mut q = Queue::new(QueueConfig::DropTail {
            capacity_bytes: 3000,
        });
        assert_eq!(q.enqueue(pkt(1400), 0.5), EnqueueResult::Queued);
        assert_eq!(q.enqueue(pkt(1400), 0.5), EnqueueResult::Queued);
        assert_eq!(q.enqueue(pkt(1400), 0.5), EnqueueResult::Dropped);
        assert_eq!(q.backlog_bytes(), 2800);
        assert_eq!(q.drops(), 1);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = Queue::new(QueueConfig::DropTail {
            capacity_bytes: 1 << 20,
        });
        for seq in 0..5u64 {
            q.enqueue(
                QueuedPacket {
                    seq,
                    ..pkt(100)
                },
                0.5,
            );
        }
        for seq in 0..5u64 {
            assert_eq!(q.dequeue().unwrap().seq, seq);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn red_never_drops_below_min() {
        let mut q = Queue::new(QueueConfig::Red {
            min_bytes: 10_000,
            max_bytes: 20_000,
            p_max: 1.0,
            weight: 0.0, // avg = instantaneous, easiest to reason about
        });
        for _ in 0..7 {
            assert_eq!(q.enqueue(pkt(1400), 0.0), EnqueueResult::Queued);
        }
        assert!(q.backlog_bytes() < 10_000);
    }

    #[test]
    fn red_drops_everything_above_max() {
        let mut q = Queue::new(QueueConfig::Red {
            min_bytes: 1_000,
            max_bytes: 5_000,
            p_max: 0.1,
            weight: 0.0,
        });
        // Fill past max.
        while q.backlog_bytes() < 5_000 {
            q.enqueue(pkt(1400), 0.999); // uniform ≈ 1 → never prob-drop
        }
        // avg (== instantaneous) ≥ max → unconditional drop.
        assert_eq!(q.enqueue(pkt(1400), 0.999), EnqueueResult::Dropped);
    }

    #[test]
    fn red_probabilistic_region_uses_uniform() {
        let cfg = QueueConfig::Red {
            min_bytes: 1_000,
            max_bytes: 11_000,
            p_max: 0.5,
            weight: 0.0,
        };
        let mut q = Queue::new(cfg);
        // backlog 6000 → frac = 0.5 → drop prob 0.25
        for _ in 0..5 {
            q.enqueue(pkt(1200), 0.999);
        }
        assert_eq!(q.backlog_bytes(), 6000);
        // uniform below the threshold drops…
        assert_eq!(q.enqueue(pkt(1200), 0.2), EnqueueResult::Dropped);
        // …and above it accepts.
        assert_eq!(q.enqueue(pkt(1200), 0.3), EnqueueResult::Queued);
    }

    #[test]
    fn paper_red_parameters() {
        let QueueConfig::Red {
            min_bytes,
            max_bytes,
            p_max,
            ..
        } = QueueConfig::paper_red()
        else {
            panic!("paper config must be RED");
        };
        assert_eq!(min_bytes, 375_000); // 3 Mbit
        assert_eq!(max_bytes, 1_125_000); // 9 Mbit
        assert_eq!(p_max, 0.1);
    }

    #[test]
    fn backlog_accounting_is_exact() {
        let mut q = Queue::new(QueueConfig::DropTail {
            capacity_bytes: 1 << 20,
        });
        q.enqueue(pkt(100), 0.5);
        q.enqueue(pkt(200), 0.5);
        assert_eq!(q.backlog_bytes(), 300);
        assert_eq!(q.len(), 2);
        q.dequeue();
        assert_eq!(q.backlog_bytes(), 200);
    }
}
