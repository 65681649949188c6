//! Sprout (Winstein, Sivaraman & Balakrishnan, NSDI 2013) — the
//! state-of-the-art cellular transport the paper compares Verus against.
//!
//! Sprout models the cellular link as a doubly-stochastic process: packet
//! deliveries are Poisson with a rate λ that itself drifts by Brownian
//! motion. The receiver maintains a Bayesian belief over λ, updated every
//! 20 ms tick from the observed delivery count, and forecasts the number
//! of packets the link will deliver over the next 100 ms **cautiously**
//! (at the 5th percentile). The sender's window is that cautious forecast:
//! whatever is sent will, with 95% confidence, drain from the queue within
//! 100 ms — which is how Sprout keeps self-inflicted delay low.
//!
//! This implementation is the **"sendonly"** variant the paper uses
//! (§6.1, footnote 3): the sender itself observes the ACK stream as the
//! delivery process, so no receiver modifications are needed. Details:
//!
//! * belief over λ discretized into [`SproutConfig::bins`] rate bins;
//! * per tick: Poisson likelihood update with the tick's ACK count, then
//!   a Gaussian diffusion step (the Brownian drift);
//! * forecast: diffuse a copy of the belief tick-by-tick, accumulate the
//!   5th-percentile rate × tick over the 100 ms horizon;
//! * **censored observations**: a tick in which the sender received all
//!   the ACKs its own window could possibly have produced says only that
//!   the link rate is *at least* the observed count, not equal to it
//!   (the flow, not the link, was the constraint). Such ticks use the
//!   Poisson survival likelihood `P(X ≥ k)` instead of `P(X = k)` so a
//!   self-limited Sprout can still learn that the link is faster and ramp
//!   up — without this, the belief collapses onto the flow's own rate and
//!   the window death-spirals on any link faster than the current window;
//! * **the 18 Mbit/s implementation cap**: the released Sprout binary
//!   cannot exceed ≈18 Mbit/s, which Figure 11a's result depends on
//!   ("the Sprout implementation bandwidth is capped at 18 Mbps"). The
//!   cap falls out of the belief's finite rate range, exactly like the
//!   original's fixed-size forecast table.

use verus_nettypes::{AckEvent, CongestionControl, LossEvent, LossKind, SimDuration, SimTime};

/// Tunables of the Sprout model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SproutConfig {
    /// Tick length (20 ms in the original).
    pub tick: SimDuration,
    /// Forecast horizon as a number of ticks (5 × 20 ms = 100 ms).
    pub horizon_ticks: u32,
    /// Cautious percentile (0.05 in the original).
    pub percentile: f64,
    /// Brownian drift of λ, packets/s per √s.
    pub sigma_pps: f64,
    /// Number of discrete rate bins.
    pub bins: usize,
    /// Maximum representable rate, packets/s — the implementation cap.
    /// 18 Mbit/s of 1400-byte packets ≈ 1607 packets/s.
    pub max_pps: f64,
    /// Floor on the window so the flow never stalls completely.
    pub min_window: f64,
}

impl Default for SproutConfig {
    fn default() -> Self {
        Self {
            tick: SimDuration::from_millis(20),
            horizon_ticks: 5,
            percentile: 0.05,
            sigma_pps: 800.0,
            bins: 64,
            max_pps: 18e6 / 8.0 / 1400.0,
            min_window: 2.0,
        }
    }
}

/// Sprout congestion control (sendonly variant).
#[derive(Debug, Clone)]
pub struct Sprout {
    config: SproutConfig,
    /// Belief over the delivery rate, one probability per bin.
    belief: Vec<f64>,
    /// ACKs observed since the last tick.
    acks_this_tick: u32,
    /// Smoothed RTT (seconds) from ACK samples, used to judge whether a
    /// tick's ACK count was limited by the window rather than the link.
    srtt_s: Option<f64>,
    /// Minimum RTT seen (propagation proxy; queueing-free baseline).
    min_rtt_s: Option<f64>,
    /// Send times of in-flight packets (FIFO-approximate: ACKs and
    /// losses pop the oldest), for detecting overdue packets.
    send_times: std::collections::VecDeque<SimTime>,
    /// Packets sent since the last tick (per-tick pacing).
    sent_this_tick: u32,
    /// Current cautious window, packets.
    cwnd: f64,
    /// Precomputed per-tick diffusion kernel (odd length, centred).
    kernel: Vec<f64>,
}

impl Default for Sprout {
    fn default() -> Self {
        Self::new(SproutConfig::default())
    }
}

impl Sprout {
    /// Creates a Sprout controller with the given configuration.
    ///
    /// # Panics
    /// Panics on degenerate configurations (no bins, non-positive tick…).
    #[must_use]
    pub fn new(config: SproutConfig) -> Self {
        assert!(config.bins >= 8, "Sprout needs a usable belief resolution");
        assert!(config.tick > SimDuration::ZERO);
        assert!(config.horizon_ticks >= 1);
        assert!((0.0..1.0).contains(&config.percentile) && config.percentile > 0.0);
        assert!(config.max_pps > 0.0);
        let belief = vec![1.0 / config.bins as f64; config.bins];
        let kernel = Self::gaussian_kernel(&config);
        Self {
            config,
            belief,
            acks_this_tick: 0,
            srtt_s: None,
            min_rtt_s: None,
            send_times: std::collections::VecDeque::new(),
            sent_this_tick: 0,
            cwnd: config.min_window,
            kernel,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SproutConfig {
        &self.config
    }

    fn bin_width_pps(&self) -> f64 {
        self.config.max_pps / self.config.bins as f64
    }

    /// Rate (packets/s) at the centre of bin `i`.
    fn bin_rate(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * self.bin_width_pps()
    }

    fn gaussian_kernel(config: &SproutConfig) -> Vec<f64> {
        let bin_width = config.max_pps / config.bins as f64;
        let sigma_bins =
            (config.sigma_pps * config.tick.as_secs_f64().sqrt() / bin_width).max(1e-3);
        let radius = (3.0 * sigma_bins).ceil() as i64;
        let mut k: Vec<f64> = (-radius..=radius)
            .map(|d| (-(d as f64) * (d as f64) / (2.0 * sigma_bins * sigma_bins)).exp())
            .collect();
        let sum: f64 = k.iter().sum();
        for v in &mut k {
            *v /= sum;
        }
        k
    }

    /// One diffusion step (Brownian drift of λ), reflecting at the edges
    /// so probability mass is conserved.
    fn diffuse(belief: &mut Vec<f64>, kernel: &[f64]) {
        let n = belief.len();
        let radius = (kernel.len() / 2) as i64;
        let mut out = vec![0.0; n];
        for (j, &p) in belief.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for (ki, &kv) in kernel.iter().enumerate() {
                let mut idx = j as i64 + ki as i64 - radius;
                // reflect at boundaries
                if idx < 0 {
                    idx = -idx - 1;
                }
                if idx >= n as i64 {
                    idx = 2 * n as i64 - idx - 1;
                }
                out[idx as usize] += p * kv;
            }
        }
        *belief = out;
    }

    /// `ln P(X ≤ k; mean)` for a Poisson variable, by log-sum-exp over
    /// the first `k + 1` terms (k is at most a few dozen here: the rate
    /// cap times the tick is ≈ 32 packets).
    fn log_poisson_cdf(k: u32, mean: f64) -> f64 {
        let lm = mean.max(1e-12).ln();
        let mut term = -mean; // ln of the j = 0 term
        let mut acc = term;
        for j in 1..=k {
            term += lm - f64::from(j).ln();
            acc = if acc > term {
                acc + (1.0 + (term - acc).exp()).ln()
            } else {
                term + (1.0 + (acc - term).exp()).ln()
            };
        }
        acc.min(0.0)
    }

    /// Poisson observation update with `k` arrivals in one tick, then
    /// renormalization. `censored` marks window-limited ticks, scored
    /// with the survival function `P(X ≥ k)` (see module docs). Falls
    /// back to the prior if the update annihilates all mass.
    fn observe(&mut self, k: u32, censored: bool) {
        let dt = self.config.tick.as_secs_f64();
        if censored && k == 0 {
            // "We offered nothing and received nothing": no information.
            return;
        }
        // Optimism under censoring: a fully window-limited tick shows the
        // link absorbed everything offered, so it can carry at least one
        // packet more — score P(X ≥ k+1). Without the +1 the belief has a
        // fixed point at the flow's own (self-limited) rate and the
        // window can never escape its floor.
        let k = if censored { k + 1 } else { k };
        let kf = f64::from(k);
        // Work with likelihood ratios against the best bin to avoid
        // underflow: exact ticks use log L_i = k·ln(λ_i dt) − λ_i dt
        // (dropping k!); censored ticks use ln P(X ≥ k).
        let log_l: Vec<f64> = (0..self.config.bins)
            .map(|i| {
                let mean = (self.bin_rate(i) * dt).max(1e-12);
                if censored {
                    let cdf_below = Self::log_poisson_cdf(k.saturating_sub(1), mean);
                    // ln(1 − e^cdf_below), guarded against cdf ≈ 1.
                    let p = (1.0 - cdf_below.exp()).max(1e-300);
                    p.ln()
                } else {
                    kf * mean.ln() - mean
                }
            })
            .collect();
        let max_l = log_l.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for (i, p) in self.belief.iter_mut().enumerate() {
            *p *= (log_l[i] - max_l).exp();
            total += *p;
        }
        if total <= 0.0 || !total.is_finite() {
            let uniform = 1.0 / self.config.bins as f64;
            self.belief.fill(uniform);
        } else {
            for p in &mut self.belief {
                *p /= total;
            }
        }
    }

    /// The `percentile`-quantile of a belief, in packets/s.
    fn belief_quantile(&self, belief: &[f64], q: f64) -> f64 {
        let mut acc = 0.0;
        for (i, &p) in belief.iter().enumerate() {
            acc += p;
            if acc >= q {
                return self.bin_rate(i);
            }
        }
        self.bin_rate(belief.len() - 1)
    }

    /// Cautious forecast: packets deliverable over the horizon at the
    /// configured percentile, accounting for growing uncertainty.
    fn cautious_forecast(&self) -> f64 {
        let dt = self.config.tick.as_secs_f64();
        let mut future = self.belief.clone();
        let mut total = 0.0;
        for _ in 0..self.config.horizon_ticks {
            Self::diffuse(&mut future, &self.kernel);
            total += self.belief_quantile(&future, self.config.percentile) * dt;
        }
        total
    }

    /// Mean of the current belief, packets/s (diagnostics).
    #[must_use]
    pub fn belief_mean_pps(&self) -> f64 {
        self.belief
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.bin_rate(i))
            .sum()
    }
}

impl CongestionControl for Sprout {
    fn name(&self) -> &'static str {
        "sprout"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        // Window component: keep at most the cautious 100 ms forecast
        // outstanding. Pacing component: the released Sprout binary is
        // tick-paced and cannot exceed max_pps regardless of RTT — this
        // per-tick cap *is* the 18 Mbit/s implementation cap the paper
        // remarks on (§7, Figure 11a).
        let window_quota = (self.cwnd as usize).saturating_sub(in_flight);
        let tick_cap = (self.config.max_pps * self.config.tick.as_secs_f64()).ceil() as usize;
        let pace_quota = tick_cap.saturating_sub(self.sent_this_tick as usize);
        window_quota.min(pace_quota)
    }

    fn on_packet_sent(&mut self, now: SimTime, _seq: u64, _bytes: u64) {
        self.send_times.push_back(now);
        self.sent_this_tick += 1;
    }

    fn on_ack(&mut self, _now: SimTime, ev: &AckEvent) {
        self.acks_this_tick += 1;
        self.send_times.pop_front();
        let sample = ev.rtt.as_secs_f64();
        self.srtt_s = Some(match self.srtt_s {
            Some(s) => 0.875 * s + 0.125 * sample,
            None => sample,
        });
        self.min_rtt_s = Some(match self.min_rtt_s {
            Some(m) if m <= sample => m,
            _ => sample,
        });
    }

    fn on_loss(&mut self, _now: SimTime, ev: &LossEvent) {
        // Sprout has no multiplicative decrease: the forecast already
        // reflects what the link failed to deliver. A timeout, however,
        // means the belief is stale — reset to the prior.
        match ev.kind {
            LossKind::Timeout => {
                let uniform = 1.0 / self.config.bins as f64;
                self.belief.fill(uniform);
                self.cwnd = self.config.min_window;
                self.send_times.clear();
            }
            LossKind::FastRetransmit => {
                self.send_times.pop_front();
            }
        }
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.config.tick)
    }

    fn on_tick(&mut self, now: SimTime) {
        let k = self.acks_this_tick;
        self.acks_this_tick = 0;
        self.sent_this_tick = 0;
        // Classify the tick (see module docs on censoring):
        //  * overdue packets (in flight ≥ 1.5 × sRTT) ⇒ the link is the
        //    constraint ⇒ the count is an exact Poisson observation;
        //  * otherwise, a count near the window's own ceiling
        //    (cwnd · tick/sRTT ACKs is all a window-limited flow can see)
        //    ⇒ censored: the link can carry at least this much;
        //  * otherwise the tick is timing noise ⇒ no information.
        let dt = self.config.tick.as_secs_f64();
        let (ceiling, overdue) = match (self.srtt_s, self.min_rtt_s) {
            (Some(s), Some(base)) if s > 0.0 => {
                // Overdue is judged against the queueing-free RTT: once
                // packets sit 1.5× the propagation RTT (plus a tick of
                // slack), the link is the constraint and the count is an
                // exact rate observation.
                let threshold = 1.5 * base + dt;
                let overdue = self
                    .send_times
                    .front()
                    .is_some_and(|&t0| now.saturating_since(t0).as_secs_f64() > threshold);
                (self.cwnd * dt / s, overdue)
            }
            _ => (f64::INFINITY, false),
        };
        if overdue {
            self.observe(k, false);
        } else if f64::from(k) >= 0.75 * ceiling && ceiling.is_finite() {
            self.observe(k, true);
        }
        Self::diffuse(&mut self.belief, &self.kernel);
        self.cwnd = self.cautious_forecast().max(self.config.min_window);
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test harness emulating a saturated sender over a link delivering
    /// `per_tick` packets per 20 ms tick. A standing backlog keeps the
    /// oldest in-flight packet overdue, so every tick is an exact rate
    /// observation (the link, not the window, is the constraint).
    struct Harness {
        cc: Sprout,
        now: SimTime,
        primed: bool,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                cc: Sprout::default(),
                now: SimTime::ZERO,
                primed: false,
            }
        }

        fn ack(&self) -> AckEvent {
            AckEvent {
                seq: 0,
                bytes: 1400,
                rtt: SimDuration::from_millis(40),
                delay: SimDuration::from_millis(20),
                send_window: 10.0,
                abc_mark: None,
            }
        }

        fn drive(&mut self, per_tick: u32, n: usize) {
            if !self.primed {
                // Standing backlog: these packets are never ACKed, so the
                // queue head ages past the overdue threshold.
                for _ in 0..(10 * per_tick.max(1) + 20) {
                    self.cc.on_packet_sent(self.now, 0, 1400);
                }
                self.primed = true;
            }
            for _ in 0..n {
                for _ in 0..per_tick {
                    self.cc.on_packet_sent(self.now, 0, 1400);
                    let ev = self.ack();
                    self.cc.on_ack(self.now, &ev);
                }
                self.now += SimDuration::from_millis(20);
                self.cc.on_tick(self.now);
            }
        }
    }

    #[test]
    fn belief_tracks_observed_rate() {
        let mut h = Harness::new();
        // 10 packets / 20 ms tick = 500 packets/s
        h.drive(10, 100);
        let mean = h.cc.belief_mean_pps();
        assert!(
            (mean - 500.0).abs() < 120.0,
            "belief mean {mean} pps, expected ~500"
        );
    }

    #[test]
    fn window_grows_with_delivery_rate() {
        let mut slow = Harness::new();
        let mut fast = Harness::new();
        slow.drive(2, 50);
        fast.drive(20, 50);
        assert!(
            fast.cc.window() > 2.0 * slow.cc.window(),
            "fast {} !>> slow {}",
            fast.cc.window(),
            slow.cc.window()
        );
    }

    #[test]
    fn forecast_is_cautious() {
        // After steady 500 pps, the 5th-percentile 100 ms forecast must be
        // below the point estimate 500 · 0.1 = 50 packets.
        let mut h = Harness::new();
        h.drive(10, 100);
        assert!(h.cc.window() < 50.0, "window {} not cautious", h.cc.window());
        assert!(h.cc.window() > 5.0, "window {} collapsed", h.cc.window());
    }

    #[test]
    fn window_shrinks_on_outage() {
        let mut h = Harness::new();
        h.drive(15, 100);
        let before = h.cc.window();
        h.drive(0, 10); // sudden outage
        assert!(
            h.cc.window() < before / 3.0,
            "window did not collapse: {before} -> {}",
            h.cc.window()
        );
    }

    #[test]
    fn window_recovers_after_outage() {
        let mut h = Harness::new();
        h.drive(15, 50);
        h.drive(0, 10);
        let low = h.cc.window();
        h.drive(15, 50);
        assert!(
            h.cc.window() > 3.0 * low.max(1.0),
            "no recovery from {low}"
        );
    }

    #[test]
    fn censored_ticks_let_a_self_limited_flow_ramp_up() {
        // No backlog, no overdue packets: the flow receives exactly what
        // its window allows; the window must still grow (fixed-pipe ramp).
        let mut cc = Sprout::default();
        let mut now = SimTime::ZERO;
        let mut inflight: std::collections::VecDeque<SimTime> = Default::default();
        for _ in 0..200 {
            // everything sent 40 ms ago comes back now
            while let Some(&t0) = inflight.front() {
                if now.saturating_since(t0) >= SimDuration::from_millis(40) {
                    inflight.pop_front();
                    cc.on_ack(
                        now,
                        &AckEvent {
                            seq: 0,
                            bytes: 1400,
                            rtt: SimDuration::from_millis(40),
                            delay: SimDuration::from_millis(20),
                            send_window: cc.window(),
                            abc_mark: None,
                        },
                    );
                } else {
                    break;
                }
            }
            let q = cc.quota(now, inflight.len());
            for _ in 0..q {
                cc.on_packet_sent(now, 0, 1400);
                inflight.push_back(now);
            }
            now += SimDuration::from_millis(20);
            cc.on_tick(now);
        }
        assert!(
            cc.window() > 10.0,
            "self-limited flow stuck at window {}",
            cc.window()
        );
    }

    #[test]
    fn implementation_cap_limits_window() {
        let cfg = SproutConfig::default();
        let mut h = Harness::new();
        // Hammer with an absurd delivery rate: 200 packets/tick = 10k pps.
        h.drive(200, 100);
        // Cap: max_pps · 100 ms ≈ 160 packets can never be exceeded.
        let cap = cfg.max_pps * cfg.tick.as_secs_f64() * f64::from(cfg.horizon_ticks);
        assert!(
            h.cc.window() <= cap + 1.0,
            "window {} exceeds cap {cap}",
            h.cc.window()
        );
    }

    #[test]
    fn fast_retransmit_loss_keeps_window() {
        let mut h = Harness::new();
        h.drive(10, 50);
        let w = h.cc.window();
        h.cc.on_loss(
            h.now,
            &LossEvent {
                seq: 1,
                send_window: 10.0,
                kind: LossKind::FastRetransmit,
            },
        );
        assert_eq!(h.cc.window(), w);
    }

    #[test]
    fn timeout_resets_belief() {
        let mut h = Harness::new();
        h.drive(10, 50);
        h.cc.on_loss(
            h.now,
            &LossEvent {
                seq: 1,
                send_window: 10.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(h.cc.window(), h.cc.config().min_window);
    }

    #[test]
    fn belief_stays_normalized() {
        let mut h = Harness::new();
        for round in 0..200 {
            h.drive((round % 25) as u32, 1);
            let total: f64 = h.cc.belief.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "mass {total} at round {round}");
        }
    }

    #[test]
    fn log_poisson_cdf_matches_known_values() {
        // P(X <= 2; m = 2) = e^-2 (1 + 2 + 2) = 5 e^-2 ≈ 0.6767
        let v = Sprout::log_poisson_cdf(2, 2.0).exp();
        assert!((v - 0.676676).abs() < 1e-4, "got {v}");
        // P(X <= 0; m) = e^-m
        let v = Sprout::log_poisson_cdf(0, 3.0).exp();
        assert!((v - (-3.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn tick_interval_is_20ms() {
        assert_eq!(
            Sprout::default().tick_interval(),
            Some(SimDuration::from_millis(20))
        );
    }
}
