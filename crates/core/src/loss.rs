//! The Loss Handler (paper §4 "Loss Handler", Eq. 6).
//!
//! On a detected loss the window collapses multiplicatively from the
//! window the *lost packet* was sent under:
//!
//! ```text
//! W_{i+1} = M · W_loss                                   (Eq. 6)
//! ```
//!
//! ("We choose the sending window of the lost packet W_loss because that
//! sending window was responsible for the packet loss.")
//!
//! Verus then enters a **loss recovery phase** during which
//!
//! * the delay profile is frozen — post-loss delays are artificially low
//!   (the queue just drained) and would teach the profile that large
//!   windows are cheap;
//! * the window grows like TCP: `W += 1/W` per ACK;
//! * recovery ends once an ACK arrives for a packet sent *after* the
//!   loss, recognized by its echoed sending window being ≤ the current
//!   (collapsed) window.

/// Loss-recovery bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossHandler {
    m: f64,
    in_recovery: bool,
}

impl LossHandler {
    /// Creates a handler with multiplicative decrease factor `m ∈ (0,1)`.
    #[must_use]
    pub fn new(m: f64) -> Self {
        assert!(m > 0.0 && m < 1.0, "M must be in (0,1), got {m}");
        Self {
            m,
            in_recovery: false,
        }
    }

    /// Whether the protocol is currently in the loss-recovery phase
    /// (profile updates suspended).
    #[must_use]
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Applies Eq. 6 and enters recovery. Returns the collapsed window.
    ///
    /// If already in recovery the window is left unchanged (one decrease
    /// per congestion event): returns `None`.
    #[must_use = "discarding the collapsed window drops the Eq. 6 decrease"]
    pub fn on_loss(&mut self, w_loss: f64, min_window: f64) -> Option<f64> {
        if self.in_recovery {
            return None;
        }
        self.in_recovery = true;
        Some((self.m * w_loss).max(min_window))
    }

    /// Processes an ACK during recovery: grows `w` by `1/w` (TCP-style)
    /// and exits recovery if the ACK's echoed sending window shows the
    /// packet was sent after the collapse (`send_window ≤ w`).
    ///
    /// Returns the updated window. No-op outside recovery.
    #[must_use = "discarding the grown window stalls recovery"]
    pub fn on_ack(&mut self, w: f64, ack_send_window: f64) -> f64 {
        if !self.in_recovery {
            return w;
        }
        let grown = w + 1.0 / w.max(1.0);
        if ack_send_window <= grown {
            self.in_recovery = false;
        }
        grown
    }

    /// Forces recovery off (used when a timeout rebuilds state).
    pub fn reset(&mut self) {
        self.in_recovery = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq6_multiplies_w_loss_not_current() {
        let mut lh = LossHandler::new(0.5);
        // current window elsewhere is irrelevant; W_loss = 80 → 40
        assert_eq!(lh.on_loss(80.0, 2.0), Some(40.0));
        assert!(lh.in_recovery());
    }

    #[test]
    fn collapse_respects_min_window() {
        let mut lh = LossHandler::new(0.5);
        assert_eq!(lh.on_loss(1.0, 2.0), Some(2.0));
    }

    #[test]
    fn one_decrease_per_event() {
        let mut lh = LossHandler::new(0.5);
        assert!(lh.on_loss(100.0, 2.0).is_some());
        assert_eq!(lh.on_loss(100.0, 2.0), None);
    }

    #[test]
    fn recovery_grows_like_tcp() {
        let mut lh = LossHandler::new(0.5);
        lh.on_loss(100.0, 2.0).unwrap();
        // ACK from before the loss: send_window 100 > current → stay in
        // recovery, but window still grows 1/W.
        let w = lh.on_ack(50.0, 100.0);
        assert!((w - 50.02).abs() < 1e-9);
        assert!(lh.in_recovery());
    }

    #[test]
    fn recovery_exits_on_post_loss_ack() {
        let mut lh = LossHandler::new(0.5);
        lh.on_loss(100.0, 2.0).unwrap();
        // ACK whose echoed window ≤ current window ⇒ sent after collapse.
        let w = lh.on_ack(50.0, 45.0);
        assert!(!lh.in_recovery());
        assert!(w > 50.0);
    }

    #[test]
    fn on_ack_is_noop_outside_recovery() {
        let mut lh = LossHandler::new(0.5);
        assert_eq!(lh.on_ack(50.0, 10.0), 50.0);
    }

    #[test]
    fn reset_clears_recovery() {
        let mut lh = LossHandler::new(0.5);
        let _ = lh.on_loss(10.0, 2.0); // only the recovery flag matters here
        lh.reset();
        assert!(!lh.in_recovery());
        // next loss collapses again
        assert_eq!(lh.on_loss(10.0, 2.0), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "M must be in (0,1)")]
    fn rejects_bad_m() {
        let _ = LossHandler::new(1.0);
    }
}
