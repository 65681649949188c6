//! Malformed cell configurations are rejected with an error.
//!
//! Each of these configurations used to hang `run_cell` (a zero packet
//! size or an unbounded offered rate spins the arrival loop) or panic
//! inside it. Every run here happens on a worker thread with a deadline,
//! so a regression fails the test instead of stalling the suite.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Duration;
use verus_cellular::fading::{FadingConfig, LinkBudget, RateTable};
use verus_cellular::scheduler::{run_cell, CellConfig, Demand, UserConfig};
use verus_cellular::trace::TraceError;
use verus_nettypes::SimDuration;

fn user(demand: Demand) -> UserConfig {
    UserConfig {
        demand,
        fading: FadingConfig::stationary(),
    }
}

fn valid_cell() -> CellConfig {
    CellConfig::new(
        LinkBudget::hspa(8e6),
        vec![user(Demand::Saturated), user(Demand::Cbr { rate_bps: 1e6 })],
    )
}

/// Runs a 1 s cell on a worker thread and returns the field named by its
/// `InvalidCell` error. Panics if the run succeeds, panics, fails some
/// other way, or does not return within the deadline (a hung worker is
/// left behind; the test process exits without it).
fn rejected_field(cell: CellConfig) -> &'static str {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = run_cell(&cell, SimDuration::from_secs(1), &mut rng).map(|_| ());
        tx.send(outcome).expect("receiver waits until the deadline");
    });
    let outcome = match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("run_cell hung instead of rejecting"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let panic = worker.join().expect_err("worker exited without a result");
            std::panic::resume_unwind(panic)
        }
    };
    worker.join().expect("worker finished after sending");
    match outcome {
        Err(TraceError::InvalidCell { field, .. }) => field,
        Err(e) => panic!("rejected with the wrong error: {e}"),
        Ok(()) => panic!("malformed cell was accepted"),
    }
}

#[test]
fn valid_cell_runs() {
    let mut rng = StdRng::seed_from_u64(1);
    assert!(run_cell(&valid_cell(), SimDuration::from_secs(1), &mut rng).is_ok());
}

#[test]
fn empty_user_list_is_rejected() {
    let cell = CellConfig {
        users: Vec::new(),
        ..valid_cell()
    };
    assert_eq!(rejected_field(cell), "users");
}

#[test]
fn pf_alpha_outside_unit_interval_is_rejected() {
    for pf_alpha in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
        let cell = CellConfig {
            pf_alpha,
            ..valid_cell()
        };
        assert_eq!(rejected_field(cell), "pf_alpha", "pf_alpha = {pf_alpha}");
    }
}

#[test]
fn zero_packet_bytes_is_rejected() {
    let cell = CellConfig {
        packet_bytes: 0,
        ..valid_cell()
    };
    assert_eq!(rejected_field(cell), "packet_bytes");
}

#[test]
fn unbounded_cbr_rate_is_rejected() {
    // +∞ never drains the arrival accumulator; 1e30 bit/s is finite but
    // so large that subtracting one packet no longer changes it.
    for rate_bps in [f64::INFINITY, f64::NAN, -1.0, 1e30] {
        let mut cell = valid_cell();
        cell.users[1].demand = Demand::Cbr { rate_bps };
        assert_eq!(
            rejected_field(cell),
            "users[].demand.rate_bps",
            "rate {rate_bps}"
        );
    }
}

#[test]
fn unbounded_onoff_rate_is_rejected() {
    for rate_bps in [f64::INFINITY, 1e30] {
        let mut cell = valid_cell();
        cell.users[1].demand = Demand::OnOff {
            rate_bps,
            on: SimDuration::from_millis(100),
            off: SimDuration::from_millis(100),
        };
        assert_eq!(
            rejected_field(cell),
            "users[].demand.rate_bps",
            "rate {rate_bps}"
        );
    }
}

#[test]
fn overflowing_onoff_cycle_is_rejected() {
    // `on + off` used to overflow inside `run_cell`: a panic in debug
    // builds, and in release a wrapped cycle that left the user ON.
    for (on, off) in [
        (SimDuration::MAX, SimDuration::from_secs(1)),
        (SimDuration::from_nanos(1), SimDuration::MAX),
        (
            SimDuration::from_nanos(u64::MAX / 2 + 1),
            SimDuration::from_nanos(u64::MAX / 2 + 1),
        ),
    ] {
        let mut cell = valid_cell();
        cell.users[1].demand = Demand::OnOff {
            rate_bps: 1e6,
            on,
            off,
        };
        assert_eq!(
            rejected_field(cell),
            "users[].demand.off",
            "{on:?} + {off:?}"
        );
    }
}

#[test]
fn zero_tti_is_rejected() {
    let mut cell = valid_cell();
    cell.budget.tti = SimDuration::ZERO;
    assert_eq!(rejected_field(cell), "budget.tti");
}

#[test]
fn cqi_steps_out_of_range_are_rejected() {
    for cqi_steps in [0, 65, u32::MAX] {
        let mut cell = valid_cell();
        cell.budget.cqi_steps = cqi_steps;
        assert_eq!(
            rejected_field(cell),
            "budget.cqi_steps",
            "{cqi_steps} steps"
        );
    }
}

#[test]
fn non_positive_or_non_finite_peak_rate_is_rejected() {
    for peak_rate_bps in [0.0, -1e6, f64::INFINITY, f64::NAN] {
        let mut cell = valid_cell();
        cell.budget.peak_rate_bps = peak_rate_bps;
        assert_eq!(
            rejected_field(cell),
            "budget.peak_rate_bps",
            "peak {peak_rate_bps}"
        );
    }
}

#[test]
fn non_positive_or_non_finite_peak_snr_is_rejected() {
    for snr_at_peak_db in [0.0, -3.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let mut cell = valid_cell();
        cell.budget.snr_at_peak_db = snr_at_peak_db;
        assert_eq!(
            rejected_field(cell),
            "budget.snr_at_peak_db",
            "snr {snr_at_peak_db}"
        );
    }
}

#[test]
fn rate_table_rejects_an_invalid_budget() {
    let mut budget = LinkBudget::lte(10e6);
    budget.cqi_steps = 0;
    assert!(matches!(
        RateTable::new(&budget),
        Err(TraceError::InvalidCell {
            field: "budget.cqi_steps",
            ..
        })
    ));
}
