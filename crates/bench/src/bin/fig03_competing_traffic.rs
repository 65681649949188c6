//! Figure 3: impact of competing traffic on packet delay over a 3G
//! downlink — user 1 receives at 1/5/10 Mbit/s while user 2 toggles a
//! 10 Mbit/s flow ON/OFF in one-minute intervals.
//!
//! The paper's point: despite per-user queues, flows contend for the same
//! radio resources, so user 1's delay rises when user 2 is ON —
//! dramatically so when the combined rate approaches the ~10 Mbit/s cell
//! capacity.

use rand::rngs::StdRng;
use rand::SeedableRng;
use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::fading::{FadingConfig, LinkBudget};
use verus_cellular::scheduler::{run_cell, CellConfig, Demand, UserConfig};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let minute = SimDuration::from_secs(60);
    let mut rows_out = Vec::new();
    let mut checks = Vec::new();
    let mut table = Vec::new();

    for (i, rate_mbps) in [1.0, 5.0, 10.0].into_iter().enumerate() {
        // Peak 32 Mbit/s ⇒ ≈ 21 Mbit/s typical at the stationary SNR,
        // matching the paper's setup where 10 + 10 Mbit/s "is almost
        // equal to the 3G channel capacity".
        let cell = CellConfig::new(
            LinkBudget::hspa(32e6),
            vec![
                UserConfig {
                    demand: Demand::Cbr {
                        rate_bps: rate_mbps * 1e6,
                    },
                    fading: FadingConfig::stationary(),
                },
                UserConfig {
                    demand: Demand::OnOff {
                        rate_bps: 10e6,
                        on: minute,
                        off: minute,
                    },
                    fading: FadingConfig::stationary(),
                },
            ],
        );
        let mut rng = StdRng::seed_from_u64(300 + i as u64);
        let results = run_cell(&cell, SimDuration::from_secs(600), &mut rng).expect("valid cell");
        let user1 = &results[0];

        // Split user 1's delays by user 2's phase (ON first).
        let cycle_ms = 120_000u64;
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (t, d) in &user1.delays {
            if t.as_millis() % cycle_ms < 60_000 {
                on.push(d.as_millis_f64());
            } else {
                off.push(d.as_millis_f64());
            }
        }
        // The paper's delays include ~20 ms of core-network path on top
        // of the radio queue; add the same constant so idle-phase bars
        // sit at realistic absolute values.
        const CORE_MS: f64 = 20.0;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64 + CORE_MS;
        let (delay_off_ms, delay_on_ms) = (mean(&off), mean(&on));
        table.push(vec![
            format!("User 1 @ {rate_mbps} Mbit/s"),
            format!("{delay_off_ms:.1}"),
            format!("{delay_on_ms:.1}"),
            format!("{:.1}x", delay_on_ms / delay_off_ms.max(1e-9)),
        ]);
        checks.push(("delay OFF", delay_off_ms));
        checks.push(("delay ON", delay_on_ms));
        rows_out.push(
            Json::object()
                .field("user1_rate_mbps", rate_mbps)
                .field("delay_off_ms", delay_off_ms)
                .field("delay_on_ms", delay_on_ms),
        );
    }

    println!("Figure 3 — user 1 mean packet delay vs user 2 (10 Mbit/s) ON/OFF, 3G downlink");
    println!();
    print_table(
        &["scenario", "user2 OFF (ms)", "user2 ON (ms)", "inflation"],
        &table,
    );
    println!();
    println!("paper shape: delay inflation grows with user 1's rate and explodes");
    println!("when the combined rate (user1 + 10) approaches the cell capacity.");

    guard_finite("fig03_competing_traffic", &checks);

    write_json("fig03_competing_traffic", &Json::Arr(rows_out));
}
