//! Build a custom cellular cell from the substrate pieces, inspect its
//! burst behaviour, and export a mahimahi-compatible trace file.
//!
//! ```bash
//! cargo run --release -p verus-bench --example custom_channel
//! ```
//!
//! Shows the lower-level cellular API that the named scenarios wrap: a
//! link budget (technology), per-user fading processes (environment), a
//! proportional-fair TTI scheduler, and competing users.

use rand::rngs::StdRng;
use rand::SeedableRng;
use verus_cellular::burst::{burst_stats, trace_bursts};
use verus_cellular::fading::{FadingConfig, LinkBudget};
use verus_cellular::scheduler::{run_cell, CellConfig, Demand, UserConfig};
use verus_nettypes::SimDuration;

fn main() {
    // A mid-band LTE cell: 1 ms TTI, 25 Mbit/s peak.
    let budget = LinkBudget::lte(25e6);

    // Our user drives through the cell; two neighbours stream video.
    let cell = CellConfig::new(
        budget,
        vec![
            UserConfig {
                demand: Demand::Saturated, // our user: capacity probe
                fading: FadingConfig::driving(),
            },
            UserConfig {
                demand: Demand::Cbr { rate_bps: 3e6 },
                fading: FadingConfig::stationary(),
            },
            UserConfig {
                demand: Demand::OnOff {
                    rate_bps: 5e6,
                    on: SimDuration::from_secs(8),
                    off: SimDuration::from_secs(12),
                },
                fading: FadingConfig::pedestrian(),
            },
        ],
    );

    let mut rng = StdRng::seed_from_u64(2024);
    let mut results = run_cell(&cell, SimDuration::from_secs(60), &mut rng).expect("valid cell");
    let ours = results.remove(0);
    println!(
        "our user: {:.2} Mbit/s over 60 s ({} delivery opportunities)",
        ours.delivered_bytes as f64 * 8.0 / 60.0 / 1e6,
        ours.opportunities.len()
    );

    // Burst structure (what a receiver-side packet trace would show).
    let trace = ours.into_trace("custom drive-through cell").expect("non-empty");
    let bursts = trace_bursts(&trace, SimDuration::from_millis_f64(1.5));
    if let Some(stats) = burst_stats(&bursts) {
        println!(
            "bursts: {} total; size mean {:.0} B (p95 {:.0}); gap mean {:.1} ms (p95 {:.1})",
            stats.count,
            stats.size_bytes.mean,
            stats.size_bytes.p95,
            stats.inter_arrival_ms.mean,
            stats.inter_arrival_ms.p95
        );
    }

    // Export for mahimahi's mm-link (or this repo's own emulator).
    let out = std::env::temp_dir().join("custom_channel.mahi");
    let file = std::fs::File::create(&out).expect("create trace file");
    trace.save_mahimahi(file).expect("write trace");
    println!("mahimahi-format trace written to {}", out.display());
    println!();
    println!("replay it with the UDP emulator (see examples/live_emulation.rs) or");
    println!("feed it to the simulator via BottleneckConfig::Cell.");
}
