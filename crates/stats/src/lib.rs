//! Statistics substrate for the Verus reproduction.
//!
//! The paper's evaluation pipeline needs a handful of numerical building
//! blocks that we implement from scratch rather than pulling in extra
//! dependencies:
//!
//! * [`ewma`] — exponentially weighted moving averages (paper Eq. 2 and the
//!   delay-profile point updates of §5.1 are both EWMAs);
//! * [`dist`] — the standard-normal sampler (a 256-layer ziggurat) that
//!   drives the synthetic cellular channel models' fading processes;
//! * [`histogram`] — linear- and log-binned histograms / empirical PDFs
//!   (Figure 2 plots PDFs of burst size and inter-arrival time on log axes);
//! * [`quantile`] — percentiles and summary statistics;
//! * [`jain`] — Jain's fairness index (paper Eq. 7, Table 1);
//! * [`timeseries`] — windowed throughput/delay aggregation (Figures 4, 7a,
//!   11–14 all plot per-window throughput series);
//! * [`running`] — Welford running mean/variance;
//! * [`reservoir`] — bounded-memory uniform sampling (Algorithm R) so
//!   per-packet diagnostics stay O(1) in memory on crowd-scale runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod ewma;
pub mod histogram;
pub mod jain;
pub mod quantile;
pub mod regret;
pub mod reservoir;
pub mod running;
pub mod stream;
pub mod timeseries;

pub use dist::Normal;
pub use ewma::Ewma;
pub use histogram::{Histogram, LogHistogram};
pub use jain::jain_index;
pub use quantile::{quantile, P2Quantile, Summary};
pub use regret::{regret, utility, DEFAULT_DELTA};
pub use reservoir::Reservoir;
pub use running::Running;
pub use stream::StreamingStats;
pub use timeseries::{windowed_jain_mean, windowed_jain_mean_from, ThroughputSeries, WindowedSeries};
