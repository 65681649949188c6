//! Offline stand-in for `criterion` 0.5.
//!
//! Runs each registered benchmark a configurable (small) number of
//! samples and prints mean ns/iteration — enough for eyeballing hot
//! paths in a container with no crates.io access. No statistics engine,
//! no HTML reports, no warm-up model. The repository's benchmark is
//! `perfbench` (see `BENCHMARK.json`), not this crate; its one user,
//! verus-bench's `ablations` bench, reports protocol outcomes, and
//! nothing downstream consumes the timings printed here.
//!
//! API subset: `Criterion::{default, sample_size, bench_function,
//! benchmark_group}`, `Bencher::{iter, iter_batched}`,
//! `BenchmarkGroup::{sample_size, bench_function, finish}`,
//! `BatchSize`, `criterion_group!` (both forms), `criterion_main!`.

use std::time::Instant;

/// How batched setup output is amortized; accepted and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Medium per-iteration inputs.
    MediumInput,
    /// Large per-iteration inputs.
    LargeInput,
}

/// Per-benchmark timing loop.
pub struct Bencher {
    samples: usize,
    /// Mean ns/iter of the last `iter`/`iter_batched` call.
    last_ns: f64,
}

impl Bencher {
    /// Times `routine` for the configured number of samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.samples {
            std::hint::black_box(routine());
        }
        self.last_ns = start.elapsed().as_nanos() as f64 / self.samples.max(1) as f64;
    }

    /// Times `routine` over fresh `setup()` inputs; setup cost excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total_ns = 0u128;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total_ns += start.elapsed().as_nanos();
        }
        self.last_ns = total_ns as f64 / self.samples.max(1) as f64;
    }
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        last_ns: 0.0,
    };
    f(&mut b);
    println!("bench {label:<40} {:>12.0} ns/iter ({samples} samples)", b.last_ns);
}

/// Top-level benchmark registry/runner.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Tiny sample count: this runner exists to exercise the bench
        // code paths offline, not to produce publishable numbers.
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets samples per benchmark (builder style, as upstream).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, self.sample_size, &mut f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            prefix: name.to_string(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named group; samples configurable independently of the parent.
pub struct BenchmarkGroup<'a> {
    prefix: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets samples per benchmark within the group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let label = format!("{}/{name}", self.prefix);
        run_one(&label, self.sample_size, &mut f);
        self
    }

    /// Ends the group (no-op; exists for API parity).
    pub fn finish(self) {}
}

/// Declares a bench group function, either positional or `name/config/targets`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups (benches use `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Re-export parity: upstream exposes `black_box` at crate root.
pub use std::hint::black_box;
