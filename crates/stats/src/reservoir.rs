//! Bounded-memory uniform sampling of an unbounded stream.
//!
//! Long crowd runs deliver hundreds of millions of packets; buffering a
//! per-delivery `f64` for each would dwarf the simulator's own state.
//! [`Reservoir`] keeps a uniform random sample of at most `cap` values
//! using Vitter's Algorithm R: the first `cap` values are stored
//! verbatim (so short runs see *exactly* the full sample vector, in
//! arrival order), and each later value replaces a random slot with
//! probability `cap / seen`.
//!
//! The replacement RNG is a private SplitMix64 stream so sampling never
//! perturbs a simulation's seeded random sequence, and a given
//! `(seed, stream)` pair always selects the same sample.

/// A fixed-capacity uniform sample over a stream of `f64` values.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<f64>,
    state: u64,
}

impl Reservoir {
    /// Default capacity: large enough that single-flow paper scenarios
    /// keep every sample, small enough that a 250-flow sweep stays flat.
    pub const DEFAULT_CAP: usize = 65_536;

    /// A reservoir holding at most `cap` samples, with a deterministic
    /// replacement stream derived from `seed`. `cap` must be non-zero.
    #[must_use]
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap > 0, "reservoir capacity must be non-zero");
        Self {
            cap,
            seen: 0,
            samples: Vec::new(),
            state: seed,
        }
    }

    /// Allocates the storage for all `cap` samples now, rather than
    /// growing it while samples arrive. The sample is unchanged.
    pub fn preallocate(&mut self) {
        self.samples.reserve_exact(self.cap - self.samples.len());
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Offers a value to the reservoir.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
            return;
        }
        // Replace slot j with probability cap/seen: draw j uniform in
        // [0, seen) and keep only hits below cap. The modulo bias over a
        // 64-bit draw is immaterial for sampling diagnostics.
        let j = self.next_u64() % self.seen;
        if let Ok(j) = usize::try_from(j) {
            if j < self.cap {
                self.samples[j] = value;
            }
        }
    }

    /// Total values offered (not the number retained).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of retained samples (`min(seen, cap)`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been offered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the stream exceeded the capacity (the sample is a subset).
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.seen > self.cap as u64
    }

    /// The retained samples. In arrival order until saturation; an
    /// unordered uniform subset afterwards.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consumes the reservoir, returning the retained samples.
    #[must_use]
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_capacity_keeps_everything_in_order() {
        let mut r = Reservoir::new(100, 42);
        for i in 0..100 {
            r.push(f64::from(i));
        }
        assert!(!r.saturated());
        assert_eq!(r.seen(), 100);
        let want: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(r.samples(), &want[..]);
    }

    #[test]
    fn above_capacity_stays_bounded() {
        let mut r = Reservoir::new(64, 7);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.len(), 64);
        assert!(r.saturated());
        assert_eq!(r.seen(), 100_000);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Push 0..100k into a 1000-slot reservoir; the retained mean
        // should be near the stream mean (~50k) for any seed.
        for seed in [1u64, 2, 3] {
            let mut r = Reservoir::new(1000, seed);
            for i in 0..100_000 {
                r.push(f64::from(i));
            }
            let mean = r.samples().iter().sum::<f64>() / r.len() as f64;
            assert!(
                (mean - 50_000.0).abs() < 5_000.0,
                "seed {seed}: biased sample mean {mean}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(32, seed);
            for i in 0..10_000 {
                r.push(f64::from(i) * 0.5);
            }
            r.into_samples()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn preallocated_storage_does_not_change_the_sample() {
        let run = |mut r: Reservoir| {
            for i in 0..1_000 {
                r.push(f64::from(i));
            }
            r.into_samples()
        };
        let mut eager = Reservoir::new(64, 5);
        eager.preallocate();
        assert!(eager.samples.capacity() >= 64);
        assert_eq!(run(eager), run(Reservoir::new(64, 5)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = Reservoir::new(0, 1);
    }
}
