//! Deterministic, splittable randomness.
//!
//! All simulation code in this workspace draws randomness through [`RcbRng`],
//! an xoshiro256++ generator seeded through SplitMix64. Two properties matter:
//!
//! 1. **Reproducibility** — the stream produced for a given seed is fixed by
//!    this crate, not by whichever version of `rand` happens to be linked.
//!    Every experiment in EXPERIMENTS.md records its master seed.
//! 2. **Splittability** — parallel trial runners need one independent stream
//!    per trial. [`SeedSequence`] fans a master seed out into child seeds with
//!    SplitMix64, whose increments are far apart in the xoshiro state space.

use rand::{RngCore, SeedableRng};

/// SplitMix64 step: advances `state` and returns the next output.
///
/// This is the standard seeding recommendation of the xoshiro authors; it is
/// also used directly by [`SeedSequence`] to derive child seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ — a small, fast, high-quality non-cryptographic generator.
///
/// The adversaries in this workspace are *adaptive but not clairvoyant*
/// (paper §1.2: the adversary knows the protocol but not the random bits of
/// the current slot), so a non-cryptographic generator is sound here: the
/// adversary implementations are never handed the generator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RcbRng {
    s: [u64; 4],
}

impl RcbRng {
    /// Builds a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start from the all-zero state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway for safety.
        if s == [0, 0, 0, 0] {
            return Self { s: [1, 2, 3, 4] };
        }
        Self { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Fills `out` with the generator's next `out.len()` raw outputs.
    ///
    /// **Stream-order invariant:** element `j` is exactly the value the
    /// `j`-th call to [`next_u64`](RngCore::next_u64) would have returned,
    /// so a call site may switch between the loop form and the batched form
    /// without perturbing any downstream draw — recorded checksums depend
    /// on this. Batch consumers (block samplers, the scenario executor's
    /// chunked trial claiming) use it to hoist RNG access out of their hot
    /// loops.
    pub fn fill_u64s(&mut self, out: &mut [u64]) {
        for slot in out.iter_mut() {
            *slot = self.next();
        }
    }

    /// Fills `out` with uniform `[0, 1)` doubles. Same stream-order
    /// invariant as [`fill_u64s`](Self::fill_u64s): element `j` is
    /// bit-identical to the `j`-th [`f64`](Self::f64) call.
    pub fn fill_f64s(&mut self, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.f64();
        }
    }

    /// A fresh generator whose stream is independent of `self`'s future
    /// output (derived by hashing the current state through SplitMix64).
    pub fn split(&mut self) -> RcbRng {
        let mut sm = self.next() ^ 0xA076_1D64_78BD_642F;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        RcbRng { s }
    }
}

impl RngCore for RcbRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl SeedableRng for RcbRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        RcbRng::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        RcbRng::new(state)
    }
}

/// Derives independent child seeds from a master seed.
///
/// Child `k` of master seed `m` is the `k`-th SplitMix64 output of
/// `m ^ GOLDEN`, so two different masters produce unrelated families and two
/// different children of the same master are unrelated.
#[derive(Debug, Clone, Copy)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The master seed this sequence was built from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The `index`-th child seed.
    pub fn child(&self, index: u64) -> u64 {
        let mut state = self
            .master
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        splitmix64(&mut state)
    }

    /// A generator for the `index`-th child.
    pub fn rng(&self, index: u64) -> RcbRng {
        RcbRng::new(self.child(index))
    }
}

/// Convenience: the `index`-th independent generator for `master`.
pub fn seed_stream(master: u64, index: u64) -> RcbRng {
    SeedSequence::new(master).rng(index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = RcbRng::new(42);
        let mut b = RcbRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RcbRng::new(1);
        let mut b = RcbRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = RcbRng::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_is_in_range_and_covers_small_domains() {
        let mut rng = RcbRng::new(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        RcbRng::new(0).below(0);
    }

    #[test]
    fn split_produces_distinct_streams() {
        let mut parent = RcbRng::new(3);
        let mut child = parent.split();
        let equal = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn seed_sequence_children_are_distinct() {
        let seq = SeedSequence::new(99);
        let mut seeds: Vec<u64> = (0..1000).map(|i| seq.child(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn fill_u64s_matches_elementwise_stream() {
        let mut batched = RcbRng::new(21);
        let mut looped = RcbRng::new(21);
        let mut buf = [0u64; 37];
        batched.fill_u64s(&mut buf);
        for (j, &v) in buf.iter().enumerate() {
            assert_eq!(v, looped.next_u64(), "element {j} diverged");
        }
        // The generators are in identical states afterwards.
        assert_eq!(batched.next_u64(), looped.next_u64());
    }

    #[test]
    fn fill_f64s_matches_elementwise_stream() {
        let mut batched = RcbRng::new(22);
        let mut looped = RcbRng::new(22);
        let mut buf = [0.0f64; 19];
        batched.fill_f64s(&mut buf);
        for (j, &v) in buf.iter().enumerate() {
            assert_eq!(v.to_bits(), looped.f64().to_bits(), "element {j} diverged");
        }
        assert_eq!(batched, looped);
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = RcbRng::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn rngcore_next_u32_varies() {
        let mut rng = RcbRng::new(17);
        let a = rng.next_u32();
        let b = rng.next_u32();
        assert_ne!(a, b);
    }
}
