//! Stream pins for the sampling kernels the engines spend their time in.
//!
//! Each test draws one kernel over a fixed grid at seed 2014, folds every
//! output (and one final generator word, which pins how many words the
//! grid consumed) into an FNV-1a checksum, and compares it with a constant.
//! Perf work on these kernels must be bit-identical (DESIGN.md §9); a change
//! that moves a draw fails here in seconds, instead of only through the
//! benchmark's or the scenario registry's pinned folds.

use rand::RngCore;
use rcb_mathkit::binom::{binomial_cdf_le, binomial_tail_gt};
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{
    binomial, binomial_fast, geometric_failures, multinomial_into, sample_slots_into,
};

const SEED: u64 = 2014;

/// An FNV-1a fold over little-endian `u64` words.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The fold after one last generator word.
    fn finish(mut self, rng: &mut RcbRng) -> u64 {
        self.push(rng.next_u64());
        self.0
    }
}

/// Probabilities from the saturating tiny end to one ulp below 1.
const PS: [f64; 12] = [
    1e-300,
    f64::MIN_POSITIVE,
    1e-12,
    9.313_225_746_154_785e-10, // 2^-30
    1e-4,
    0.01,
    0.06,
    0.25,
    0.5,
    0.75,
    0.9,
    0.999_999_999_999_999_9, // 1 − 2^-53 after rounding
];

#[test]
fn sample_slots_into_stream_is_pinned() {
    let ns = [1u64, 7, 64, 256, 4096, 1 << 20, 1 << 40, u64::MAX];
    let mut rng = RcbRng::new(SEED);
    let mut fold = Fold::new();
    let mut out = Vec::new();
    for &p in &PS {
        for &n in ns.iter().filter(|&&n| n as f64 * p <= 20_000.0) {
            for _ in 0..8 {
                sample_slots_into(&mut rng, n, p, &mut out);
                fold.push(out.len() as u64);
                out.iter().for_each(|&s| fold.push(s));
            }
        }
    }
    let got = fold.finish(&mut rng);
    assert_eq!(
        got, 0x647d_7027_0da2_cbe7,
        "sample_slots_into fold {got:#018x}"
    );
}

#[test]
fn geometric_and_binomial_streams_are_pinned() {
    let mut rng = RcbRng::new(SEED);
    let mut fold = Fold::new();
    for &p in &PS {
        for _ in 0..64 {
            fold.push(geometric_failures(&mut rng, p));
        }
        for &n in &[1u64, 10, 300, 1 << 16, 1 << 40] {
            if n as f64 * p <= 20_000.0 {
                fold.push(binomial(&mut rng, n, p));
            }
        }
    }
    let got = fold.finish(&mut rng);
    assert_eq!(
        got, 0x5c37_421f_6b0f_76c4,
        "geometric_failures/binomial fold {got:#018x}"
    );
}

#[test]
fn binomial_fast_stream_is_pinned() {
    // BINV (np < 10), BTPE (np ≥ 10), both sides of the complement split,
    // and the n = 1 Bernoulli path.
    let cells: [(u64, f64); 20] = [
        (5, 0.3),
        (100, 0.05),
        (1000, 0.001),
        (1 << 40, 1e-12),
        (20, 0.9),
        (100, 0.3),
        (1000, 0.5),
        (1_000_000, 0.01),
        (1 << 40, 0.25),
        (50, 0.7),
        (4096, 0.999),
        (1, 0.5),
        (1, 0.3),
        (1, 0.06),
        (1, 1e-3),
        (1, 1e-9),
        (1, 1e-300),
        (1, 0.7),
        (1, 0.999),
        (1, 1.0 - 1e-12),
    ];
    let mut rng = RcbRng::new(SEED);
    let mut fold = Fold::new();
    for &(n, p) in &cells {
        for _ in 0..256 {
            fold.push(binomial_fast(&mut rng, n, p));
        }
    }
    let got = fold.finish(&mut rng);
    assert_eq!(got, 0x1951_e85c_41ac_b0a7, "binomial_fast fold {got:#018x}");
}

#[test]
fn binomial_tails_are_pinned() {
    // Deterministic, so the fold is over result bits only.
    let mut fold = Fold::new();
    for &n in &[1u64, 10, 64, 1000, 4096, 1_000_000] {
        for &p in &[1e-3, 0.06, 0.3, 0.5, 0.9] {
            for k in [0, 1, n / 4, n / 2, n - 1, n] {
                fold.push(binomial_tail_gt(n, k, p).to_bits());
                fold.push(binomial_cdf_le(n, k, p).to_bits());
            }
        }
    }
    let got = fold.0;
    assert_eq!(
        got, 0x9ab9_6bf3_16ac_3d54,
        "binomial_tail_gt/binomial_cdf_le fold {got:#018x}"
    );
}

#[test]
fn multinomial_into_stream_is_pinned() {
    let weights: [&[f64]; 5] = [
        &[1.0, 1.0],
        &[3.0, 0.0, 1.0, 6.0],
        &[0.9, 0.05, 0.05],
        &[1e-9, 0.5, 1e-6, 0.25, 0.25],
        &[0.0, 0.0, 0.0],
    ];
    let mut rng = RcbRng::new(SEED);
    let mut fold = Fold::new();
    let mut out = Vec::new();
    for w in weights {
        for &n in &[0u64, 1, 17, 4096, 1 << 30] {
            for _ in 0..32 {
                multinomial_into(&mut rng, n, w, &mut out);
                out.iter().for_each(|&k| fold.push(k));
            }
        }
    }
    let got = fold.finish(&mut rng);
    assert_eq!(
        got, 0x65c1_8f77_b124_02e8,
        "multinomial_into fold {got:#018x}"
    );
}
