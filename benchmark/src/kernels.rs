//! Timed calls into the kernels under the engines, on a fixed grid seeded
//! from the workload seed: block sampling at the engines' own rates,
//! binomial and multinomial draws, binomial tails, raw RNG words, and the
//! Figure 2 per-node epilogue. Each kernel is timed over a fixed amount of
//! work several times and reported as the median cost per unit.

use std::hint::black_box;
use std::time::Instant;

use rcb_core::one_to_n::{OneToNNode, OneToNParams};
use rcb_core::one_to_one::profile::{DuelProfile, Fig1Profile};
use rcb_mathkit::binom::binomial_tail_gt;
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{binomial_fast, multinomial_into, sample_slots_into};

use crate::stats;
use crate::Metric;

/// Block lengths 2^8 … 2^20.
const LOG_LENS: [u32; 4] = [8, 12, 16, 20];
const REPEATS: usize = 5;

/// (block length, per-slot probability) pairs: the Figure 1 duel rate and
/// the Figure 2 send and listen rates at a fresh rate variable, for each
/// block length taken as an epoch's repetition length.
fn grid() -> Vec<(u64, f64)> {
    let duel = Fig1Profile::with_start_epoch(0.1, 8);
    let bcast = OneToNParams::practical();
    LOG_LENS
        .iter()
        .flat_map(|&i| {
            [
                duel.rate(i),
                bcast.send_prob(i, bcast.s_init),
                bcast.listen_prob(i, bcast.s_init),
            ]
            .map(|p| (1u64 << i, p))
        })
        .collect()
}

/// Median over [`REPEATS`] of nanoseconds per unit of `work`, which
/// returns the units it did.
fn time_per_unit(mut work: impl FnMut() -> u64) -> f64 {
    let mut per_unit: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let units = work();
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    stats::median(&mut per_unit)
}

/// Kernel metrics as (name, value, unit).
pub fn measure(seed: u64) -> Vec<Metric> {
    let grid = grid();
    let mut rng = RcbRng::new(seed);
    let mut buf = Vec::new();

    let sample_slots = time_per_unit(|| {
        let mut events = 0;
        for _ in 0..400 {
            for &(len, p) in &grid {
                sample_slots_into(&mut rng, len, p, &mut buf);
                events += buf.len() as u64;
            }
        }
        events
    });

    let binomial = time_per_unit(|| {
        let mut acc = 0;
        for _ in 0..4_000 {
            for &(len, p) in &grid {
                acc += binomial_fast(&mut rng, len, p);
            }
        }
        black_box(acc);
        4_000 * grid.len() as u64
    });

    // Category weights as the cohort engine draws them: a few heavy
    // categories and a long light tail, renormalised by the sampler.
    let weights: Vec<Vec<f64>> = [4usize, 8, 16]
        .map(|k| (0..k).map(|j| rng.f64() / (1 + j) as f64).collect())
        .into();
    let multinomial = time_per_unit(|| {
        for _ in 0..4_000 {
            for w in &weights {
                multinomial_into(&mut rng, 1 << 14, w, &mut buf);
                black_box(&buf);
            }
        }
        4_000 * weights.len() as u64
    });

    // Tails at the mean and two standard deviations above it.
    let tails: Vec<(u64, u64, f64)> = grid
        .iter()
        .flat_map(|&(len, p)| {
            let mean = len as f64 * p;
            [mean, mean + 2.0 * (mean * (1.0 - p)).sqrt()].map(|k| (len, k as u64, p))
        })
        .collect();
    let tail = time_per_unit(|| {
        let mut acc = 0.0;
        for _ in 0..1_000 {
            for &(n, k, p) in &tails {
                acc += binomial_tail_gt(n, k, p);
            }
        }
        black_box(acc);
        1_000 * tails.len() as u64
    });

    let mut words = vec![0u64; 4096];
    let rng_word = time_per_unit(|| {
        for _ in 0..2_000 {
            rng.fill_u64s(&mut words);
            black_box(&words);
        }
        2_000 * words.len() as u64
    });

    // A seeded (clear slots heard, messages heard) sequence; a node that
    // terminates is re-armed so every call does a full epilogue.
    let params = OneToNParams::practical();
    let heard: Vec<(u64, u64)> = (0..4096)
        .map(|_| (rng.below(64), rng.below(4).saturating_sub(2)))
        .collect();
    let mut node = OneToNNode::new(&params, false);
    let end_repetition = time_per_unit(|| {
        for _ in 0..100 {
            for &(clear, msgs) in &heard {
                node.end_repetition(&params, clear, msgs);
                if node.is_terminated() {
                    node.rearm(&params, false);
                }
            }
        }
        black_box(&node);
        100 * heard.len() as u64
    });

    vec![
        (
            "mathkit.sample_slots_ns_per_event",
            sample_slots,
            "ns/event",
        ),
        ("mathkit.binomial_fast_ns", binomial, "ns/call"),
        ("mathkit.multinomial_ns", multinomial, "ns/call"),
        ("mathkit.binomial_tail_ns", tail, "ns/call"),
        ("mathkit.rng_ns_per_word", rng_word, "ns/word"),
        ("core.end_repetition_ns", end_repetition, "ns/call"),
    ]
}
