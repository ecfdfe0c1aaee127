//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by 10–35% over
//! tens of seconds as other tenants come and go; a bound tight enough to
//! catch a regression cannot hold across that drift. So every timed
//! interval is bracketed by a fixed *reference loop* — the benchmark's own
//! code, never the simulator's — and its wall time is converted to
//! *reference time*: wall × ([`NOMINAL_S`] ÷ the reference loop's duration
//! measured around that interval). On a quiet reference host the factor is
//! about 1. A change to the simulator cannot change the reference loop, so
//! it moves reference time exactly as it moves wall time.
//!
//! The loop mixes what the simulator's hot paths do: integer RNG mixing, a
//! data-dependent walk over a table that fits in L2, a branch that depends
//! on the data, and a logarithm.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Entries in the reference loop's table (64 KiB).
const TABLE_LEN: usize = 1 << 13;
/// Iterations of one sub-run of the reference loop.
const ITERS: u64 = 400_000;
/// Sub-runs per calibration; the calibration is their median.
const SUB_RUNS: usize = 5;
/// Duration of one sub-run on the reference host (a 2.0 GHz Xeon vCPU of
/// a quiet host), in seconds: there, reference time is about wall time.
pub const NOMINAL_S: f64 = 0.0034;

/// The reference loop and its table.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x5EED_CA11_B4A7_E000u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x >> 11
            })
            .collect();
        Reference { table }
    }

    fn run(&self, iters: u64) -> f64 {
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut i = 0usize;
        let mut acc = 0.0f64;
        for _ in 0..iters {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x ^ self.table[i];
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            i = (z >> 7) as usize & mask;
            let u = ((z >> 11) as f64 + 1.0) * (1.0 / 9_007_199_254_740_993.0);
            if z & 3 == 0 {
                acc += u.ln();
            } else {
                acc -= u;
            }
        }
        acc
    }

    /// One calibration: the median duration of [`SUB_RUNS`] sub-runs, in
    /// seconds. Takes about `SUB_RUNS × NOMINAL_S`.
    pub fn measure(&self) -> f64 {
        let mut times: Vec<f64> = (0..SUB_RUNS)
            .map(|_| {
                let start = Instant::now();
                black_box(self.run(black_box(ITERS)));
                start.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&mut times)
    }

    /// One calibration on each of `threads` threads at once; their mean.
    /// A pass on a worker pool runs on every CPU it is given, and the
    /// host slows the CPUs unevenly, so the calibration samples them all.
    /// A single thread calibrates on the calling thread, where a serial
    /// pass runs.
    pub fn measure_on(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.measure();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| self.measure())).collect();
            let total: f64 = handles
                .into_iter()
                .map(|h| h.join().expect("the reference loop does not panic"))
                .sum();
            total / threads as f64
        })
    }
}

/// Converts a wall time to reference time, given the calibrations taken
/// just before and just after it.
pub fn to_reference(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * NOMINAL_S / (0.5 * (before_s + after_s))
}
