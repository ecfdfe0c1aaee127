//! Log-domain binomial pmf/cdf evaluation.
//!
//! The cohort engine classifies a repetition's slots by drawing from
//! conditional binomial distributions whose parameters it derives from
//! closed-form probabilities — "what fraction of slots are clear given the
//! cohort histogram", "what is the chance a node hears more than the helper
//! threshold". Those probabilities are products and tails of binomial pmfs
//! over populations up to 10^6, so everything here works in log space and
//! uses a Stirling-series `ln n!` that stays accurate (≤ 1e-12 relative)
//! across the whole range.

/// Exact `ln(n!)` for small n; Stirling's series beyond the table.
///
/// The series `n·ln n − n + ½·ln(2πn) + 1/(12n) − 1/(360n³)` has absolute
/// error below `1/(1260n⁵)`: 8e-10 at n = 16, below 1e-13 from n = 100.
/// The table covers 0..16 and the series the rest.
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE: [f64; 16] = [
        0.0,
        0.0,
        std::f64::consts::LN_2, // ln 2!
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
        15.104_412_573_075_516,
        17.502_307_845_873_887,
        19.987_214_495_661_885,
        22.552_163_853_123_42,
        25.191_221_182_738_68,
        27.899_271_383_840_89,
    ];
    if n < 16 {
        return TABLE[n as usize];
    }
    let x = n as f64;
    let x2 = x * x;
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x2)
}

/// `ln C(n, k)` — the log binomial coefficient; `-inf` when `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_choose_given(ln_factorial(n), n, k)
}

/// `ln C(n, k)` for `k ≤ n`, given `ln n!` (unused from
/// [`F64_EXACT_INT_BOUND`] on, see [`ln_choose_huge`]).
fn ln_choose_given(ln_n_factorial: f64, n: u64, k: u64) -> f64 {
    if n >= F64_EXACT_INT_BOUND {
        return ln_choose_huge(n, k.min(n - k));
    }
    ln_n_factorial - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln C(n, j)` for `n ≥ 2^53` and `j ≤ n/2`, without subtracting two
/// values the size of `ln n!`.
///
/// Past 2^53, `ln n!` exceeds 3e17 and its ulp is 64 or more, so
/// `ln n! − ln j! − ln(n − j)!` is off by that much even when the result
/// is a few thousand. Stirling's series for `n!` and `m! = (n − j)!`
/// gives instead
/// `ln n! − ln m! = j·ln n − j − (m + ½)·ln(1 − j/n) + 1/(12n) − 1/(12m)`,
/// where the last two terms differ by less than `j/(12·n·m) < 2^-100·j`
/// and are dropped. `ln j!` comes from the table below 16, and from its
/// own series above, where `j·ln n − j − ln j!` is taken as
/// `j·ln(n/j) − ½·ln(2πj) − 1/(12j) + 1/(360j³) − 1/(1260j⁵)` so that
/// `j·ln n` and `j·ln j` never cancel. (The `j⁵` term, which
/// [`ln_factorial`] leaves out, brings the error at `j = 16` from 8e-10
/// to 2e-12.)
fn ln_choose_huge(n: u64, j: u64) -> f64 {
    let (nf, jf) = (n as f64, j as f64);
    let rest = -((n - j) as f64 + 0.5) * (-jf / nf).ln_1p();
    if j < 16 {
        return jf * nf.ln() - jf + rest - ln_factorial(j);
    }
    let j2 = jf * jf;
    jf * (nf / jf).ln() + rest - 0.5 * (2.0 * std::f64::consts::PI * jf).ln() - 1.0 / (12.0 * jf)
        + 1.0 / (360.0 * jf * j2)
        - 1.0 / (1260.0 * jf * j2 * j2)
}

/// `ln P(Binomial(n, p) = k)`.
///
/// `p` outside `(0, 1)` degenerates: the point mass sits at 0 (for
/// `p ≤ 0`/NaN, matching the samplers' documented clamp) or at `n` (for
/// `p ≥ 1`).
pub fn ln_binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    BinomialLn::new(n, p).ln_pmf(k)
}

/// Below this bound every integer converts to `f64` exactly, and so does
/// stepping it by ±1.0. Pmf recurrences over `Binomial(n, ·)` with
/// `n` under it may carry their integer factors as `f64` counters instead
/// of converting them every term, with bit-identical results.
pub const F64_EXACT_INT_BOUND: u64 = 1 << 53;

/// `P(Binomial(n, p) > k)` — the upper tail, evaluated from whichever end
/// of the support is cheaper.
///
/// The pmf is summed by its multiplicative recurrence ([`TailSum`]),
/// starting from the largest term of the summed side and moving away from
/// the mode, until a term can no longer change the sum (below `2^-54` of
/// it). That is at most about 9σ terms (σ = √(n·p·(1−p))), fewer when `k`
/// sits far in a tail: cost grows with σ, not with `k` or `n`. The sum is
/// free of catastrophic cancellation: one term is computed in log space,
/// the rest in linear space relative to it.
pub fn binomial_tail_gt(n: u64, k: u64, p: f64) -> f64 {
    BinomialLn::new(n, p).tail_gt(k)
}

/// `P(Binomial(n, p) ≤ k)`, summed from whichever end of the support is
/// numerically safe.
pub fn binomial_cdf_le(n: u64, k: u64, p: f64) -> f64 {
    BinomialLn::new(n, p).cdf_le(k)
}

/// `Binomial(n, p)` with the log terms every pmf of it shares — `ln n!`,
/// `ln p` and `ln(1−p)` — computed once.
///
/// [`ln_binomial_pmf`], [`binomial_tail_gt`] and [`binomial_cdf_le`] are
/// this type built for one call. A caller that evaluates several pmfs or
/// tails of the same distribution (the cohort engine's split takes a tail
/// and then walks the pmf on from the cut) builds it once; a caller that
/// meets the same `n` under many `p` passes `ln n!` in through
/// [`with_ln_factorial`](Self::with_ln_factorial). Every result is bit
/// for bit the one-call function's: the terms are the same values, used
/// in the same expression order.
#[derive(Debug, Clone, Copy)]
pub struct BinomialLn {
    n: u64,
    p: f64,
    ln_n_factorial: f64,
    ln_p: f64,
    ln_1m_p: f64,
}

impl BinomialLn {
    pub fn new(n: u64, p: f64) -> Self {
        Self::with_ln_factorial(n, ln_factorial(n), p)
    }

    /// The distribution with `ln n!` supplied by the caller; it must be
    /// [`ln_factorial(n)`](ln_factorial).
    pub fn with_ln_factorial(n: u64, ln_n_factorial: f64, p: f64) -> Self {
        debug_assert_eq!(ln_n_factorial.to_bits(), ln_factorial(n).to_bits());
        Self {
            n,
            p,
            ln_n_factorial,
            ln_p: p.ln(),
            ln_1m_p: (-p).ln_1p(),
        }
    }

    /// `ln P(X = k)`; see [`ln_binomial_pmf`].
    pub fn ln_pmf(&self, k: u64) -> f64 {
        let (n, p) = (self.n, self.p);
        if k > n {
            return f64::NEG_INFINITY;
        }
        if p.is_nan() || p <= 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if p >= 1.0 {
            return if k == n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose_given(self.ln_n_factorial, n, k)
            + k as f64 * self.ln_p
            + (n - k) as f64 * self.ln_1m_p
    }

    /// `P(X > k)`; see [`binomial_tail_gt`].
    pub fn tail_gt(&self, k: u64) -> f64 {
        let mut tail = self.tail_sum(k);
        tail.finish();
        tail.tail_gt()
    }

    /// `P(X ≤ k)`; see [`binomial_cdf_le`].
    pub fn cdf_le(&self, k: u64) -> f64 {
        let mut tail = self.tail_sum(k);
        tail.finish();
        tail.cdf_le()
    }

    /// The sum behind [`tail_gt`](Self::tail_gt) and
    /// [`cdf_le`](Self::cdf_le) at `k`, with no term summed yet. Below the
    /// mean it sums the *lower* tail `P(X ≤ k)` downward from `pmf(k)`, at
    /// or above it the upper tail `P(X > k)` upward from `pmf(k + 1)`:
    /// either way from the largest term of the summed side.
    pub fn tail_sum(&self, k: u64) -> TailSum {
        let (n, p) = (self.n, self.p);
        let fixed = |tail: f64| TailSum::fixed(n, tail);
        if p.is_nan() || p <= 0.0 {
            return fixed(0.0);
        }
        if p >= 1.0 {
            return fixed(if k < n { 1.0 } else { 0.0 });
        }
        if k >= n {
            return fixed(0.0);
        }
        if (k as f64) < n as f64 * p {
            TailSum::start(n, TailSide::Lower, self.ln_pmf(k), (1.0 - p) / p, k)
        } else {
            TailSum::start(
                n,
                TailSide::Upper,
                self.ln_pmf(k + 1),
                p / (1.0 - p),
                n - k - 1,
            )
        }
    }
}

/// Which side of the cut a [`TailSum`] adds up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailSide {
    /// `P(X ≤ k)`, summed downward from `pmf(k)`; the tail is `1 − sum`.
    Lower,
    /// `P(X > k)`, summed upward from `pmf(k + 1)`.
    Upper,
    /// A degenerate cut (`p ∉ (0, 1)` or `k ≥ n`): the tail is `first`.
    Fixed,
}

/// Stop once the pending term is below `2^-54` of the sum.
const HALF_ULP_STOP: f64 = 1.0 / (1u64 << 54) as f64;

/// Relative slack of [`TailSum::bounds`]' outward rounding: `2^-36`.
const BOUND_SLACK: f64 = 1.0 + 1.0 / (1u64 << 36) as f64;

/// The largest next factor for which [`TailSum::bounds`] gives a finite
/// upper end: `1 − 2^-10`.
const BOUND_DECAY: f64 = 1.0 - 1.0 / (1u64 << 10) as f64;

/// A binomial tail summed term by term, which can stop and resume.
///
/// The pmf is summed by its multiplicative recurrence, starting from the
/// largest term of the summed side and moving away from the mode: the
/// anchor `first` is one pmf computed in log space, the terms `rel` are
/// relative to it in linear space, so every term lies in `[0, 1]` however
/// far the bulk sits from 0 (an anchor at `pmf(0)` underflows once
/// `n·ln(1−p) < −745` while the relative terms overflow, and `0·∞ = NaN`
/// silently collapsed the whole tail; see the regression test). The
/// recurrence multiplies by `s·a/b`, where `a` (`j` below the mean,
/// `n − j` above) falls by one and `b = n − a + 1` rises by one per term;
/// both are carried as `f64` counters below [`F64_EXACT_INT_BOUND`].
///
/// **Half-ulp stop.** The loop stops when the pending term falls below
/// `2^-54·sum`. This gives the value a loop stopping at any smaller
/// fraction (such as `1e-18`) gives, bit for bit:
///
/// * `sum ≥ 1` (the first term is 1), so `2^-54·sum` is less than half the
///   spacing of floats above `sum`, and adding a term below it rounds
///   back to `sum`.
/// * The factors never increase along the walk: `a` falls, `b` rises and
///   every operation of `s·a/b` is monotone. Were the next factor `≥ 1`,
///   so would be every earlier one, every term so far would be at least 1
///   and at most the pending one, and the float sum of `i` such terms is at
///   most `1.65·i` times the pending term for `i ≤ 2^52`: the stop would
///   need more than `2^52` terms. So the next factor is below 1 and no
///   later term exceeds the pending one. Each is below half an ulp of a
///   sum that therefore never changes.
///
/// **Bracket.** Before it is finished the sum lies in
/// `bounds`: at least the prefix (float adds of
/// non-negative terms never decrease a sum), at most the prefix plus a
/// geometric bound on the rest, rounded outward. Let `g` be the next
/// factor times `1 + 2^-36`; each product rounds up by at most half an
/// ulp, so every later term is at most `rel·gⁱ` (plus, below the normal
/// range, absolute slop far under the slack). With `g ≤ 1 − 2^-10` and the
/// pending term `rel ≤ 2`, a term falls below `2^-54` within 39,041 steps,
/// so at most that many adds remain, each rounding up by at most
/// `2^-53` relative: the finished sum is at most
/// `(prefix + rel/(1 − g))·(1 + 4.4·10^-12)`, inside the `1 + 2^-36` the
/// upper end is scaled by. Past that decay the upper end is `f64::MAX`.
/// The end points go through the same monotone expressions as the value
/// ([`tail_bounds`](Self::tail_bounds)), so a caller whose decision is
/// the same at both ends may take it without finishing the sum.
#[derive(Debug, Clone)]
pub struct TailSum {
    side: TailSide,
    n: u64,
    /// The anchor pmf, `exp` of its log.
    first: f64,
    /// The recurrence's constant: `(1−p)/p` below the mean, `p/(1−p)` above.
    s: f64,
    /// Terms left after the pending one.
    a: u64,
    /// `a` and `n − a + 1` as f64 counters (see `F64_EXACT_INT_BOUND`).
    af: f64,
    bf: f64,
    /// The pending term, relative to `first`, not yet added.
    rel: f64,
    sum: f64,
    terms: u64,
    done: bool,
}

impl TailSum {
    fn fixed(n: u64, tail: f64) -> Self {
        Self {
            side: TailSide::Fixed,
            n,
            first: tail,
            s: 0.0,
            a: 0,
            af: 0.0,
            bf: 0.0,
            rel: 0.0,
            sum: 1.0,
            terms: 0,
            done: true,
        }
    }

    fn start(n: u64, side: TailSide, ln_first: f64, s: f64, a: u64) -> Self {
        let mut sum = Self {
            side,
            n,
            first: ln_first.exp(),
            s,
            a,
            af: a as f64,
            bf: (n - a) as f64 + 1.0,
            rel: 1.0,
            sum: 0.0,
            terms: 0,
            done: false,
        };
        if ln_first == f64::NEG_INFINITY {
            // An empty side: `first` is 0, and so is its probability.
            (sum.sum, sum.done) = (1.0, true);
        }
        sum
    }

    /// Sums up to `budget` more terms, fewer if the sum finishes first.
    #[inline]
    pub fn advance(&mut self, budget: u64) {
        if self.done {
            return;
        }
        let (n, s) = (self.n, self.s);
        let exact = n < F64_EXACT_INT_BOUND;
        let (mut a, mut af, mut bf) = (self.a, self.af, self.bf);
        let (mut rel, mut sum) = (self.rel, self.sum);
        let mut left = budget;
        while left > 0 {
            left -= 1;
            sum += rel;
            if a == 0 {
                self.done = true;
                break;
            }
            if !exact {
                (af, bf) = (a as f64, (n - a + 1) as f64);
            }
            rel *= s * af / bf;
            a -= 1;
            (af, bf) = (af - 1.0, bf + 1.0);
            if rel < HALF_ULP_STOP * sum {
                self.done = true;
                break;
            }
        }
        self.terms += budget - left;
        (self.a, self.af, self.bf, self.rel, self.sum) = (a, af, bf, rel, sum);
    }

    /// Sums every remaining term.
    #[inline]
    pub fn finish(&mut self) {
        self.advance(u64::MAX);
    }

    /// Whether every term is summed: `bounds` is then the
    /// value at both ends.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Terms summed so far.
    #[inline]
    pub fn terms(&self) -> u64 {
        self.terms
    }

    /// The anchor `pmf(k + 1)` when the tail is summed upward from it: the
    /// value `ln_pmf(k + 1).exp()` bit for bit, for a caller that walks the
    /// pmf on from `k + 1`.
    #[inline]
    pub fn anchor(&self) -> Option<f64> {
        (self.side == TailSide::Upper).then_some(self.first)
    }

    /// `[lo, hi]` holding the finished sum of the summed side; see the type
    /// docs.
    #[inline]
    fn bounds(&self) -> (f64, f64) {
        if self.done {
            return (self.sum, self.sum);
        }
        let (a, n) = (self.a, self.n);
        let g = if a == 0 {
            0.0 // only the pending term is left
        } else if n < F64_EXACT_INT_BOUND {
            self.s * self.af / self.bf * BOUND_SLACK
        } else {
            self.s * a as f64 / (n - a + 1) as f64 * BOUND_SLACK
        };
        if g > BOUND_DECAY || self.rel > 2.0 {
            return (self.sum, f64::MAX);
        }
        (self.sum, (self.sum + self.rel / (1.0 - g)) * BOUND_SLACK)
    }

    /// The probability of the summed side, from its sum.
    #[inline]
    fn side_value(&self, sum: f64) -> f64 {
        (self.first * sum).min(1.0)
    }

    /// `[lo, hi]` holding [`tail_gt`](Self::tail_gt)'s finished value; both
    /// ends are that value once the sum is done.
    #[inline]
    pub fn tail_bounds(&self) -> (f64, f64) {
        let (lo, hi) = self.bounds();
        match self.side {
            TailSide::Lower => (1.0 - self.side_value(hi), 1.0 - self.side_value(lo)),
            TailSide::Upper | TailSide::Fixed => (self.side_value(lo), self.side_value(hi)),
        }
    }

    /// `P(X > k)` from the terms summed so far: the tail once the sum is
    /// done.
    pub fn tail_gt(&self) -> f64 {
        debug_assert!(self.done);
        match self.side {
            TailSide::Lower => 1.0 - self.side_value(self.sum),
            TailSide::Upper | TailSide::Fixed => self.side_value(self.sum),
        }
    }

    /// `P(X ≤ k)`, the complement of [`tail_gt`](Self::tail_gt), once the
    /// sum is done.
    pub fn cdf_le(&self) -> f64 {
        debug_assert!(self.done);
        match self.side {
            TailSide::Lower => self.side_value(self.sum),
            TailSide::Upper | TailSide::Fixed => 1.0 - self.side_value(self.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_ln_factorial(n: u64) -> f64 {
        (1..=n).map(|i| (i as f64).ln()).sum()
    }

    #[test]
    fn ln_factorial_matches_brute_force() {
        for n in 0..500u64 {
            let got = ln_factorial(n);
            let want = brute_ln_factorial(n);
            let tol = 1e-10 * want.max(1.0);
            assert!((got - want).abs() < tol, "n {n}: {got} vs {want}");
        }
        // Spot-check deep into the Stirling regime.
        for &n in &[10_000u64, 1_000_000] {
            let got = ln_factorial(n);
            let want = brute_ln_factorial(n);
            assert!((got - want).abs() < 1e-8 * want, "n {n}: {got} vs {want}");
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(1u64, 0.5f64), (10, 0.2), (100, 0.73), (257, 0.01)] {
            let total: f64 = (0..=n).map(|k| ln_binomial_pmf(n, k, p).exp()).sum();
            assert!((total - 1.0).abs() < 1e-10, "n {n} p {p}: {total}");
        }
    }

    #[test]
    fn degenerate_p_is_a_point_mass() {
        assert_eq!(ln_binomial_pmf(10, 0, 0.0), 0.0);
        assert_eq!(ln_binomial_pmf(10, 0, f64::NAN), 0.0);
        assert_eq!(ln_binomial_pmf(10, 3, -0.0), f64::NEG_INFINITY);
        assert_eq!(ln_binomial_pmf(10, 10, 1.0), 0.0);
        assert_eq!(ln_binomial_pmf(10, 9, 1.5), f64::NEG_INFINITY);
        assert_eq!(binomial_tail_gt(10, 3, f64::NAN), 0.0);
        assert_eq!(binomial_cdf_le(10, 3, f64::NAN), 1.0);
        assert_eq!(binomial_tail_gt(10, 3, 1.0), 1.0);
        assert_eq!(binomial_tail_gt(10, 10, 1.0), 0.0);
    }

    #[test]
    fn tail_and_cdf_are_complements() {
        for &(n, p) in &[(20u64, 0.3f64), (100, 0.5), (1000, 0.007), (50, 0.9)] {
            for k in [0u64, 1, n / 4, n / 2, n - 1] {
                let tail = binomial_tail_gt(n, k, p);
                let cdf = binomial_cdf_le(n, k, p);
                assert!(
                    (tail + cdf - 1.0).abs() < 1e-9,
                    "n {n} p {p} k {k}: {tail} + {cdf}"
                );
                assert!((0.0..=1.0).contains(&tail));
            }
        }
    }

    #[test]
    fn tail_matches_brute_force_summation() {
        for &(n, p) in &[(30u64, 0.25f64), (200, 0.04), (64, 0.6)] {
            for k in 0..n {
                let want: f64 = (k + 1..=n).map(|j| ln_binomial_pmf(n, j, p).exp()).sum();
                let got = binomial_tail_gt(n, k, p);
                assert!(
                    (got - want).abs() < 1e-9,
                    "n {n} p {p} k {k}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn tails_survive_pmf_underflow_at_the_support_ends() {
        // Regression: with n·ln(1−p) < −745, pmf(0) underflows to 0 while
        // the term ratios up to the mode overflow; an accumulator anchored
        // at pmf(0) produced 0·∞ = NaN, which `.min(1.0)` silently turned
        // into cdf = 1 and tail = 0 — freezing every cohort whose clear
        // channel was this wide. The threshold here cuts 5σ below the
        // mean, so the true tail is ≈ 1.
        let (n, p) = (8107u64, 0.12808f64);
        let mean = n as f64 * p; // ≈ 1038, ln pmf(0) ≈ −1111
        let sigma = (mean * (1.0 - p)).sqrt();
        let k = (mean - 5.0 * sigma) as u64;
        let tail = binomial_tail_gt(n, k, p);
        assert!(tail > 1.0 - 1e-4, "k {k}: tail {tail}");
        let cdf = binomial_cdf_le(n, k, p);
        assert!(cdf < 1e-4 && cdf > 0.0, "k {k}: cdf {cdf}");
        // And the mirrored regime: k far above a far-from-zero mean.
        let hi = (mean + 5.0 * sigma) as u64;
        let t_hi = binomial_tail_gt(n, hi, p);
        assert!(t_hi < 1e-4 && t_hi > 0.0, "k {hi}: tail {t_hi}");
        assert!(binomial_cdf_le(n, hi, p) > 1.0 - 1e-4);
    }

    /// `ln_binomial_pmf` before [`BinomialLn`], verbatim: every log term
    /// computed per call.
    fn ln_binomial_pmf_reference(n: u64, k: u64, p: f64) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        if p.is_nan() || p <= 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if p >= 1.0 {
            return if k == n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()
    }

    /// `lower_cdf_direct` as it was before its f64 counters, verbatim: the
    /// reference the counter form must match bit for bit.
    fn lower_cdf_reference(n: u64, k: u64, p: f64) -> f64 {
        let ln_top = ln_binomial_pmf_reference(n, k, p);
        if ln_top == f64::NEG_INFINITY {
            return 0.0;
        }
        let s = (1.0 - p) / p;
        let mut rel = 1.0f64;
        let mut sum = 0.0f64;
        let mut j = k;
        loop {
            sum += rel;
            if j == 0 {
                break;
            }
            rel *= s * j as f64 / (n - j + 1) as f64;
            j -= 1;
            if rel < 1e-18 * sum {
                break;
            }
        }
        (ln_top.exp() * sum).min(1.0)
    }

    /// `upper_tail_direct` before its f64 counters, verbatim.
    fn upper_tail_reference(n: u64, k: u64, p: f64) -> f64 {
        let ln_first = ln_binomial_pmf_reference(n, k + 1, p);
        if ln_first == f64::NEG_INFINITY {
            return 0.0;
        }
        let mut rel = 1.0f64;
        let mut sum = 0.0f64;
        let s = p / (1.0 - p);
        let mut j = k + 1;
        loop {
            sum += rel;
            if j >= n {
                break;
            }
            rel *= s * (n - j) as f64 / (j + 1) as f64;
            j += 1;
            if rel < 1e-18 * sum {
                break;
            }
        }
        (ln_first.exp() * sum).min(1.0)
    }

    /// The tail loop summed on either side of `k`, whichever side the mean
    /// would pick: `(P(X ≤ k) summed downward, P(X > k) summed upward)`.
    fn both_sides(b: &BinomialLn, k: u64) -> (f64, f64) {
        let (n, p) = (b.n, b.p);
        let mut lower = TailSum::start(n, TailSide::Lower, b.ln_pmf(k), (1.0 - p) / p, k);
        let mut upper = TailSum::start(
            n,
            TailSide::Upper,
            b.ln_pmf(k + 1),
            p / (1.0 - p),
            n - k - 1,
        );
        lower.finish();
        upper.finish();
        (lower.cdf_le(), upper.tail_gt())
    }

    /// The tail loop, on both sides, against the integer-conversion loops
    /// with the `1e-18` stop at every `k` in `ks` (below `n`), bit for bit:
    /// the f64 counters and the half-ulp stop change no value.
    fn assert_tails_match_reference(n: u64, p: f64, ks: impl IntoIterator<Item = u64>) {
        let b = BinomialLn::new(n, p);
        for k in ks.into_iter().filter(|&k| k < n) {
            let (lo, up) = both_sides(&b, k);
            let lo_ref = lower_cdf_reference(n, k, p);
            assert_eq!(lo.to_bits(), lo_ref.to_bits(), "lower n {n} k {k} p {p:e}");
            let up_ref = upper_tail_reference(n, k, p);
            assert_eq!(up.to_bits(), up_ref.to_bits(), "upper n {n} k {k} p {p:e}");
        }
    }

    /// The cuts below `2^53` that the tail tests sweep: `(n, p, ks)`.
    /// Small n: every cut. Large n, up to 2^40: cuts across the bulk,
    /// with p chosen so σ (and the loop) stays small, and the mirrored
    /// regime with the mass near n.
    fn tail_grid() -> Vec<(u64, f64, Vec<u64>)> {
        let mut grid = Vec::new();
        for n in [1u64, 2, 3, 7, 64, 200] {
            for p in [1e-3, 0.04, 0.3, 0.5, 0.77, 0.999] {
                grid.push((n, p, (0..n).collect()));
            }
        }
        for n in [4096u64, 65_536, 1_000_000, 1 << 32, (1 << 40) - 3, 1 << 40] {
            for mean in [0.5, 4.0, 300.0, 5_000.0] {
                let p = mean / n as f64;
                if p >= 1.0 {
                    continue;
                }
                let sigma = (mean * (1.0 - p)).sqrt();
                let ks = [-12.0, -4.0, -1.0, 0.0, 1.0, 4.0, 12.0, 40.0]
                    .map(|z| (mean + z * sigma).max(0.0) as u64);
                grid.push((n, p, ks.to_vec()));
                grid.push((n, 1.0 - p, ks.map(|k| n.saturating_sub(k + 1)).to_vec()));
            }
        }
        grid
    }

    #[test]
    fn tail_counters_are_bit_identical_to_integer_conversion() {
        for (n, p, ks) in tail_grid() {
            assert_tails_match_reference(n, p, ks);
        }
    }

    #[test]
    fn shared_log_terms_are_bit_identical_to_per_call_terms() {
        // One `BinomialLn` per (n, p), built from a separately computed
        // `ln n!`, serves every cut: its pmfs and tails must equal the
        // per-call formulas bit for bit, on both sides of the mean (the
        // lower-cdf branch anchors at pmf(k), the upper at pmf(k + 1)).
        let (mut below, mut above) = (0, 0);
        for (n, p, ks) in tail_grid() {
            let b = BinomialLn::with_ln_factorial(n, ln_factorial(n), p);
            for k in ks.into_iter().filter(|&k| k < n) {
                for j in [k, k + 1] {
                    let want = ln_binomial_pmf_reference(n, j, p);
                    assert_eq!(
                        b.ln_pmf(j).to_bits(),
                        want.to_bits(),
                        "pmf n {n} j {j} p {p:e}"
                    );
                }
                let want = if (k as f64) < n as f64 * p {
                    below += 1;
                    1.0 - lower_cdf_reference(n, k, p)
                } else {
                    above += 1;
                    upper_tail_reference(n, k, p)
                };
                let got = b.tail_gt(k);
                assert_eq!(got.to_bits(), want.to_bits(), "tail n {n} k {k} p {p:e}");
                let one_call = binomial_tail_gt(n, k, p);
                assert_eq!(one_call.to_bits(), want.to_bits(), "one-call n {n} k {k}");
            }
        }
        assert!(
            below > 100 && above > 100,
            "branches: {below} below, {above} above"
        );
    }

    #[test]
    fn tail_sum_anchor_is_the_walks_first_pmf_bit_for_bit() {
        // Above the mean the tail is summed from pmf(k + 1), which a walk
        // over the upper tail starts from: the anchor handed back must be
        // `ln_pmf(k + 1).exp()` exactly, and the tail `tail_gt(k)`.
        let (mut below, mut above) = (0, 0);
        for (n, p, ks) in tail_grid() {
            let b = BinomialLn::new(n, p);
            for k in ks.into_iter().filter(|&k| k < n) {
                let mut tail = b.tail_sum(k);
                tail.finish();
                assert_eq!(
                    tail.tail_gt().to_bits(),
                    b.tail_gt(k).to_bits(),
                    "n {n} k {k} p {p:e}"
                );
                match tail.anchor() {
                    None => {
                        assert!((k as f64) < n as f64 * p, "n {n} k {k} p {p:e}");
                        below += 1;
                    }
                    Some(pmf) => {
                        let want = b.ln_pmf(k + 1).exp();
                        assert_eq!(pmf.to_bits(), want.to_bits(), "n {n} k {k} p {p:e}");
                        above += 1;
                    }
                }
            }
        }
        assert!(
            below > 100 && above > 100,
            "branches: {below} below, {above} above"
        );
        for (n, p, k, tail) in [(10, 0.0, 3, 0.0), (10, 1.0, 3, 1.0), (10, 0.5, 10, 0.0)] {
            let sum = BinomialLn::new(n, p).tail_sum(k);
            assert!(sum.is_done() && sum.anchor().is_none(), "n {n} p {p} k {k}");
            assert_eq!(sum.tail_bounds(), (tail, tail), "n {n} p {p} k {k}");
        }
    }

    /// Random `(n, p, k)` for the tail tests: `n` log-uniform up to 2^40
    /// (an eighth of them past 2^53), the mean log-uniform in
    /// `[10^-3, 10^4]` on either end of the support, `k` within ±15σ.
    fn random_cut(rng: &mut crate::rng::RcbRng) -> (u64, f64, u64) {
        let n = if rng.below(8) == 0 {
            F64_EXACT_INT_BOUND + rng.below(1 << 20) * rng.below(1 << 40)
        } else {
            (2f64.powf(40.0 * rng.f64()) as u64).max(1)
        };
        let mean = 10f64.powf(7.0 * rng.f64() - 3.0).min(n as f64 / 2.0);
        let p = mean / n as f64;
        let sigma = (mean * (1.0 - p)).sqrt();
        let k = ((mean + (30.0 * rng.f64() - 15.0) * sigma).max(0.0) as u64).min(n - 1);
        if rng.below(2) == 0 {
            (n, p, k)
        } else {
            (n, 1.0 - p, n - 1 - k)
        }
    }

    #[test]
    fn half_ulp_stop_matches_the_1e_18_loops_on_random_cuts() {
        let mut rng = crate::rng::RcbRng::new(2014);
        for _ in 0..100_000 {
            let (n, p, k) = random_cut(&mut rng);
            assert_tails_match_reference(n, p, [k]);
        }
    }

    #[test]
    fn tail_bounds_hold_the_finished_tail_at_every_term() {
        // Summed one term at a time, the bracket must contain the value
        // the finished loop returns, and be that value once done.
        let mut rng = crate::rng::RcbRng::new(27);
        let mut cuts: Vec<(u64, f64, u64)> = tail_grid()
            .into_iter()
            .flat_map(|(n, p, ks)| {
                ks.into_iter()
                    .filter(move |&k| k < n)
                    .map(move |k| (n, p, k))
            })
            .collect();
        cuts.extend((0..20_000).map(|_| random_cut(&mut rng)));
        let (mut strict, mut total) = (0u64, 0u64);
        for (n, p, k) in cuts {
            let b = BinomialLn::new(n, p);
            let want = b.tail_gt(k);
            let mut tail = b.tail_sum(k);
            loop {
                let (lo, hi) = tail.tail_bounds();
                assert!(
                    lo <= want && want <= hi,
                    "n {n} p {p:e} k {k}: {lo} {want} {hi}"
                );
                total += 1;
                strict += u64::from(lo < hi && hi < 1.0 && lo > 0.0);
                if tail.is_done() {
                    assert_eq!(
                        (lo.to_bits(), hi.to_bits()),
                        (want.to_bits(), want.to_bits())
                    );
                    break;
                }
                tail.advance(1);
            }
        }
        assert!(
            strict * 4 > total,
            "{strict} of {total} brackets were proper"
        );
    }

    #[test]
    fn tail_counters_fall_back_to_integer_conversion_at_2_pow_53() {
        // At n ≥ 2^53 a counter stepped by ±1.0 drifts from the converted
        // integer (2^53 + 1.0 rounds back to 2^53), so the loops must
        // convert. Without the guard these cases differ in both loops.
        let b = F64_EXACT_INT_BOUND;
        for n in [
            b - 50,
            b,
            b + 1,
            b + 3,
            b + 1000,
            2 * b + 7,
            (1 << 60) + 12345,
            u64::MAX,
        ] {
            for mean in [3.0, 300.0, 3e4] {
                let p = mean / n as f64;
                let sigma = mean.sqrt();
                let ks = [-4.0, -1.0, 0.0, 1.0, 4.0].map(|z| (mean + z * sigma).max(0.0) as u64);
                assert_tails_match_reference(n, p, ks);
                assert_tails_match_reference(n, 1.0 - p, ks.map(|k| n - k - 1));
            }
        }
    }

    /// `ln C(n, k)` as the sum of its factors' logs, `Σ_{i<k} ln((n − i)/(k − i))`.
    fn ln_choose_by_factors(n: u64, k: u64) -> f64 {
        (0..k).map(|i| ((n - i) as f64 / (k - i) as f64).ln()).sum()
    }

    #[test]
    fn ln_choose_past_2_pow_53_avoids_the_factorial_cancellation() {
        // Against the factor sum for small k on either end of the support,
        // and, further in, against the one-step ratio
        // `ln C(n, k + 1) − ln C(n, k) = ln((n − k)/(k + 1))`, which the
        // `ln n! − ln k! − ln(n − k)!` form misses by hundreds.
        for n in [
            F64_EXACT_INT_BOUND,
            F64_EXACT_INT_BOUND + 1,
            249_194_851_773_808_880,
            (1 << 62) + 12_345,
            u64::MAX,
        ] {
            for k in [0u64, 1, 2, 15, 16, 17, 100, 629, 5_000] {
                let want = ln_choose_by_factors(n, k);
                let tol = 1e-13 * want.max(1.0);
                for got in [ln_choose(n, k), ln_choose(n, n - k)] {
                    assert!((got - want).abs() <= tol, "n {n} k {k}: {got} vs {want}");
                }
            }
            for k in [15u64, 1 << 20, 1 << 30, 1 << 40] {
                let at_k = ln_choose(n, k);
                let step = ln_choose(n, k + 1) - at_k;
                let want = ((n - k) as f64 / (k + 1) as f64).ln();
                let tol = 16.0 * (at_k.next_up() - at_k) + 1e-12;
                assert!((step - want).abs() <= tol, "n {n} k {k}: {step} vs {want}");
            }
        }
    }

    #[test]
    fn tails_past_2_pow_53_match_a_slow_sum() {
        // Mean 637.7, σ ≈ 25: the tail above 629 is about 0.63. With
        // `ln C(n, k)` taken as a difference of `ln n!`-sized values, it
        // read 1.0 and pmf(630) underflowed to 0. The reference sums
        // pmf(k) = C(n, k)·p^k·(1 − p)^(n − k) over k ≤ mean + 50σ, the
        // log coefficient built up factor by factor.
        let (n, p, t) = (249_194_851_773_808_880u64, 2.559e-15f64, 629u64);
        let ln_pmf_slow =
            |k: u64, ln_c: f64| ln_c + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p();
        let (mut ln_c, mut want) = (0.0, 0.0);
        for k in 0..=2_000u64 {
            if k == t + 1 {
                let got = BinomialLn::new(n, p).ln_pmf(k);
                assert!(
                    (got - ln_pmf_slow(k, ln_c)).abs() < 1e-9,
                    "ln pmf({k}) {got}"
                );
            }
            if k > t {
                want += ln_pmf_slow(k, ln_c).exp();
            }
            ln_c += ((n - k) as f64 / (k + 1) as f64).ln();
        }
        let got = binomial_tail_gt(n, t, p);
        assert!((0.6..0.7).contains(&want), "reference {want}");
        assert!((got - want).abs() < 1e-9, "tail {got} vs {want}");
    }

    #[test]
    fn large_population_tails_stay_finite_and_monotone() {
        // The helper rule at n = 10^6: threshold cuts far below the mean
        // and far above it must both behave.
        let n = 1_000_000u64;
        let p = 2e-4; // mean 200
        let mut prev = 1.0;
        for k in [0u64, 50, 150, 200, 250, 400, 1000] {
            let t = binomial_tail_gt(n, k, p);
            assert!(t.is_finite() && (0.0..=1.0).contains(&t), "k {k}: {t}");
            assert!(t <= prev + 1e-12, "tail must be non-increasing in k");
            prev = t;
        }
        assert!(binomial_tail_gt(n, 0, p) > 1.0 - 1e-12);
        assert!(binomial_tail_gt(n, 1000, p) < 1e-100);
    }
}
