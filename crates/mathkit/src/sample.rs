//! Exact samplers for the distributions the simulation engines draw from.
//!
//! The central object is the *Bernoulli process over a block of `n` slots*:
//! a node that sends with probability `p` in each of `n` slots produces a
//! random subset of slots. The fast 1-to-n engine needs that subset sampled
//! in time proportional to its (typically tiny) size, not to `n`. We use
//! geometric skips: the gap to the next success is `Geometric(p)`, the
//! floor of `ln U / ln(1−p)` for one uniform `U`, so the whole subset costs
//! `O(np + 1)` expected work and is *exactly* distributed as per-slot coin
//! flips. Each skip's floor is read off a table bracket of `ln U`; the `ln`
//! itself runs only when the bracket straddles an integer (DESIGN.md §9).

use crate::rng::RcbRng;

/// A single biased coin flip.
#[inline]
pub fn bernoulli(rng: &mut RcbRng, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.f64() < p
    }
}

/// Number of failures before the first success of a `p`-coin
/// (support `0, 1, 2, …`): one geometric skip, `⌊ln U / ln(1−p)⌋` for one
/// uniform `U`.
///
/// Returns `u64::MAX` when `p` is so small the skip overflows — callers use
/// the value as "skip past the end of the block", so saturation is correct.
/// Out-of-domain `p` (≤ 0, `−0.0`, or NaN) is clamped to the same saturated
/// value in every build profile: a coin that never lands heads.
#[inline]
pub fn geometric_failures(rng: &mut RcbRng, p: f64) -> u64 {
    // Domain guard, active in every build profile (this used to be a
    // debug_assert, which vanished in release and let NaN reach the
    // inversion): a coin that never succeeds — p ≤ 0, −0.0, or NaN — skips
    // past any block, which is what the saturated value means to every
    // caller. NaN fails `p > 0.0`, so it cannot fall through and divide by
    // ln(1) = 0.
    if p.is_nan() || p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 0;
    }
    GeometricSkip::new(p).draw(rng)
}

/// Mantissa bits that pick a bucket of [`LN_MANTISSA_EDGES`].
const SKIP_BUCKET_BITS: u32 = 11;

/// Buckets `[1 + j/B, 1 + (j+1)/B)` of a uniform's mantissa, `B = 2^11`.
const SKIP_BUCKETS: usize = 1 << SKIP_BUCKET_BITS;

/// Relative margin δ that [`GeometricSkip`]'s bracket adds on each side:
/// libm's `ln` may be off from `ln` by up to about δ (a correctly rounded
/// one is off by 2⁻⁵³), and the bracket still holds the exact expression's
/// quotient. DESIGN.md §9 has the proof.
const SKIP_MARGIN: f64 = 4e-9;

/// `ln(1 + j/B)` for `j = 0..=B`: the edges of the mantissa buckets, in
/// 16 KiB. Computed at compile time by [`ln_1p_series`], so no libm enters
/// the table; the last edge is exactly [`std::f64::consts::LN_2`], the same
/// value as `LN_POW2[1]`.
static LN_MANTISSA_EDGES: [f64; SKIP_BUCKETS + 1] = {
    let mut t = [0.0; SKIP_BUCKETS + 1];
    let mut j = 1;
    while j < SKIP_BUCKETS {
        t[j] = ln_1p_series(j as f64 / SKIP_BUCKETS as f64);
        j += 1;
    }
    t[SKIP_BUCKETS] = std::f64::consts::LN_2;
    t
};

/// `k·ln 2` for `k = 0..64`, rounded once from [`std::f64::consts::LN_2`].
/// A uniform `u ≥ 2⁻⁵³` reads entry `k ≤ 53` for `u ∈ [2⁻ᵏ, 2¹⁻ᵏ)`.
static LN_POW2: [f64; 64] = {
    let mut t = [0.0; 64];
    let mut k = 1;
    while k < 64 {
        t[k] = k as f64 * std::f64::consts::LN_2;
        k += 1;
    }
    t
};

/// `ln(1 + x)` for `x ∈ [0, 1]` in basic float operations alone:
/// `2·(s + s³/3 + s⁵/5 + …)` with `s = x/(2 + x) ≤ ⅓`, summed until a term
/// no longer moves the sum. Each term is below a ninth of the one before,
/// so the result is within a few ulp of `ln(1 + x)`
/// (`skip_table_is_within_2_pow_minus_50_of_ln_1p` measures it against
/// libm).
const fn ln_1p_series(x: f64) -> f64 {
    let s = x / (2.0 + x);
    let s2 = s * s;
    let mut power = s;
    let mut sum = s;
    let mut k = 3.0;
    loop {
        power *= s2;
        let next = sum + power / k;
        if next == sum {
            return 2.0 * sum;
        }
        sum = next;
        k += 2.0;
    }
}

/// The geometric skip `⌊ln U / ln(1−p)⌋` at one `p ∈ (0, 1)`, with the
/// per-`p` values computed once: the one copy of the skip behind
/// [`sample_slots_into`], [`binomial`] and [`geometric_failures`].
///
/// The exact skip is `(fl(ln u) / d) as u64` with `u = 1 − rng.f64()` and
/// `d = fl(ln(1−p))`, taken by the saturating cast alone: for every `f64`
/// it equals `floor` followed by the cast (truncation is `floor` for
/// `x ≥ 0`; NaN, −0.0 and negatives give 0; `x ≥ 2^64` and +∞ give
/// `u64::MAX`, the "past any block" value). [`at`](Self::at) decides that
/// floor from a bracket of `−ln u`: `u = 2⁻ᵏ·m` with `m ∈ [1, 2)` in
/// bucket `j`, so `−ln u ∈ [k·ln 2 − ln(1 + (j+1)/B), k·ln 2 − ln(1 + j/B)]`
/// (the lower end clamped at 0), scaled by `1/|d|` widened by δ on each
/// side. When the bracket's two ends have the same floor it is the skip;
/// otherwise the exact expression runs from the same `u` (1.15% of the
/// skips on the `random` n = 64 fast-path pin, counted by `census`).
/// The RNG words consumed are the same either way (DESIGN.md §9).
#[derive(Debug, Clone, Copy)]
struct GeometricSkip {
    /// `ln(1−p)`, exactly `(-p).ln_1p()`: the exact expression's divisor.
    denom: f64,
    /// `(1/|d|)·(1 − δ)`.
    scale_lo: f64,
    /// `(1/|d|)·(1 + δ)`.
    scale_hi: f64,
}

impl GeometricSkip {
    /// The skip at `p ∈ (0, 1)`.
    #[inline]
    fn new(p: f64) -> Self {
        debug_assert!(p > 0.0 && p < 1.0, "skip probability {p}");
        let denom = (-p).ln_1p();
        let inverse = -1.0 / denom;
        Self {
            denom,
            scale_lo: inverse * (1.0 - SKIP_MARGIN),
            scale_hi: inverse * (1.0 + SKIP_MARGIN),
        }
    }

    /// One skip, drawing one word.
    #[inline(always)]
    fn draw(&self, rng: &mut RcbRng) -> u64 {
        // U in (0,1]: use 1 - f64() so ln() is finite.
        self.at(1.0 - rng.f64())
    }

    /// The successes of `n` `p`-coins, in order, each handed to `hit`: one
    /// skip per success and one past the block.
    #[inline(always)]
    fn walk(&self, rng: &mut RcbRng, n: u64, mut hit: impl FnMut(u64)) {
        let mut pos = 0u64;
        loop {
            pos = match pos.checked_add(self.draw(rng)) {
                Some(v) if v < n => v,
                _ => return,
            };
            hit(pos);
            pos += 1;
        }
    }

    /// The skip at `u ∈ [2⁻⁶³, 1]`, bit for bit `(fl(ln u) / d) as u64`:
    /// decided by the bracket, or by the exact expression when the bracket
    /// straddles an integer. [`draw`](Self::draw)'s `u` is a multiple of
    /// 2⁻⁵³, so its biased exponent lies in `970..=1023`.
    #[inline(always)]
    fn at(&self, u: f64) -> u64 {
        let (lo, hi) = self.bracket(u);
        // `hi` lies in [0, +∞] (`LN_POW2[k] ≥ LN_MANTISSA_EDGES[j]`), or is
        // NaN where `1/|d|` overflows and u = 1. Below 2⁶³ the signed
        // conversions truncate and round back exactly as the unsigned ones
        // do, in one instruction each on baseline x86-64, which has no
        // unsigned ones; at or above 2⁶³, +∞ and NaN the saturating `u64`
        // cast still applies. The guard compares bit patterns, which order
        // like the values from +0.0 up and exceed 2⁶³'s for every negative
        // value and NaN: it admits exactly [+0.0, 2⁶³).
        let (skip, decided) = if hi.to_bits() < TWO_POW_63.to_bits() {
            // SAFETY: the guard holds `hi` in [+0.0, 2⁶³): finite, and its
            // truncation fits in an `i64`. (The safe `as i64` keeps a
            // saturation branch and a NaN branch that the guard makes dead;
            // it cost 13% of `duel_sweep`'s throughput, DESIGN.md §9.)
            let skip: i64 = unsafe { hi.to_int_unchecked() };
            (skip as u64, skip as f64 <= lo)
        } else {
            let skip = hi as u64;
            (skip, skip as f64 <= lo)
        };
        #[cfg(debug_assertions)]
        census::count(decided);
        if decided {
            skip
        } else {
            self.exact(u)
        }
    }

    /// The bracket `[lo, hi]` of the exact quotient at `u`, the same
    /// `u` range as [`at`](Self::at).
    #[inline(always)]
    fn bracket(&self, u: f64) -> (f64, f64) {
        let bits = u.to_bits();
        let ln_pow = LN_POW2[(1023 - (bits >> 52)) as usize & 63];
        let j = (bits >> (52 - SKIP_BUCKET_BITS)) as usize & (SKIP_BUCKETS - 1);
        let gap = ln_pow - LN_MANTISSA_EDGES[j + 1];
        let lo = if gap > 0.0 { gap } else { 0.0 } * self.scale_lo;
        (lo, (ln_pow - LN_MANTISSA_EDGES[j]) * self.scale_hi)
    }

    /// The exact expression, for the skips the bracket straddles: cold and
    /// out of line, so a decided skip falls straight through and the `ln`
    /// call, with the spills and constant reloads around it, sits off the
    /// hot loop's path.
    #[cold]
    #[inline(never)]
    fn exact(&self, u: f64) -> u64 {
        (u.ln() / self.denom) as u64
    }
}

/// 2⁶³, the first `f64` that `as i64` saturates.
const TWO_POW_63: f64 = (1u64 << 63) as f64;

/// Geometric skips taken on this thread, in debug builds only: a witness
/// that the bracket fires, which no checksum can show (the exact
/// expression gives the same values). Every skip of every debug build pays
/// for the count (a thread-local read and write), tests and debug runs of
/// the engines alike; release builds do not count.
#[cfg(debug_assertions)]
pub mod census {
    use std::cell::Cell;

    thread_local! {
        static SKIPS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    pub(super) fn count(decided: bool) {
        SKIPS.with(|c| {
            let mut s = c.get();
            s[usize::from(!decided)] += 1;
            c.set(s);
        });
    }

    /// The skips drawn on this thread since the last call, as
    /// `[decided by the bracket, straddled by it and taken by the exact
    /// expression]`; resets them.
    pub fn take() -> [u64; 2] {
        SKIPS.with(|c| c.replace([0; 2]))
    }
}

/// Exact `Binomial(n, p)` sample in `O(np + 1)` expected time via geometric
/// skips. This is exact (not an approximation): it counts the successes of
/// `n` independent `p`-coins.
///
/// Out-of-domain `p` is clamped: anything that is not a positive
/// probability — `p ≤ 0`, `−0.0`, or NaN — yields 0 successes, and `p ≥ 1`
/// yields `n`. The NaN case matters: it used to fall through both guards
/// (NaN fails `<=` and `>=` alike) into the skip loop, where `NaN as u64`
/// is 0 and every skip landed on a "success" — a silent `n` from a
/// poisoned probability.
pub fn binomial(rng: &mut RcbRng, n: u64, p: f64) -> u64 {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mut successes = 0u64;
    GeometricSkip::new(p).walk(rng, n, |_| successes += 1);
    successes
}

/// Below this expected count, [`binomial_fast`] uses BINV inversion; at or
/// above it, the BTPE rejection sampler. The crossover follows
/// Kachitvichyanukul & Schmeiser (1988): BTPE's setup cost only pays off
/// once the distribution is wide enough for its triangle to catch most of
/// the mass.
const BTPE_THRESHOLD: f64 = 10.0;

/// Exact `Binomial(n, p)` sample in **O(1) amortised** time, independent of
/// `n` and `p`.
///
/// [`binomial`] costs `O(np)` — and, worse, stays `O(np)` when `p > ½`
/// (`n = 10^6`, `p = 0.9` walks ~900k geometric skips). This sampler fixes
/// both asymmetries without touching the existing function, so every RNG
/// stream already pinned by committed BENCH checksums stays bit-identical:
///
/// * **Complement split:** for `p > ½` it draws `n − Binomial(n, 1 − p)`,
///   which is the same distribution (count failures instead of successes).
/// * **Small mean:** `n·min(p, 1−p) < 10` uses BINV — textbook CDF
///   inversion from the `(1−p)^n` atom upward, `O(np)` but with `np < 10`.
/// * **Large mean:** the BTPE rejection algorithm of Kachitvichyanukul &
///   Schmeiser ("Binomial random variate generation", CACM 31(2), 1988):
///   a triangle/parallelogram/exponential-tail envelope over the scaled
///   pmf with a squeeze step, accepting in `O(1)` expected draws.
///
/// Both branches sample the exact binomial law (BTPE's final acceptance
/// compares against the true pmf via a Stirling-series `ln n!`), so this is
/// a faster sampler, not an approximation. For `n` beyond 2^53 the f64
/// parameterisation of the pmf rounds `n`; the resulting relative error is
/// ~1e-16, far below anything the engines can observe.
///
/// Out-of-domain `p` follows the same documented clamp as [`binomial`]:
/// non-positive or NaN → 0, `p ≥ 1` → `n`.
pub fn binomial_fast(rng: &mut RcbRng, n: u64, p: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    match FastBranch::of(p) {
        FastBranch::Zero => 0,
        FastBranch::All => n,
        // Complement split: sample the rarer outcome.
        FastBranch::Complement(r) => n - binomial_fast_half(rng, n, r),
        FastBranch::Direct(r) => binomial_fast_half(rng, n, r),
    }
}

/// The branch [`binomial_fast`] takes on `p`, before it draws anything.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FastBranch {
    /// `p ≤ 0` or NaN: no success, no draw.
    Zero,
    /// `p ≥ 1`: all successes, no draw.
    All,
    /// `0 < p ≤ ½`: sample with `p` itself.
    Direct(f64),
    /// `½ < p < 1`: sample the failures, with `1 − p`.
    Complement(f64),
}

impl FastBranch {
    #[inline(always)]
    fn of(p: f64) -> Self {
        if p.is_nan() || p <= 0.0 {
            FastBranch::Zero
        } else if p >= 1.0 {
            FastBranch::All
        } else if p > 0.5 {
            FastBranch::Complement(1.0 - p)
        } else {
            FastBranch::Direct(p)
        }
    }

    /// The result of `binomial_fast(rng, 1, p)` whose first uniform is
    /// `u`, when [`binv_one`] reads it off `u` alone.
    #[inline(always)]
    fn decided(self, u: f64) -> Option<u64> {
        match self {
            FastBranch::Zero => Some(0),
            FastBranch::All => Some(1),
            FastBranch::Direct(r) => binv_one_decided(r, u),
            FastBranch::Complement(r) => binv_one_decided(r, u).map(|x| 1 - x),
        }
    }

    #[inline]
    fn same_branch(self, other: Self) -> bool {
        std::mem::discriminant(&self) == std::mem::discriminant(&other)
    }
}

/// One `binomial_fast(rng, 1, p)` draw for a `p` known only to lie in an
/// interval, which the caller narrows until the draw is decided.
///
/// [`decide`](Self::decide) evaluates `binomial_fast`'s branch and, when
/// it draws, `binv_one`'s tests at both ends of the interval, with the
/// uniform the draw would take. The outcome is monotone in `p` within a
/// branch (each test compares `u` with a monotone function of `p`, and
/// `1 − p` is monotone), so when both ends agree on branch and result,
/// every `p` between them gives that result. Otherwise the caller narrows
/// the interval and asks again; the uniform, once drawn, is kept. Given
/// the exact `p` at last, [`exact`](Self::exact) finishes the draw as
/// `binomial_fast` would from that uniform. Either way the generator
/// moves exactly as `binomial_fast(rng, 1, p)` moves it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoinBetween {
    u: Option<f64>,
}

impl CoinBetween {
    /// The draw's result if every `p` in `[lo, hi]` gives the same one;
    /// `None` if the interval must narrow first.
    #[inline(always)]
    pub fn decide(&mut self, rng: &mut RcbRng, lo: f64, hi: f64) -> Option<u64> {
        let (at_lo, at_hi) = (FastBranch::of(lo), FastBranch::of(hi));
        if !at_lo.same_branch(at_hi) {
            return None;
        }
        let u = self.uniform(rng, at_lo);
        // Within a branch the result only grows with `p`: a 0 at `hi` is a
        // 0 everywhere below it, a 1 at `lo` a 1 everywhere above.
        match at_hi.decided(u)? {
            0 => Some(0),
            _ => (at_lo.decided(u) == Some(1)).then_some(1),
        }
    }

    /// Whether the draw is 0 for every `p ∈ (0, p_up]`, from one test at
    /// `p_up`.
    ///
    /// For `0 < p_up ≤ ½` every such `p` takes `binomial_fast`'s direct
    /// branch, which draws the uniform, and `binv_one` returns 0 below
    /// `fl(1 − p)·(1 − δ)`: a threshold that only falls as `p` grows, so a
    /// uniform below it at `p_up` is below it at every smaller `p`. When
    /// this returns `false` the uniform, if drawn, is kept: the caller goes
    /// on with [`decide`](Self::decide) or [`exact`](Self::exact) on
    /// probabilities inside `(0, p_up]`, which reuse it.
    #[inline(always)]
    pub fn zero_up_to(&mut self, rng: &mut RcbRng, p_up: f64) -> bool {
        if !(p_up > 0.0 && p_up <= 0.5) {
            return false;
        }
        let u = self.uniform(rng, FastBranch::Direct(p_up));
        binv_one_decided(p_up, u) == Some(0)
    }

    /// `binomial_fast(rng, 1, p)`, continued from the uniform already
    /// drawn, if any.
    #[inline]
    pub fn exact(&mut self, rng: &mut RcbRng, p: f64) -> u64 {
        let branch = FastBranch::of(p);
        let u = self.uniform(rng, branch);
        match branch {
            FastBranch::Zero => 0,
            FastBranch::All => 1,
            FastBranch::Direct(r) => binv_one(rng, r, u),
            FastBranch::Complement(r) => 1 - binv_one(rng, r, u),
        }
    }

    /// The draw's uniform, drawn on first need: only a branch that samples
    /// draws one.
    #[inline(always)]
    fn uniform(&mut self, rng: &mut RcbRng, branch: FastBranch) -> f64 {
        match branch {
            FastBranch::Zero | FastBranch::All => 0.0,
            FastBranch::Direct(_) | FastBranch::Complement(_) => {
                *self.u.get_or_insert_with(|| rng.f64())
            }
        }
    }
}

/// [`binomial_fast`] after the complement split: `0 < p ≤ ½`.
fn binomial_fast_half(rng: &mut RcbRng, n: u64, p: f64) -> u64 {
    if (n as f64) * p < BTPE_THRESHOLD {
        binomial_binv(rng, n, p)
    } else {
        binomial_btpe(rng, n, p)
    }
}

/// BINV: CDF inversion from the zero atom upward (`np < 10`, `p ≤ ½`).
fn binomial_binv(rng: &mut RcbRng, n: u64, p: f64) -> u64 {
    let u = rng.f64();
    if n == 1 {
        binv_one(rng, p, u)
    } else {
        binv_from(rng, n, p, u)
    }
}

/// Half-width δ of [`binv_one`]'s rounding band. The loop's
/// `f0 = exp(ln q)` is within a few ulp of `q` for `q ∈ [½, 1]`; δ is
/// about seven orders of magnitude wider.
const BINV_ONE_BAND: f64 = 1e-9;

/// BINV at `n = 1` (a Bernoulli draw), given the first uniform `u`.
///
/// The loop returns 0 when `u < f0`, and 1 when `u − f0 < f0·(p/q)`, a
/// product whose `q` cancels to `p` up to a few ulp; otherwise it redraws.
/// Below `q(1−δ)` the first test passes and in `(q(1+δ), 1−δ)` the second
/// does, whatever rounding put `f0` near `q`. Only in the band (chance
/// about 3δ) does the loop run, from the same `u`: the result and the
/// RNG words consumed are those of [`binv_from`], without its `ln`/`exp`.
#[inline]
fn binv_one(rng: &mut RcbRng, p: f64, u: f64) -> u64 {
    binv_one_decided(p, u).unwrap_or_else(|| binv_from(rng, 1, p, u))
}

/// [`binv_one`]'s result when `u` lies outside the rounding band; `None`
/// inside it, where the loop decides.
#[inline(always)]
fn binv_one_decided(p: f64, u: f64) -> Option<u64> {
    let q = 1.0 - p;
    if u < q * (1.0 - BINV_ONE_BAND) {
        Some(0)
    } else if q * (1.0 + BINV_ONE_BAND) < u && u < 1.0 - BINV_ONE_BAND {
        Some(1)
    } else {
        None
    }
}

/// The BINV loop from an already-drawn first uniform `u`.
fn binv_from(rng: &mut RcbRng, n: u64, p: f64, mut u: f64) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let s = p / q;
    let f0 = (nf * q.ln()).exp(); // P(X = 0); np < 10 keeps this ≫ f64::MIN
    loop {
        let mut f = f0;
        let mut x = 0u64;
        loop {
            if u < f {
                return x;
            }
            if x >= n {
                break; // f64 rounding ate the tail mass: redraw
            }
            u -= f;
            x += 1;
            f *= s * (nf - (x - 1) as f64) / x as f64;
        }
        u = rng.f64();
    }
}

/// BTPE (Kachitvichyanukul & Schmeiser 1988) for `p ≤ ½`, `np ≥ 10`.
///
/// Region probabilities `p1..p4` cover: the central triangle (accepted
/// outright), the parallelogram above it, and two exponential tails. A
/// candidate from outside the triangle passes a cheap squeeze or, rarely,
/// the exact pmf comparison with Stirling-series `ln n!` correction terms.
///
/// The setup takes its two floors by the saturating cast, which is `floor`
/// for every `x` in `[0, 2^64)` and exact back to `f64` (below 2^53 the
/// floor is representable; above, `x` is already an integer). Both
/// arguments lie there: `binomial_fast_half` sends only `fl(n·p) ≥ 10`
/// here, with `p ≤ ½`, so `q = fl(1 − p) ∈ [½, 1)`. Then
/// `0 ≤ ffm = fl(n·p) + p ≤ 2^63` (`n as f64 ≤ 2^64`), and
/// `nrq ≥ fl(10·½) = 5` by monotone rounding, so
/// `2.195·√nrq ≥ 4.9 > 4.6 ≥ 4.6·q` and the second argument is positive
/// and below 2^33. The branch floors below stay calls: their arguments
/// can be negative.
fn binomial_btpe(rng: &mut RcbRng, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let r = p;
    let q = 1.0 - r;
    let nrq = nf * r * q;
    let ffm = nf * r + r;
    let m = (ffm as u64) as f64; // mode
    let p1 = ((2.195 * nrq.sqrt() - 4.6 * q) as u64) as f64 + 0.5;
    let xm = m + 0.5;
    let xl = xm - p1;
    let xr = xm + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let a = (ffm - xl) / (ffm - xl * r);
    let lambda_l = a * (1.0 + 0.5 * a);
    let a = (xr - ffm) / (xr * q);
    let lambda_r = a * (1.0 + 0.5 * a);
    let p2 = p1 * (1.0 + c + c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;

    loop {
        let u = rng.f64() * p4;
        let mut v = rng.f64();

        let y: f64;
        if u <= p1 {
            // Central triangle: accept immediately. The saturating cast
            // is `floor` here (see `GeometricSkip`).
            return (xm - p1 * v + u) as u64;
        } else if u <= p2 {
            // Parallelogram: scale v onto the pmf-ratio line.
            let x = xl + (u - p1) / c;
            v = v * c + 1.0 - (x - xm).abs() / p1;
            if v > 1.0 || v <= 0.0 {
                continue;
            }
            y = x.floor();
        } else if u <= p3 {
            // Left exponential tail.
            y = (xl + v.ln() / lambda_l).floor();
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
        } else {
            // Right exponential tail.
            y = (xr - v.ln() / lambda_r).floor();
            if y > nf {
                continue;
            }
            v *= (u - p3) * lambda_r;
        }

        // Accept/reject y against f(y)/f(m), where f is the binomial pmf.
        let k = (y - m).abs();
        if k <= 20.0 || k >= nrq / 2.0 - 1.0 {
            // Narrow distribution or near the mode: evaluate the pmf ratio
            // by the multiplicative recurrence — few factors, exact.
            let s = r / q;
            let aa = s * (nf + 1.0);
            let mut f = 1.0;
            if m < y {
                let mut i = m;
                while i < y {
                    i += 1.0;
                    f *= aa / i - s;
                }
            } else if m > y {
                let mut i = y;
                while i < m {
                    i += 1.0;
                    f /= aa / i - s;
                }
            }
            if v <= f {
                return y as u64;
            }
            continue;
        }
        // Squeeze: bounds on ln(f(y)/f(m)) that avoid the Stirling
        // evaluation for most candidates.
        let rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
        let t = -k * k / (2.0 * nrq);
        let alv = v.ln();
        if alv < t - rho {
            return y as u64;
        }
        if alv > t + rho {
            continue;
        }
        // Final exact comparison: ln(f(y)/f(m)) via Stirling's series,
        // with the (13860 − …)/166320 polynomial correction terms of the
        // published algorithm.
        let x1 = y + 1.0;
        let f1 = m + 1.0;
        let z = nf + 1.0 - m;
        let w = nf - y + 1.0;
        let z2 = z * z;
        let x2 = x1 * x1;
        let f2 = f1 * f1;
        let w2 = w * w;
        let stirling = |v2: f64| 13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / v2) / v2) / v2) / v2;
        let bound = xm * (f1 / x1).ln()
            + (nf - m + 0.5) * (z / w).ln()
            + (y - m) * (w * r / (x1 * q)).ln()
            + stirling(f2) / f1 / 166320.0
            + stirling(z2) / z / 166320.0
            + stirling(x2) / x1 / 166320.0
            + stirling(w2) / w / 166320.0;
        if alv <= bound {
            return y as u64;
        }
    }
}

/// One multinomial draw by sequential conditional binomial splits: `n`
/// items distributed over `weights.len()` categories with probabilities
/// proportional to `weights`, written into `out` (cleared first).
///
/// This is the cohort engine's batched draw: classifying a repetition's
/// slots (clear / single-message / noise) or a cohort's members (per clear
/// count) is one multinomial, costing `O(categories)` [`binomial_fast`]
/// draws instead of `O(n)` per-item coins. Weights must be non-negative
/// and finite; NaN or negative weights are treated as zero. If every
/// weight is zero the entire count lands in the final category (callers
/// use a trailing "rest" bucket).
pub fn multinomial_into(rng: &mut RcbRng, n: u64, weights: &[f64], out: &mut Vec<u64>) {
    out.clear();
    if weights.is_empty() {
        return;
    }
    // Once no items are left every category left gets 0, and stopping is
    // bit-identical to splitting on: `binomial_fast(rng, 0, ·)` draws no
    // RNG word. Zero-length regions (the cohort engine's skew prefix
    // without a skew, its jammed regions in a clean repetition) then cost
    // no weight sum and no per-category divide.
    if n == 0 {
        out.resize(weights.len(), 0);
        return;
    }
    out.reserve(weights.len());
    let sanitize = |w: f64| if w > 0.0 && w.is_finite() { w } else { 0.0 };
    let mut remaining_weight: f64 = weights.iter().copied().map(sanitize).sum();
    let mut remaining = n;
    for (idx, &raw) in weights.iter().enumerate() {
        if remaining == 0 {
            out.resize(weights.len(), 0);
            return;
        }
        if idx + 1 == weights.len() {
            out.push(remaining);
            break;
        }
        let w = sanitize(raw);
        let p = if remaining_weight > 0.0 {
            (w / remaining_weight).min(1.0)
        } else {
            0.0
        };
        let k = binomial_fast(rng, remaining, p);
        out.push(k);
        remaining -= k;
        remaining_weight = (remaining_weight - w).max(0.0);
    }
}

/// Upper bound on [`slot_capacity_hint`]: generous for the repetition
/// lengths the engines draw, conservative against the saturating-cast
/// extremes.
const CAPACITY_CLAMP: usize = 1 << 16;

/// Initial reservation for a block sample: 1.5× the expected count `np`
/// plus slack, clamped to the block length and to [`CAPACITY_CLAMP`].
///
/// The unclamped heuristic misallocates at the extremes: `n·p` near `2^64`
/// saturates the `f64 → usize` cast and asks for a multi-exabyte buffer,
/// and even realistic large blocks would pre-commit memory the tail of the
/// distribution rarely needs. `Vec` doubling amortises the rare overflow
/// past the clamp.
fn slot_capacity_hint(n: u64, p: f64) -> usize {
    let p = if p > 0.0 { p.min(1.0) } else { 0.0 }; // NaN/negative → 0
    let expected = ((n as f64 * p) * 1.5) as usize; // saturating cast
    expected
        .saturating_add(4)
        .min(usize::try_from(n).unwrap_or(usize::MAX))
        .min(CAPACITY_CLAMP)
}

/// The success *positions* of `n` independent `p`-coins, sorted ascending.
///
/// Equivalent in distribution to flipping a coin per slot, but costs
/// `O(np + 1)` expected time. This is the workhorse of the fast engine:
/// "the slots in which node `u` sends during this repetition".
pub fn sample_slots(rng: &mut RcbRng, n: u64, p: f64) -> Vec<u64> {
    let mut out = Vec::new();
    sample_slots_into(rng, n, p, &mut out);
    out
}

/// [`sample_slots`] writing into a caller-owned buffer (cleared first), so
/// hot loops reuse one allocation across repetitions. Consumes the RNG
/// stream identically to [`sample_slots`] for every `(n, p)`.
///
/// `p` is clamped like [`binomial`]: a non-positive or NaN probability
/// selects no slots (NaN used to walk the skip loop and select *every*
/// slot), and `p ≥ 1` selects all of them.
pub fn sample_slots_into(rng: &mut RcbRng, n: u64, p: f64, out: &mut Vec<u64>) {
    out.clear();
    if n == 0 || p.is_nan() || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..n);
        return;
    }
    out.reserve(slot_capacity_hint(n, p));
    GeometricSkip::new(p).walk(rng, n, |pos| out.push(pos));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;
    use rand::RngCore;

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = RcbRng::new(1);
        assert!(!bernoulli(&mut rng, 0.0));
        assert!(bernoulli(&mut rng, 1.0));
        assert!(!bernoulli(&mut rng, -0.5));
        assert!(bernoulli(&mut rng, 1.5));
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut rng = RcbRng::new(2);
        let n = 200_000;
        let hits = (0..n).filter(|_| bernoulli(&mut rng, 0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn geometric_mean_matches_theory() {
        // E[failures before success] = (1-p)/p.
        let mut rng = RcbRng::new(3);
        let p = 0.2;
        let mut stats = RunningStats::new();
        for _ in 0..100_000 {
            stats.push(geometric_failures(&mut rng, p) as f64);
        }
        let expected = (1.0 - p) / p;
        assert!(
            (stats.mean() - expected).abs() < 0.1,
            "mean {} vs {}",
            stats.mean(),
            expected
        );
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut rng = RcbRng::new(4);
        for _ in 0..100 {
            assert_eq!(geometric_failures(&mut rng, 1.0), 0);
        }
    }

    #[test]
    fn binomial_edges() {
        let mut rng = RcbRng::new(5);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn binomial_moments_match_theory() {
        let mut rng = RcbRng::new(6);
        let (n, p) = (400u64, 0.1);
        let mut stats = RunningStats::new();
        for _ in 0..50_000 {
            stats.push(binomial(&mut rng, n, p) as f64);
        }
        let mean = n as f64 * p;
        let var = n as f64 * p * (1.0 - p);
        assert!((stats.mean() - mean).abs() < 0.15, "mean {}", stats.mean());
        assert!(
            (stats.variance() - var).abs() < var * 0.05,
            "var {} vs {var}",
            stats.variance()
        );
    }

    #[test]
    fn binomial_tiny_p_is_usually_zero() {
        let mut rng = RcbRng::new(7);
        let mut total = 0;
        for _ in 0..1000 {
            total += binomial(&mut rng, 1000, 1e-9);
        }
        assert!(total <= 2, "np = 1e-6 per draw; got {total} in 1000 draws");
    }

    #[test]
    fn sample_slots_sorted_distinct_in_range() {
        let mut rng = RcbRng::new(8);
        for _ in 0..100 {
            let slots = sample_slots(&mut rng, 1000, 0.05);
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "sorted+distinct");
            assert!(slots.iter().all(|&s| s < 1000));
        }
    }

    #[test]
    fn sample_slots_count_is_binomial() {
        let mut rng = RcbRng::new(9);
        let (n, p) = (2000u64, 0.01);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            stats.push(sample_slots(&mut rng, n, p).len() as f64);
        }
        assert!((stats.mean() - 20.0).abs() < 0.3, "mean {}", stats.mean());
    }

    #[test]
    fn sample_slots_p_one_gives_all() {
        let mut rng = RcbRng::new(10);
        assert_eq!(sample_slots(&mut rng, 5, 1.0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_slots_positions_are_uniform() {
        // Each slot should be hit with probability p: check the first and
        // last deciles get roughly equal mass.
        let mut rng = RcbRng::new(11);
        let n = 100u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..50_000 {
            for s in sample_slots(&mut rng, n, 0.1) {
                counts[s as usize] += 1;
            }
        }
        let first: u64 = counts[..10].iter().sum();
        let last: u64 = counts[90..].iter().sum();
        let ratio = first as f64 / last as f64;
        assert!((0.93..1.07).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sample_slots_into_matches_sample_slots() {
        // Same seed ⇒ identical positions AND identical post-call RNG
        // state, including the edge probabilities that skip the RNG.
        for seed in 0..50u64 {
            for &(n, p) in &[
                (0u64, 0.5),
                (1, 0.5),
                (1000, 0.0),
                (1000, -1.0),
                (7, 1.0),
                (7, 2.0),
                (1000, 0.05),
                (100_000, 0.001),
                (64, 0.9),
            ] {
                let mut rng_a = RcbRng::new(seed);
                let owned = sample_slots(&mut rng_a, n, p);
                let mut rng_b = RcbRng::new(seed);
                let mut reused = vec![u64::MAX; 3]; // stale contents must be cleared
                sample_slots_into(&mut rng_b, n, p, &mut reused);
                assert_eq!(owned, reused, "seed {seed}, n {n}, p {p}");
                assert_eq!(rng_a, rng_b, "seed {seed}, n {n}, p {p}: RNG drift");
            }
        }
    }

    #[test]
    fn sample_slots_into_reuses_capacity() {
        let mut rng = RcbRng::new(21);
        let mut buf = Vec::new();
        sample_slots_into(&mut rng, 10_000, 0.1, &mut buf);
        let cap = buf.capacity();
        for _ in 0..20 {
            sample_slots_into(&mut rng, 10_000, 0.1, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "repeat draws must not reallocate");
    }

    #[test]
    fn slot_capacity_hint_is_clamped() {
        // Saturating n·p must not request an exabyte-scale reservation.
        assert!(slot_capacity_hint(u64::MAX, 1.0 - 1e-9) <= 1 << 16);
        assert!(slot_capacity_hint(1 << 40, 0.9) <= 1 << 16);
        // And the hint never exceeds the block length.
        assert!(slot_capacity_hint(3, 0.9) <= 3);
        assert_eq!(slot_capacity_hint(0, 0.5), 0);
        // The expected count wins below the clamp.
        assert_eq!(slot_capacity_hint(1000, 0.1), 154);
        // Degenerate p sanitises instead of poisoning the cast.
        assert_eq!(slot_capacity_hint(100, f64::NAN), 4);
        assert_eq!(slot_capacity_hint(100, -3.0), 4);
    }

    #[test]
    fn samplers_reject_invalid_p_in_release_builds() {
        // NaN used to fall through both guards: `NaN as u64 == 0` made every
        // geometric skip zero, so binomial(n, NaN) returned n and
        // sample_slots(n, NaN) selected every slot. These asserts run in
        // release CI, where the old debug_assert provided no protection.
        let mut rng = RcbRng::new(77);
        assert_eq!(binomial(&mut rng, 1000, f64::NAN), 0);
        assert_eq!(binomial_fast(&mut rng, 1000, f64::NAN), 0);
        assert!(sample_slots(&mut rng, 1000, f64::NAN).is_empty());
        assert_eq!(geometric_failures(&mut rng, f64::NAN), u64::MAX);

        // ±0.0: a coin that never lands heads.
        for &zero in &[0.0f64, -0.0] {
            assert_eq!(binomial(&mut rng, 1000, zero), 0);
            assert_eq!(binomial_fast(&mut rng, 1000, zero), 0);
            assert!(sample_slots(&mut rng, 1000, zero).is_empty());
            assert_eq!(geometric_failures(&mut rng, zero), u64::MAX);
            assert_eq!(geometric_failures(&mut rng, -1.0), u64::MAX);
        }

        // Subnormal p is a valid (if absurd) probability: it must neither
        // hang nor divide by ln(1) = 0. ln_1p keeps the denominator finite
        // and nonzero, so the skip is astronomically large and the draw
        // terminates immediately.
        let tiny = f64::MIN_POSITIVE / 2.0;
        assert!(tiny > 0.0 && !tiny.is_normal());
        assert_eq!(binomial(&mut rng, 1_000_000, tiny), 0);
        assert_eq!(binomial_fast(&mut rng, 1_000_000, tiny), 0);
        let skip = geometric_failures(&mut rng, tiny);
        assert!(skip > 1 << 40, "subnormal p must skip ~1/p failures");
    }

    #[test]
    fn binomial_fast_edge_cases() {
        let mut rng = RcbRng::new(78);
        assert_eq!(binomial_fast(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial_fast(&mut rng, 10, 1.0), 10);
        assert_eq!(binomial_fast(&mut rng, 10, 2.0), 10);
        assert_eq!(binomial_fast(&mut rng, 10, -1.0), 0);
        // Complement path near 1: all three sampler regimes stay in range.
        for &(n, p) in &[(5u64, 0.999f64), (1000, 0.97), (1_000_000, 0.9)] {
            for _ in 0..50 {
                let k = binomial_fast(&mut rng, n, p);
                assert!(k <= n, "n {n}, p {p}, k {k}");
            }
        }
    }

    #[test]
    fn binomial_fast_moments_match_theory() {
        // Mean and variance across BINV (np < 10), BTPE (np ≥ 10), and the
        // p > 1/2 complement path.
        let mut rng = RcbRng::new(79);
        for &(n, p) in &[
            (40u64, 0.1f64), // BINV
            (400, 0.3),      // BTPE
            (400, 0.7),      // complement → BTPE
            (30, 0.9),       // complement → BINV
            (1_000_000, 0.5),
        ] {
            let trials = 20_000;
            let mut sum = 0.0;
            let mut sumsq = 0.0;
            for _ in 0..trials {
                let k = binomial_fast(&mut rng, n, p) as f64;
                sum += k;
                sumsq += k * k;
            }
            let mean = sum / trials as f64;
            let var = sumsq / trials as f64 - mean * mean;
            let (m, v) = (n as f64 * p, n as f64 * p * (1.0 - p));
            // 6-sigma tolerance on the sample mean, 10% on the variance.
            let mean_tol = 6.0 * (v / trials as f64).sqrt();
            assert!(
                (mean - m).abs() < mean_tol,
                "n {n} p {p}: mean {mean} vs {m}"
            );
            assert!((var - v).abs() < 0.1 * v, "n {n} p {p}: var {var} vs {v}");
        }
    }

    #[test]
    fn binomial_fast_agrees_with_exact_binomial_in_distribution() {
        // Two-sample KS between the geometric-skip reference sampler and
        // the BINV/BTPE paths: same law, different streams.
        use crate::gof::ks_two_sample;
        for &(n, p) in &[(300u64, 0.37f64), (300, 0.63), (24, 0.25)] {
            let mut rng_a = RcbRng::new(80);
            let mut rng_b = RcbRng::new(81);
            let trials = 4000;
            let a: Vec<f64> = (0..trials)
                .map(|_| binomial(&mut rng_a, n, p) as f64)
                .collect();
            let b: Vec<f64> = (0..trials)
                .map(|_| binomial_fast(&mut rng_b, n, p) as f64)
                .collect();
            let ks = ks_two_sample(&a, &b);
            assert!(ks.p > 1e-4, "n {n} p {p}: KS d {} p {}", ks.d, ks.p);
        }
    }

    #[test]
    fn binomial_fast_is_deterministic_per_seed() {
        for seed in 0..10u64 {
            let mut a = RcbRng::new(seed);
            let mut b = RcbRng::new(seed);
            for &(n, p) in &[(50u64, 0.2f64), (5000, 0.4), (5000, 0.8)] {
                assert_eq!(binomial_fast(&mut a, n, p), binomial_fast(&mut b, n, p));
            }
            assert_eq!(a, b);
        }
    }

    /// BINV as it was before [`binv_one`]: `binomial_binv` verbatim, except
    /// that the first uniform may be supplied. The reference the fast path
    /// must match bit for bit.
    fn binv_reference(rng: &mut RcbRng, n: u64, p: f64, mut first_u: Option<f64>) -> u64 {
        let nf = n as f64;
        let q = 1.0 - p;
        let s = p / q;
        let f0 = (nf * q.ln()).exp();
        loop {
            let mut u = first_u.take().unwrap_or_else(|| rng.f64());
            let mut f = f0;
            let mut x = 0u64;
            loop {
                if u < f {
                    return x;
                }
                if x >= n {
                    break;
                }
                u -= f;
                x += 1;
                f *= s * (nf - (x - 1) as f64) / x as f64;
            }
        }
    }

    #[test]
    fn binv_one_matches_the_reference_loop() {
        // Same value and same generator state afterwards, over edge and
        // 10^6 uniform p ∈ (0, ½]; the generator carries on across p.
        let edges = [
            0.5,
            0.5 - 1e-12,
            0.25,
            1e-3,
            3e-9,
            2e-9,
            1e-9,
            1e-16,
            1e-300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
        ];
        let mut fast = RcbRng::new(90);
        let mut reference = fast.clone();
        let mut draw_p = RcbRng::new(91);
        for i in 0..1_000_000 + edges.len() {
            let p = edges
                .get(i)
                .copied()
                .unwrap_or_else(|| 0.5 * (1.0 - draw_p.f64()));
            let got = binomial_binv(&mut fast, 1, p);
            let want = binv_reference(&mut reference, 1, p, None);
            assert_eq!(got, want, "p {p:e}");
            assert_eq!(fast, reference, "generator state after p {p:e}");
        }
    }

    #[test]
    fn binv_one_falls_back_to_the_loop_in_the_band() {
        // Chosen first uniforms on and one ulp either side of each band
        // edge and of the loop's own `exp(ln q)`, where the loop decides
        // (and may redraw). At this `p` the loop rejects u = 1 − 2⁻⁵³ and
        // redraws: the case the `u < 1 − δ` test exists for.
        let redraws_at_top = 0.444255932892817;
        let mut top = RcbRng::new(91);
        let before = top.clone();
        binv_reference(&mut top, 1, redraws_at_top, Some(1.0 - 2f64.powi(-53)));
        assert_ne!(top, before, "the loop must redraw at p {redraws_at_top}");
        for &p in &[
            0.5,
            0.5 - 1e-12,
            redraws_at_top,
            0.3,
            0.1,
            1e-3,
            3e-9,
            1e-300,
        ] {
            let q: f64 = 1.0 - p;
            let mut us = vec![0.0, 1.0 - 2f64.powi(-53)];
            for edge in [
                q,
                q.ln().exp(),
                q * (1.0 - BINV_ONE_BAND),
                q * (1.0 + BINV_ONE_BAND),
                1.0 - BINV_ONE_BAND,
            ] {
                us.extend([edge.next_down(), edge, edge.next_up()]);
            }
            for (i, &u) in us.iter().filter(|&&u| u < 1.0).enumerate() {
                let mut fast = RcbRng::new(92 + i as u64);
                let mut reference = fast.clone();
                let got = binv_one(&mut fast, p, u);
                let want = binv_reference(&mut reference, 1, p, Some(u));
                assert_eq!(got, want, "p {p:e} u {u:e}");
                assert_eq!(fast, reference, "generator state at p {p:e} u {u:e}");
            }
        }
    }

    /// `binomial_fast(rng, 1, p)` whose first uniform is `u` (drawn only
    /// when `0 < p < 1`), by the loop [`binv_one`] replaced.
    fn coin_reference(rng: &mut RcbRng, p: f64, u: f64) -> u64 {
        if p.is_nan() || p <= 0.0 {
            0
        } else if p >= 1.0 {
            1
        } else if p > 0.5 {
            1 - binv_reference(rng, 1, 1.0 - p, Some(u))
        } else {
            binv_reference(rng, 1, p, Some(u))
        }
    }

    /// Asks `CoinBetween` about `[lo, hi]` with first uniform `u`. A decided
    /// result must be the reference's at both ends and at interior points;
    /// `exact` must match the reference at `p`, value and generator state.
    /// Returns whether the interval was decided.
    fn check_coin_between(lo: f64, hi: f64, u: f64, p: f64) -> bool {
        let draws = |x: f64| x > 0.0 && x < 1.0;
        let mut coin = CoinBetween { u: Some(u) };
        let mut rng = RcbRng::new(93);
        let before = rng.clone();
        let decided = coin.decide(&mut rng, lo, hi);
        assert_eq!(rng, before, "decide never loops: [{lo:e}, {hi:e}] u {u:e}");
        if let Some(result) = decided {
            for x in [lo, hi, 0.5 * (lo + hi), lo + 0.25 * (hi - lo), p] {
                if (lo..=hi).contains(&x) {
                    let mut r = RcbRng::new(94);
                    let want = coin_reference(&mut r, x, u);
                    assert_eq!(result, want, "[{lo:e}, {hi:e}] at {x:e}, u {u:e}");
                    assert_eq!(r, RcbRng::new(94), "decided, yet the loop ran at {x:e}");
                }
            }
        }
        let (mut got, mut want) = (RcbRng::new(95), RcbRng::new(95));
        let exact = CoinBetween {
            u: draws(p).then_some(u),
        }
        .exact(&mut got, p);
        assert_eq!(
            exact,
            coin_reference(&mut want, p, u),
            "exact at {p:e}, u {u:e}"
        );
        assert_eq!(got, want, "exact's generator state at {p:e}, u {u:e}");
        decided.is_some()
    }

    #[test]
    fn coin_between_decides_only_what_both_ends_agree_on() {
        // First uniforms on and one ulp either side of each of binv_one's
        // thresholds, for intervals from a point to a wide bracket, on
        // either side of the complement switch at ½ and straddling it.
        let mut decided = 0;
        for &p in &[
            1e-9,
            1e-3,
            0.1,
            0.3,
            0.5 - 1e-12,
            0.5,
            0.5 + 1e-12,
            0.7,
            0.999,
        ] {
            for r in [p, 1.0 - p] {
                let q = 1.0 - r;
                let mut us = vec![0.0, 1.0 - 2f64.powi(-53)];
                for edge in [
                    q,
                    q * (1.0 - BINV_ONE_BAND),
                    q * (1.0 + BINV_ONE_BAND),
                    1.0 - BINV_ONE_BAND,
                    1.0 - q,
                ] {
                    us.extend([edge.next_down(), edge, edge.next_up()]);
                }
                for &u in us.iter().filter(|&&u| (0.0..1.0).contains(&u)) {
                    for w in [0.0, 1e-15, 1e-10, 1e-6, 0.01] {
                        let (lo, hi) = ((p - w).max(0.0), (p + w).min(1.0));
                        decided += u32::from(check_coin_between(lo, hi, u, p));
                        check_coin_between(p, p, u, p);
                    }
                }
            }
        }
        assert!(decided > 100, "{decided} intervals decided");
        // Straddling ½ the two ends take different branches: undecided,
        // and no uniform is drawn.
        let mut rng = RcbRng::new(96);
        let before = rng.clone();
        for (lo, hi) in [(0.5, 0.5f64.next_up()), (0.4, 0.6), (0.0, 0.3), (0.9, 1.0)] {
            assert_eq!(
                CoinBetween::default().decide(&mut rng, lo, hi),
                None,
                "[{lo}, {hi}]"
            );
        }
        assert_eq!(rng, before);
        // Both ends outside (0, 1): fixed, no uniform drawn.
        for (lo, hi, want) in [(-1.0, 0.0, 0), (0.0, 0.0, 0), (1.0, 1.0, 1), (1.0, 2.0, 1)] {
            let got = CoinBetween::default().decide(&mut rng, lo, hi);
            assert_eq!(got, Some(want), "[{lo}, {hi}]");
        }
        assert_eq!(rng, before);
    }

    #[test]
    fn coin_between_matches_binomial_fast_on_random_intervals() {
        // Narrowing an interval around p until decided, then finishing
        // exactly, moves the generator as binomial_fast(rng, 1, p) does.
        let mut draw = RcbRng::new(97);
        let mut fast = RcbRng::new(98);
        let mut reference = fast.clone();
        let mut narrowed = 0;
        for _ in 0..100_000 {
            let p = match draw.below(4) {
                0 => 0.5 + (draw.f64() - 0.5) * 1e-6,
                1 => draw.f64() * 1e-6,
                _ => draw.f64(),
            };
            let mut w = (draw.f64() * 0.1).max(1e-18);
            let mut coin = CoinBetween::default();
            let got = loop {
                let (lo, hi) = (
                    (p - w * draw.f64()).max(-0.1),
                    (p + w * draw.f64()).min(1.1),
                );
                if let Some(x) = coin.decide(&mut fast, lo, hi) {
                    break x;
                }
                if w == 0.0 {
                    break coin.exact(&mut fast, p);
                }
                narrowed += 1;
                w = if w < 1e-17 { 0.0 } else { w * 1e-3 };
            };
            assert_eq!(got, binomial_fast(&mut reference, 1, p), "p {p:e}");
            assert_eq!(fast, reference, "generator state at p {p:e}");
        }
        assert!(narrowed > 1000, "{narrowed} narrowings");
    }

    #[test]
    fn zero_up_to_decides_only_zeros_below_the_threshold() {
        // First uniforms on and one ulp either side of binv_one's zero
        // threshold at p_up, with p from p_up down to the smallest
        // positive value: a `true` must be a 0 from the reference loop at
        // every such p, without the loop drawing; after a `false`,
        // finishing at p must match the reference in value and state.
        let mut draw = RcbRng::new(99);
        let (mut zeros, mut kept) = (0, 0);
        for p_up in [1e-300, 1e-9, 0.25, 0.5] {
            let zero_below = (1.0 - p_up) * (1.0 - BINV_ONE_BAND);
            let mut ps = vec![p_up, p_up.next_down(), 0.5 * p_up, 5e-324];
            ps.extend((0..50).map(|_| p_up * (1.0 - draw.f64())));
            let mut us = vec![0.0, 1.0 - 2f64.powi(-53), 1.0 - p_up];
            us.extend([zero_below.next_down(), zero_below, zero_below.next_up()]);
            for &u in &us {
                for &p in &ps {
                    let mut coin = CoinBetween { u: Some(u) };
                    let mut rng = RcbRng::new(93);
                    let mut reference = rng.clone();
                    let want = coin_reference(&mut reference, p, u);
                    if coin.zero_up_to(&mut rng, p_up) {
                        assert_eq!(want, 0, "p_up {p_up:e} p {p:e} u {u:e}");
                        assert_eq!(reference, rng, "the loop ran at p {p:e} u {u:e}");
                        zeros += 1;
                    } else {
                        assert!(u >= zero_below, "p_up {p_up:e} u {u:e}");
                        assert_eq!(coin.exact(&mut rng, p), want, "p {p:e} u {u:e}");
                        assert_eq!(rng, reference, "state at p {p:e} u {u:e}");
                        kept += 1;
                    }
                }
            }
        }
        assert!(zeros > 100 && kept > 100, "{zeros} zeros, {kept} kept");
    }

    #[test]
    fn zero_up_to_matches_binomial_fast_on_random_draws() {
        // A fresh coin asked about p_up, finished at a random p ∈ (0, p_up]
        // when undecided, moves the generator as binomial_fast(rng, 1, p).
        // Outside (0, ½] it decides nothing and draws nothing.
        let mut draw = RcbRng::new(100);
        let mut fast = RcbRng::new(101);
        let mut reference = fast.clone();
        let mut zeros = 0;
        for _ in 0..100_000 {
            let p_up = 0.5 * 10f64.powf(-12.0 * draw.f64() * draw.f64());
            let p = match draw.below(3) {
                0 => p_up,
                _ => p_up * (1.0 - draw.f64()),
            };
            let mut coin = CoinBetween::default();
            let got = if coin.zero_up_to(&mut fast, p_up) {
                zeros += 1;
                0
            } else {
                coin.exact(&mut fast, p)
            };
            assert_eq!(got, binomial_fast(&mut reference, 1, p), "p {p:e}");
            assert_eq!(fast, reference, "generator state at p {p:e} p_up {p_up:e}");
        }
        assert!(zeros > 50_000, "{zeros} zeros");
        for p_up in [0.0, -0.0, -1.0, f64::NAN, 0.5f64.next_up(), 0.7, 1.0, 2.0] {
            assert!(!CoinBetween::default().zero_up_to(&mut fast, p_up));
            assert_eq!(fast, reference, "drew at p_up {p_up}");
        }
    }

    /// `binomial_btpe` as it was with the setup's two library `floor`s,
    /// verbatim.
    fn btpe_with_floor(rng: &mut RcbRng, n: u64, p: f64) -> u64 {
        let nf = n as f64;
        let r = p;
        let q = 1.0 - r;
        let nrq = nf * r * q;
        let ffm = nf * r + r;
        let m = ffm.floor(); // mode
        let p1 = (2.195 * nrq.sqrt() - 4.6 * q).floor() + 0.5;
        let xm = m + 0.5;
        let xl = xm - p1;
        let xr = xm + p1;
        let c = 0.134 + 20.5 / (15.3 + m);
        let a = (ffm - xl) / (ffm - xl * r);
        let lambda_l = a * (1.0 + 0.5 * a);
        let a = (xr - ffm) / (xr * q);
        let lambda_r = a * (1.0 + 0.5 * a);
        let p2 = p1 * (1.0 + c + c);
        let p3 = p2 + c / lambda_l;
        let p4 = p3 + c / lambda_r;

        loop {
            let u = rng.f64() * p4;
            let mut v = rng.f64();

            let y: f64;
            if u <= p1 {
                // Central triangle: accept immediately. The saturating cast
                // is `floor` here (see `GeometricSkip`).
                return (xm - p1 * v + u) as u64;
            } else if u <= p2 {
                // Parallelogram: scale v onto the pmf-ratio line.
                let x = xl + (u - p1) / c;
                v = v * c + 1.0 - (x - xm).abs() / p1;
                if v > 1.0 || v <= 0.0 {
                    continue;
                }
                y = x.floor();
            } else if u <= p3 {
                // Left exponential tail.
                y = (xl + v.ln() / lambda_l).floor();
                if y < 0.0 {
                    continue;
                }
                v *= (u - p2) * lambda_l;
            } else {
                // Right exponential tail.
                y = (xr - v.ln() / lambda_r).floor();
                if y > nf {
                    continue;
                }
                v *= (u - p3) * lambda_r;
            }

            // Accept/reject y against f(y)/f(m), where f is the binomial pmf.
            let k = (y - m).abs();
            if k <= 20.0 || k >= nrq / 2.0 - 1.0 {
                // Narrow distribution or near the mode: evaluate the pmf ratio
                // by the multiplicative recurrence — few factors, exact.
                let s = r / q;
                let aa = s * (nf + 1.0);
                let mut f = 1.0;
                if m < y {
                    let mut i = m;
                    while i < y {
                        i += 1.0;
                        f *= aa / i - s;
                    }
                } else if m > y {
                    let mut i = y;
                    while i < m {
                        i += 1.0;
                        f /= aa / i - s;
                    }
                }
                if v <= f {
                    return y as u64;
                }
                continue;
            }
            // Squeeze: bounds on ln(f(y)/f(m)) that avoid the Stirling
            // evaluation for most candidates.
            let rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
            let t = -k * k / (2.0 * nrq);
            let alv = v.ln();
            if alv < t - rho {
                return y as u64;
            }
            if alv > t + rho {
                continue;
            }
            // Final exact comparison: ln(f(y)/f(m)) via Stirling's series,
            // with the (13860 − …)/166320 polynomial correction terms of the
            // published algorithm.
            let x1 = y + 1.0;
            let f1 = m + 1.0;
            let z = nf + 1.0 - m;
            let w = nf - y + 1.0;
            let z2 = z * z;
            let x2 = x1 * x1;
            let f2 = f1 * f1;
            let w2 = w * w;
            let stirling =
                |v2: f64| 13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / v2) / v2) / v2) / v2;
            let bound = xm * (f1 / x1).ln()
                + (nf - m + 0.5) * (z / w).ln()
                + (y - m) * (w * r / (x1 * q)).ln()
                + stirling(f2) / f1 / 166320.0
                + stirling(z2) / z / 166320.0
                + stirling(x2) / x1 / 166320.0
                + stirling(w2) / w / 166320.0;
            if alv <= bound {
                return y as u64;
            }
        }
    }

    #[test]
    fn btpe_setup_casts_match_the_floor_setup() {
        // Every (n, p) that binomial_fast_half sends to BTPE — fl(n·p) ≥ 10
        // and p ≤ ½ — draws the values and generator state of the floor
        // setup: n log-uniform up to u64::MAX, the mean log-uniform from
        // the crossover to n/2, and the edges (mean exactly 10, p = ½,
        // n = u64::MAX).
        let mut draw = RcbRng::new(102);
        let mut fast = RcbRng::new(103);
        let mut reference = fast.clone();
        let mut cases = vec![
            (20u64, 0.5),
            (1000, 0.01),
            (u64::MAX, 0.5),
            (u64::MAX, 1e-18),
        ];
        for _ in 0..20_000 {
            let n = (2f64.powf(4.4 + 59.6 * draw.f64()) as u64).max(20);
            let top = (n as f64 / 2.0).log10();
            let p = (10f64.powf(1.0 + (top - 1.0) * draw.f64()) / n as f64).min(0.5);
            cases.push((n, if draw.below(16) == 0 { 0.5 } else { p }));
        }
        for (n, p) in cases {
            if !(p <= 0.5 && n as f64 * p >= BTPE_THRESHOLD) {
                continue;
            }
            for _ in 0..5 {
                let got = binomial_btpe(&mut fast, n, p);
                assert_eq!(got, btpe_with_floor(&mut reference, n, p), "n {n} p {p:e}");
            }
            assert_eq!(fast, reference, "generator state at n {n} p {p:e}");
        }
    }

    /// Values where `floor` and the saturating cast could part ways: signed
    /// zeros, infinities, NaN, subnormals, the ends of the `u64` range, and
    /// integers and powers of two with their neighbours one ulp away.
    fn cast_edge_values() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            u64::MAX as f64,
            0.5,
            -0.5,
            0.999_999_999_999_999_9,
            1e300,
        ];
        let mut centres: Vec<f64> = (0..=70).map(|e| 2f64.powi(e)).collect();
        centres.extend([3.0, 7.0, 10.0, 1e6, 4.5e15, 9.007_199_254_740_993e15]);
        for c in centres {
            for x in [c, -c] {
                xs.extend([x.next_down(), x, x.next_up()]);
                xs.extend([x - 1.0, x + 1.0]);
            }
        }
        xs
    }

    #[test]
    fn saturating_cast_is_floor_for_every_f64() {
        // The hot paths take `⌊x⌋` as `x as u64`; it must equal
        // `x.floor() as u64` and the clamped `x.floor().max(0.0) as u64`
        // for every `f64`. Checked on the edges and 10^7 random values:
        // half are raw bit patterns (every exponent), half are drawn in
        // [0, 2^66), where truncation and the `u64` saturation point
        // both matter.
        let check = |x: f64| {
            let cast = x as u64;
            assert_eq!(
                x.floor() as u64,
                cast,
                "floor vs cast at {x:e} ({:#x})",
                x.to_bits()
            );
            assert_eq!(x.floor().max(0.0) as u64, cast, "clamped floor at {x:e}");
        };
        cast_edge_values().into_iter().for_each(check);
        let mut rng = RcbRng::new(93);
        for _ in 0..5_000_000 {
            check(f64::from_bits(rng.next_u64()));
            check(rng.f64() * 2f64.powi(rng.below(67) as i32));
        }
    }

    /// The geometric skip as it was before the saturating cast: an
    /// explicit `floor` and a guard at `u64::MAX as f64`.
    fn skip_with_floor(rng: &mut RcbRng, ln_one_minus_p: f64) -> u64 {
        let u = 1.0 - rng.f64();
        let skip = (u.ln() / ln_one_minus_p).floor();
        if skip >= u64::MAX as f64 {
            u64::MAX
        } else {
            skip as u64
        }
    }

    /// [`sample_slots_into`]'s skip walk on [`skip_with_floor`]; the
    /// number of positions it writes is what [`binomial`] counts.
    fn slots_with_floor(rng: &mut RcbRng, n: u64, p: f64, out: &mut Vec<u64>) {
        out.clear();
        let denom = (-p).ln_1p();
        let mut pos = 0u64;
        loop {
            pos = match pos.checked_add(skip_with_floor(rng, denom)) {
                Some(v) if v < n => v,
                _ => return,
            };
            out.push(pos);
            pos += 1;
        }
    }

    #[test]
    fn skip_samplers_match_the_floor_loop() {
        // Same values and same generator state as the `floor` loop for
        // `sample_slots_into`, `binomial` and `geometric_failures`. Block
        // lengths reach 2^40 and `u64::MAX` where `np` stays small, so
        // skips saturate at the tiny `p`; `1 − 2⁻⁵³` draws runs of zero
        // skips.
        let ps = [
            1e-300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 7.0,
            2f64.powi(-30),
            0.06,
            0.5,
            0.9,
            1.0 - 2f64.powi(-53),
        ];
        let ns = [1u64, 2, 5, 64, 1000, 1 << 20, 1 << 40, u64::MAX];
        let mut fast = RcbRng::new(94);
        let mut reference = fast.clone();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for &p in &ps {
            let denom = (-p).ln_1p();
            for _ in 0..2_000 {
                assert_eq!(
                    geometric_failures(&mut fast, p),
                    skip_with_floor(&mut reference, denom)
                );
            }
            assert_eq!(fast, reference, "generator state after skips at p {p:e}");
            for &n in ns.iter().filter(|&&n| n as f64 * p <= 5_000.0) {
                for _ in 0..50 {
                    sample_slots_into(&mut fast, n, p, &mut got);
                    slots_with_floor(&mut reference, n, p, &mut want);
                    assert_eq!(got, want, "slots at n {n} p {p:e}");
                    let count = binomial(&mut fast, n, p);
                    slots_with_floor(&mut reference, n, p, &mut want);
                    assert_eq!(count, want.len() as u64, "binomial at n {n} p {p:e}");
                }
                assert_eq!(fast, reference, "generator state at n {n} p {p:e}");
            }
        }
    }

    /// The skip as it was before the table bracket, verbatim: the exact
    /// expression on every draw.
    fn skip_reference(rng: &mut RcbRng, ln_one_minus_p: f64) -> u64 {
        // U in (0,1]: use 1 - f64() so ln() is finite.
        let u = 1.0 - rng.f64();
        (u.ln() / ln_one_minus_p) as u64
    }

    /// Probabilities for the bracket checks: where `1/|d|` overflows
    /// (`MIN_POSITIVE/7`) and where skips saturate at 2⁶⁴; where the
    /// bracket's upper end crosses 2⁶³, the switch from the signed to the
    /// saturating cast (2⁻⁶², near `u = e⁻²`); `p` at which a bucket spans
    /// from about a third of a skip to many skips, so the bracket
    /// straddles often; short skips; and one ulp below 1, where
    /// `d = ln 2⁻⁵³`.
    fn bracket_ps() -> [f64; 11] {
        [
            f64::MIN_POSITIVE / 7.0,
            f64::MIN_POSITIVE,
            1e-300,
            2f64.powi(-62),
            2f64.powi(-30),
            1e-3,
            0.004,
            0.06,
            0.5,
            0.9,
            1.0 - 2f64.powi(-53),
        ]
    }

    #[test]
    fn skip_bracket_matches_the_exact_skip_at_every_exponent_and_bucket_edge() {
        // Every exponent of u from 2⁻⁵³ to 1, every bucket edge
        // `2⁻ᵏ·(1 + j/B)` and its neighbours one ulp away (u = 1 and
        // 1 − 2⁻⁵³ among them): where the bracket's ends sit closest to
        // the exact quotient, and where `2⁻ᴺ` at p = ½ makes it an
        // integer.
        let mut us = vec![1.0, 1.0 - 2f64.powi(-53), 2f64.powi(-53)];
        for k in 0..=53 {
            for j in 0..=SKIP_BUCKETS {
                let edge = 2f64.powi(-k) * (1.0 + j as f64 / SKIP_BUCKETS as f64);
                us.extend([edge.next_down(), edge, edge.next_up()]);
            }
        }
        us.retain(|&u| (2f64.powi(-53)..=1.0).contains(&u));
        for p in bracket_ps() {
            let (skip, denom) = (GeometricSkip::new(p), (-p).ln_1p());
            for &u in &us {
                assert_eq!(
                    skip.at(u),
                    (u.ln() / denom) as u64,
                    "skip at p {p:e} u {u:e} ({:#x})",
                    u.to_bits()
                );
            }
        }
    }

    #[test]
    fn skip_draws_match_the_exact_skip_on_random_words() {
        // Value and generator state against the verbatim exact skip: 10^6
        // words at each listed p, then 10^5 p spread log-uniformly over
        // (2⁻⁶⁰, 1) and as close to 1, 20 words each.
        let mut fast = RcbRng::new(95);
        let mut reference = fast.clone();
        let check = |fast: &mut RcbRng, reference: &mut RcbRng, p: f64, draws: usize| {
            let (skip, denom) = (GeometricSkip::new(p), (-p).ln_1p());
            for _ in 0..draws {
                assert_eq!(skip.draw(fast), skip_reference(reference, denom), "p {p:e}");
            }
            assert_eq!(fast, reference, "generator state at p {p:e}");
        };
        for p in bracket_ps() {
            check(&mut fast, &mut reference, p, 1_000_000);
        }
        let mut ps = RcbRng::new(96);
        for _ in 0..100_000 {
            let tail = 2f64.powf(-60.0 * ps.f64());
            let p = if ps.below(2) == 0 { tail } else { 1.0 - tail };
            if p > 0.0 && p < 1.0 {
                check(&mut fast, &mut reference, p, 20);
            }
        }
    }

    #[test]
    fn skip_matches_the_exact_skip_where_the_bracket_crosses_2_pow_63() {
        // Below 2⁶³ the bracket's upper end takes the signed conversions,
        // from 2⁶³ on the saturating unsigned cast. An upper end just
        // below 2⁶³, at it and just above it, each found by nudging `p`
        // near 2⁻⁶² an ulp at a time; then every bucket edge of
        // `u ∈ [2⁻⁶, 1]` at 2⁻⁶², across which the upper end rises from 0
        // to just past 2⁶⁴, and the lower end passes 2⁶³ while the exact
        // skip is still below 2⁶⁴: there an unguarded `hi as i64` would
        // accept `i64::MAX` as the skip.
        let two_63 = 2f64.powi(63);
        let exact = |p: f64, u: f64| (u.ln() / (-p).ln_1p()) as u64;
        let u = 0.125 * (1.0 + 3.0 / SKIP_BUCKETS as f64);
        for target in [two_63.next_down(), two_63, two_63.next_up()] {
            let guess = 2f64.powi(-62) * GeometricSkip::new(2f64.powi(-62)).bracket(u).1 / target;
            let start = (0..64).fold(guess, |p, _| p.next_down());
            let p = std::iter::successors(Some(start), |p| Some(p.next_up()))
                .take(128)
                .find(|&p| GeometricSkip::new(p).bracket(u).1 == target)
                .unwrap_or_else(|| panic!("no p near {guess:e} puts hi at {target:e}"));
            assert_eq!(GeometricSkip::new(p).at(u), exact(p, u), "hi {target:e}");
        }
        let p = 2f64.powi(-62);
        let skip = GeometricSkip::new(p);
        let (mut below, mut above) = (0, 0);
        for k in 0..=6 {
            for j in 0..=SKIP_BUCKETS {
                let edge = 2f64.powi(-k) * (1.0 + j as f64 / SKIP_BUCKETS as f64);
                for u in [edge.next_down(), edge, edge.next_up()] {
                    if !(2f64.powi(-6)..=1.0).contains(&u) {
                        continue;
                    }
                    let want = exact(p, u);
                    assert_eq!(skip.at(u), want, "u {u:e} ({:#x})", u.to_bits());
                    let (lo, hi) = skip.bracket(u);
                    below += usize::from(hi < two_63 && hi > 0.5 * two_63);
                    above += usize::from(lo >= two_63 && want < u64::MAX);
                }
            }
        }
        assert!(
            below > 1_000 && above > 1_000,
            "{below} below, {above} above 2^63"
        );
    }

    #[test]
    fn skip_table_is_within_2_pow_minus_50_of_ln_1p() {
        // The bracket's proof takes the edges within 2⁻⁵⁰ of `ln(1 + j/B)`
        // and the top edge equal to `LN_POW2[1]`, so the top bucket's
        // lower end is exactly 0. Measured against libm, itself within an
        // ulp (2⁻⁵³ near ln 2); the series is off by up to 3.6 ulp.
        let edges = &LN_MANTISSA_EDGES;
        assert_eq!(edges[0], 0.0);
        assert_eq!(edges[SKIP_BUCKETS], std::f64::consts::LN_2);
        assert_eq!(LN_POW2[1], edges[SKIP_BUCKETS]);
        for j in 1..SKIP_BUCKETS {
            let libm = (j as f64 / SKIP_BUCKETS as f64).ln_1p();
            assert!((edges[j] - libm).abs() <= 2f64.powi(-50), "edge {j}");
            assert!(edges[j - 1] < edges[j], "edges rise at {j}");
        }
        for (k, &v) in LN_POW2.iter().enumerate() {
            assert_eq!(v, k as f64 * std::f64::consts::LN_2);
        }
        let bytes = std::mem::size_of_val(&LN_MANTISSA_EDGES) + std::mem::size_of_val(&LN_POW2);
        assert!(bytes <= 32 << 10, "skip tables take {bytes} bytes");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn top_bucket_and_u_one_are_decided_by_the_bracket() {
        // At u = 1 the bracket's lower end, 0 − ln(1 + 1/B), is clamped
        // to 0, which decides skip 0; without the clamp u = 1 falls back.
        // The top bucket of [½, 1) has a lower end of exactly
        // `LN_2 − LN_2 = 0` and an upper end of about 2⁻¹²/|d|, below 1
        // for p above about 2.5e-4: skip 0 too.
        let us: Vec<f64> = (0..2_000u32)
            .map(|i| 1.0 - f64::from(i) * 2f64.powi(-53))
            .chain([1.0 - 2f64.powi(-12), 1.0 - 2f64.powi(-13)])
            .collect();
        for p in [1e-3, 0.004, 0.06, 0.5, 0.9, 1.0 - 2f64.powi(-53)] {
            let skip = GeometricSkip::new(p);
            census::take();
            assert!(us.iter().all(|&u| skip.at(u) == 0), "p {p:e}");
            assert_eq!(census::take(), [us.len() as u64, 0], "p {p:e}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn saturated_skips_are_decided_by_the_bracket() {
        // Below the top bucket of [½, 1) every lower end is at least
        // 2⁻¹², so at p ≤ 1e-300 it scales past 2⁶⁴, or to +∞ where
        // `1/|d|` overflows (`MIN_POSITIVE/7`), and the saturated cast of
        // the upper end is accepted: the exact quotient saturates too.
        let us: Vec<f64> = (1..=53)
            .flat_map(|k| [2f64.powi(-k), 0.75 * 2f64.powi(-k)])
            .chain([0.5 - 2f64.powi(-54), 1.0 - 2f64.powi(-11)])
            .collect();
        assert!((-1.0 / (-(f64::MIN_POSITIVE / 7.0)).ln_1p()).is_infinite());
        for p in [f64::MIN_POSITIVE / 7.0, f64::MIN_POSITIVE, 1e-300] {
            let skip = GeometricSkip::new(p);
            census::take();
            assert!(us.iter().all(|&u| skip.at(u) == u64::MAX), "p {p:e}");
            assert_eq!(census::take(), [us.len() as u64, 0], "p {p:e}");
        }
    }

    #[test]
    fn multinomial_into_conserves_and_distributes() {
        let mut rng = RcbRng::new(82);
        let mut out = Vec::new();
        // Conservation for arbitrary weights, including zero and NaN cells.
        multinomial_into(&mut rng, 10_000, &[3.0, 0.0, 1.0, f64::NAN, 6.0], &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out.iter().sum::<u64>(), 10_000);
        assert_eq!(out[1], 0, "zero weight gets zero mass");
        assert_eq!(out[3], 0, "NaN weight is treated as zero");

        // Means track the weight proportions.
        let mut totals = [0u64; 3];
        let reps = 2000;
        for _ in 0..reps {
            multinomial_into(&mut rng, 100, &[1.0, 2.0, 1.0], &mut out);
            for (t, &k) in totals.iter_mut().zip(&out) {
                *t += k;
            }
        }
        let mean1 = totals[1] as f64 / reps as f64;
        assert!((mean1 - 50.0).abs() < 2.0, "mean {mean1}");

        // All-zero weights: everything in the trailing rest bucket.
        multinomial_into(&mut rng, 7, &[0.0, 0.0], &mut out);
        assert_eq!(out, vec![0, 7]);
        // Empty weights: nothing to write.
        multinomial_into(&mut rng, 7, &[], &mut out);
        assert!(out.is_empty());
        // Single category takes it all.
        multinomial_into(&mut rng, 7, &[0.25], &mut out);
        assert_eq!(out, vec![7]);
    }

    /// `multinomial_into` before its early exit, verbatim: it splits every
    /// category, including those after the items run out.
    fn multinomial_reference(rng: &mut RcbRng, n: u64, weights: &[f64], out: &mut Vec<u64>) {
        out.clear();
        if weights.is_empty() {
            return;
        }
        out.reserve(weights.len());
        let sanitize = |w: f64| if w > 0.0 && w.is_finite() { w } else { 0.0 };
        let mut remaining_weight: f64 = weights.iter().copied().map(sanitize).sum();
        let mut remaining = n;
        for (idx, &raw) in weights.iter().enumerate() {
            if idx + 1 == weights.len() {
                out.push(remaining);
                break;
            }
            let w = sanitize(raw);
            let p = if remaining_weight > 0.0 {
                (w / remaining_weight).min(1.0)
            } else {
                0.0
            };
            let k = binomial_fast(rng, remaining, p);
            out.push(k);
            remaining -= k;
            remaining_weight = (remaining_weight - w).max(0.0);
        }
    }

    #[test]
    fn multinomial_early_exit_matches_the_full_loop() {
        // Counts from 0 up, weight vectors with a dominant head (items run
        // out early), zero/NaN cells and long tails: same counts and the
        // same generator state after every draw.
        let mut shape = RcbRng::new(2014);
        let (mut fast, mut reference) = (RcbRng::new(7), RcbRng::new(7));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut early = 0;
        for round in 0..20_000u64 {
            let len = 1 + shape.below(12) as usize;
            let weights: Vec<f64> = (0..len)
                .map(|_| match shape.below(6) {
                    0 => 0.0,
                    1 => f64::NAN,
                    2 => 1e3 * shape.f64(),
                    _ => shape.f64(),
                })
                .collect();
            let n = match round % 4 {
                0 => 0,
                1 => shape.below(3),
                2 => shape.below(40),
                _ => shape.below(1 << 20),
            };
            multinomial_into(&mut fast, n, &weights, &mut got);
            multinomial_reference(&mut reference, n, &weights, &mut want);
            assert_eq!(got, want, "round {round}: n {n} weights {weights:?}");
            assert_eq!(fast, reference, "round {round}: generator state");
            early += usize::from(n > 0 && got[..len - 1].iter().sum::<u64>() == n);
        }
        assert!(
            early > 2_000,
            "items ran out early in {early} draws with n > 0"
        );
    }
}
