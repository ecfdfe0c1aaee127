//! Performance telemetry: the `rcbsim perf` harness.
//!
//! Measures engine throughput — slots-simulated/sec, trials/sec, and peak
//! RSS — over a **pinned scenario grid** (duel clean/jammed/faulted,
//! broadcast at n ∈ {8, 64, 256}, an exact-engine reference cell, and
//! cohort-engine cells at n = 65536 and n = 10^6, which run at standard
//! scale or under an explicit `--only` selection) and
//! emits a schema-versioned `BENCH_<git-short-sha>.json` so the repo
//! accumulates a perf trajectory instead of terminal output that vanishes.
//! A comparator (`rcbsim perf --against <file>`) flags changes beyond a
//! noise threshold.
//!
//! Methodology (DESIGN.md §9, §11):
//!
//! * Each scenario's trials run with the same `SeedSequence`-derived
//!   per-trial RNG streams as `run_trials`. The default is one serial pass
//!   (`--cpus 1`), which isolates engine hot-path cost from scheduler
//!   noise; `--cpus 1,2,4` additionally times one full-grid pass per
//!   worker count through [`rcb_sim::executor::run_cells`] and records a
//!   scaling curve. Per-scenario stats come from the **first** pass, and
//!   every scenario records the worker count it was measured under.
//! * Every scenario also folds its outcomes into an FNV-1a checksum. The
//!   checksum is a *determinism witness*: two runs at the same seed, scale,
//!   and schema must agree bit-for-bit — including across passes at
//!   different worker counts, which the harness asserts — and an
//!   optimisation that claims to be output-preserving must leave it
//!   unchanged.
//! * Peak RSS is `VmHWM`, reset per scenario where `/proc` allows it (see
//!   [`rss`]). `VmHWM` is process-wide, so attribution is only meaningful
//!   when scenarios run one at a time: a multi-worker pass records no RSS,
//!   and a serial pass distinguishes *exclusive* measurements (reset took
//!   effect before every repeat) from *cumulative* upper bounds (probe
//!   present, reset denied) from *absent* (no probe; JSON `null`).

pub mod rss;

use std::path::PathBuf;
use std::time::Instant;

use rcb_mathkit::rng::SeedSequence;
use rcb_sim::deadline::Deadline;
use rcb_sim::executor::run_cells_ctl;
use rcb_sim::journal::{Journal, JournalError, JournalHeader};
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{fnv1a, fnv1a_bytes, registry, NamedScenario, Workload, FNV_OFFSET};

use rcb_sim::json::Json;

/// Version of the `BENCH_*.json` schema this build writes. Reads accept
/// v1 (pre-scaling: no per-scenario `cpus`, `peak_rss_kib` as a bare
/// number with 0 standing for "unavailable", no `rss_exclusive`, no
/// `scaling` array) and map it onto the v2 shape.
pub const SCHEMA_VERSION: u64 = 2;

/// Default regression threshold for the comparator: a scenario regresses
/// when throughput drops below `baseline / (1 + threshold)`. 0.35 absorbs
/// run-to-run noise on shared CI runners while a genuine 2× slowdown
/// (ratio 0.5 < 1/1.35 ≈ 0.74) always trips.
pub const DEFAULT_THRESHOLD: f64 = 0.35;

/// Grid sizing: `Standard` for recorded baselines, `Smoke` for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfScale {
    Standard,
    Smoke,
}

impl PerfScale {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "standard" => Ok(Self::Standard),
            "smoke" => Ok(Self::Smoke),
            other => Err(format!("--scale must be standard|smoke, got `{other}`")),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Self::Standard => "standard",
            Self::Smoke => "smoke",
        }
    }

    fn trials(self, base: u64) -> u64 {
        match self {
            Self::Standard => base,
            Self::Smoke => (base / 10).max(2),
        }
    }

    /// Timed repetitions per scenario; the fastest wall time is reported.
    /// Best-of-N is the standard defence against scheduler noise: the
    /// minimum converges on the true cost while means drag in every
    /// preemption.
    fn repeats(self) -> u64 {
        match self {
            Self::Standard => 3,
            Self::Smoke => 2,
        }
    }
}

/// One measured grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    pub id: String,
    pub engine: String,
    pub trials: u64,
    /// Total protocol slots simulated across all trials.
    pub slots: u64,
    pub wall_secs: f64,
    pub slots_per_sec: f64,
    pub trials_per_sec: f64,
    /// Worker count of the pass this measurement came from. The comparator
    /// normalises throughput by it, so baselines recorded at different
    /// `--cpus` stay comparable (with a warning).
    pub cpus: u64,
    /// Peak RSS in KiB, `None` when the platform exposes no probe or the
    /// measuring pass was multi-worker (attribution impossible).
    pub peak_rss_kib: Option<u64>,
    /// True only when the value is this scenario's own peak: serial pass,
    /// probe present, and the high-water-mark reset took effect before
    /// every repeat. False with `Some(_)` means a cumulative upper bound.
    pub rss_exclusive: bool,
    /// FNV-1a fold of every trial outcome, hex — the determinism witness.
    pub checksum: String,
}

/// One point on the whole-grid scaling curve: a timed pass at a fixed
/// worker count. `speedup` is relative to the 1-cpu pass (or the first
/// pass when none was requested); `efficiency = speedup / cpus`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    pub cpus: u64,
    pub wall_secs: f64,
    pub slots_per_sec: f64,
    pub speedup: f64,
    pub efficiency: f64,
}

/// A full harness run, 1:1 with one `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema_version: u64,
    pub git_sha: String,
    pub seed: u64,
    pub scale: String,
    /// Timed repetitions per scenario (fastest run is the one recorded).
    pub repeats: u64,
    /// Host logical-core count, for provenance; per-scenario `cpus` is the
    /// worker count actually used.
    pub cpus: u64,
    /// Free-form provenance, e.g. before/after numbers for a recorded
    /// optimisation.
    pub notes: String,
    pub scenarios: Vec<ScenarioResult>,
    /// One entry per `--cpus` value, in request order.
    pub scaling: Vec<ScalingPoint>,
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Raw per-scenario measurement from one pass, before report assembly.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    slots: u64,
    checksum: u64,
    wall_secs: f64,
    peak_rss_kib: Option<u64>,
    rss_exclusive: bool,
}

impl Measured {
    /// Journal payload shape. `slots`/`checksum` are decimal/hex strings:
    /// JSON numbers are doubles and cannot carry a full u64.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("slots", Json::Str(self.slots.to_string())),
            ("checksum", Json::Str(format!("{:016x}", self.checksum))),
            ("wall_secs", Json::Num(self.wall_secs)),
            (
                "peak_rss_kib",
                match self.peak_rss_kib {
                    Some(kib) => Json::Num(kib as f64),
                    None => Json::Null,
                },
            ),
            ("rss_exclusive", Json::Bool(self.rss_exclusive)),
        ])
    }

    fn from_json(v: &Json) -> Result<Measured, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field `{key}`"));
        Ok(Measured {
            slots: field("slots")?
                .as_str()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or("`slots` not a u64 string")?,
            checksum: field("checksum")?
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("`checksum` not a hex string")?,
            wall_secs: field("wall_secs")?
                .as_f64()
                .ok_or("`wall_secs` not a number")?,
            peak_rss_kib: match field("peak_rss_kib")? {
                Json::Null => None,
                other => Some(other.as_u64().ok_or("`peak_rss_kib` not a count or null")?),
            },
            rss_exclusive: field("rss_exclusive")?
                .as_bool()
                .ok_or("`rss_exclusive` not a bool")?,
        })
    }
}

/// Times one scenario: `repeats` runs, fastest wall recorded, outcomes
/// asserted identical across repeats. RSS is only probed on a `serial`
/// pass — `VmHWM` is process-wide, so concurrent cells would attribute
/// each other's allocations.
fn measure_scenario(entry: &NamedScenario, seed: u64, scale: PerfScale, serial: bool) -> Measured {
    let spec = &entry.spec;
    let trials = scale.trials(spec.trials);
    let seeds = SeedSequence::new(seed);
    let mut best_wall = f64::INFINITY;
    let mut first: Option<(u64, u64)> = None; // (slots, checksum)
    let mut peak: Option<u64> = None;
    let mut probe_ok = true;
    let mut reset_ok = true;
    for _ in 0..scale.repeats() {
        if serial {
            reset_ok &= rss::reset_peak_rss();
        }
        let start = Instant::now();
        let mut slots = 0u64;
        let mut checksum = FNV_OFFSET;
        for i in 0..trials {
            let mut rng = seeds.rng(i);
            let (outcome, err) = spec.run_trial_raw(i, &mut rng);
            if let Some(e) = err {
                panic!("pinned perf scenarios complete within their caps: {e}");
            }
            slots += outcome.slots();
            checksum = fnv1a(checksum, &[spec.outcome_checksum(&outcome)]);
        }
        best_wall = best_wall.min(start.elapsed().as_secs_f64().max(1e-9));
        if serial {
            match rss::peak_rss_kib() {
                Some(kib) => peak = Some(peak.unwrap_or(0).max(kib)),
                None => probe_ok = false,
            }
        }
        match first {
            None => first = Some((slots, checksum)),
            Some((s, c)) => assert!(
                s == slots && c == checksum,
                "{}: repeat diverged — engine is nondeterministic",
                entry.name
            ),
        }
    }
    let (slots, checksum) = first.expect("repeats >= 1");
    Measured {
        slots,
        checksum,
        wall_secs: best_wall,
        peak_rss_kib: if serial { peak } else { None },
        rss_exclusive: serial && probe_ok && reset_ok && peak.is_some(),
    }
}

/// Runs the pinned grid — the [`registry`] of named scenarios, which owns
/// the ids, parameters, and base trial counts — and returns the report
/// (not yet written to disk). Comparator matching is by scenario name, so
/// renaming a registry entry orphans its history.
///
/// The harness's `seed` parameter overrides each spec's own seed policy:
/// a baseline file records one seed for the whole grid.
///
/// `cpus` lists the worker counts to time the grid under, one full pass
/// each (empty ⇒ `[1]`). Per-scenario stats come from the first pass;
/// every pass must reproduce the first pass's slots and checksums exactly
/// (the executor's schedule-independence guarantee) or the harness panics.
pub fn run_perf(
    seed: u64,
    scale: PerfScale,
    git_sha: &str,
    notes: &str,
    cpus: &[u64],
) -> BenchReport {
    run_perf_ctl(seed, scale, git_sha, notes, cpus, &PerfControl::default())
        .expect("journal-free runs cannot fail on journal errors")
        .report
        .expect("deadline-free runs complete the whole grid")
}

/// Crash-safety knobs for [`run_perf_ctl`]. The default — no journal, no
/// resume, no deadline — reproduces [`run_perf`] byte-for-byte.
#[derive(Default)]
pub struct PerfControl {
    /// Write a `perf`-kind journal here: one record per `(pass, scenario)`
    /// cell, flushed atomically after every pass (and after a deadline
    /// cut), so an interrupted grid can resume.
    pub journal: Option<PathBuf>,
    /// Resume from this journal (continues writing to the same file).
    /// A kind or fingerprint mismatch is a typed refusal
    /// ([`JournalError::FingerprintMismatch`]), never a silent splice.
    pub resume: Option<PathBuf>,
    /// Run-level wall-clock budget / SIGINT cancellation token. Checked
    /// between cells: the in-flight scenario finishes and is journaled.
    pub deadline: Deadline,
    /// `rcbsim perf --only a,b`: restrict the grid to these registry
    /// entries (registry order preserved). Explicit selection overrides
    /// the smoke scale's large-`n` exclusion, so CI can target
    /// `bcast_n65536` without paying for the whole grid. Empty = the
    /// scale's default grid. Validate names with [`resolve_only`] first —
    /// unknown names are silently absent here.
    pub only: Vec<String>,
}

/// Broadcast populations past this are excluded from the *default* smoke
/// grid: the large-`n` cohort entries take tens of seconds (n = 65536) to
/// minutes (n = 10^6) per trial batch, which would dominate every CI
/// smoke pass and the perf test suite. Standard-scale baseline
/// recordings still cover them, and `--only` selects them explicitly at
/// any scale (the CI `cohort-smoke` job does exactly that for
/// `bcast_n65536`).
const SMOKE_MAX_BROADCAST_N: usize = 10_000;

/// The grid a perf run executes: the whole [`registry`] at `Standard`;
/// at `Smoke` the scale-ceiling broadcast entries are dropped. A
/// non-empty `only` list overrides both.
fn grid(scale: PerfScale, only: &[String]) -> Vec<NamedScenario> {
    registry()
        .into_iter()
        .filter(|e| {
            if !only.is_empty() {
                return only.iter().any(|n| n == e.name);
            }
            match (&e.spec.workload, scale) {
                (Workload::Broadcast(w), PerfScale::Smoke) => w.n <= SMOKE_MAX_BROADCAST_N,
                _ => true,
            }
        })
        .collect()
}

/// Validates a `--only` selection against the registry, returning the
/// unknown names (empty = all valid).
pub fn resolve_only(only: &[String]) -> Vec<String> {
    only.iter()
        .filter(|n| registry().iter().all(|e| e.name != n.as_str()))
        .cloned()
        .collect()
}

/// Result of a controlled perf run.
#[derive(Debug)]
pub struct PerfRun {
    /// The assembled report; `None` when the deadline (or Ctrl-C) cut the
    /// grid short — completed cells are in the journal, not a report.
    pub report: Option<BenchReport>,
    /// The deadline or cancellation flag fired.
    pub deadline_hit: bool,
    /// Where the journal lives, when one was requested.
    pub journal_path: Option<PathBuf>,
    /// Cells skipped because the resume journal already held them.
    pub resumed_cells: usize,
}

/// Identity of a perf-grid run for journal fingerprinting: a fold of
/// every *executed* entry's spec fingerprint plus the harness seed and
/// scale — exactly the inputs that determine cell payloads. A `--only`
/// selection therefore gets its own fingerprint, so a partial-grid
/// journal can never be spliced into a full-grid resume. Worker counts
/// are deliberately excluded: seed folds make outcomes
/// thread-count-invariant and cell keys carry the pass's cpus, so any
/// `--cpus` run may share a journal.
pub fn perf_fingerprint(seed: u64, scale: PerfScale) -> u64 {
    fingerprint_entries(&grid(scale, &[]), seed, scale)
}

fn fingerprint_entries(entries: &[NamedScenario], seed: u64, scale: PerfScale) -> u64 {
    let mut h = FNV_OFFSET;
    for entry in entries {
        h = fnv1a(h, &[entry.spec.fingerprint()]);
    }
    h = fnv1a(h, &[seed]);
    fnv1a_bytes(h, scale.label().as_bytes())
}

/// [`run_perf`] under a [`PerfControl`]: journaled checkpoints, resume,
/// and cooperative deadlines. Completed cells are flushed (atomic
/// tmp-file + rename) after every pass; resumed cells are skipped and
/// their journaled measurements — including wall times — reused, so a
/// resumed run's checksums are bit-identical to an uninterrupted one.
pub fn run_perf_ctl(
    seed: u64,
    scale: PerfScale,
    git_sha: &str,
    notes: &str,
    cpus: &[u64],
    ctl: &PerfControl,
) -> Result<PerfRun, JournalError> {
    let cpus_list: Vec<u64> = if cpus.is_empty() {
        vec![1]
    } else {
        cpus.iter().map(|&k| k.max(1)).collect()
    };
    let entries = grid(scale, &ctl.only);
    let fingerprint = fingerprint_entries(&entries, seed, scale);

    let mut journal: Option<Journal> = match (&ctl.resume, &ctl.journal) {
        (Some(path), _) => Some(Journal::open_resume(path, "perf", fingerprint)?),
        (None, Some(path)) => Some(Journal::create(
            path,
            JournalHeader::new(
                "perf",
                fingerprint,
                Json::obj(vec![
                    ("seed", Json::Str(seed.to_string())),
                    ("scale", Json::Str(scale.label().to_string())),
                ]),
            ),
        )),
        (None, None) => None,
    };
    let journal_path = journal.as_ref().map(|j| j.path().to_path_buf());
    let resumed_cells = journal.as_ref().map_or(0, Journal::len);
    let cell_key = |k: u64, name: &str| format!("pass{k}/{name}");

    struct Pass {
        cpus: u64,
        wall_secs: f64,
        measured: Vec<Measured>,
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut deadline_hit = false;
    for &k in &cpus_list {
        let done: Vec<bool> = entries
            .iter()
            .map(|e| {
                journal
                    .as_ref()
                    .is_some_and(|j| j.contains(&cell_key(k, e.name)))
            })
            .collect();
        let resumed_any = done.iter().any(|&d| d);
        let skip = |i: usize| done[i];
        let start = Instant::now();
        let run = run_cells_ctl(
            &entries,
            Parallelism::Fixed(k as usize),
            &ctl.deadline,
            Some(&skip),
            |_, entry| measure_scenario(entry, seed, scale, k <= 1),
        );
        let timed = start.elapsed().as_secs_f64().max(1e-9);

        // Checkpoint every freshly completed cell. Deadline-cut cells are
        // `None` and simply absent — a resumed run re-measures them.
        if let Some(j) = &mut journal {
            for (entry, m) in entries.iter().zip(&run.results) {
                if let Some(m) = m {
                    j.append(cell_key(k, entry.name), m.to_json());
                }
            }
            j.flush()?;
        }
        if run.deadline_hit {
            deadline_hit = true;
            break;
        }

        let measured = entries
            .iter()
            .zip(run.results)
            .map(|(entry, m)| match m {
                Some(m) => Ok(m),
                None => {
                    let j = journal.as_ref().expect("skips only come from a journal");
                    let payload = j
                        .get(&cell_key(k, entry.name))
                        .expect("skipped cells are journaled");
                    Measured::from_json(payload).map_err(|reason| JournalError::Corrupt {
                        line: 0,
                        reason: format!("cell {}: {reason}", cell_key(k, entry.name)),
                    })
                }
            })
            .collect::<Result<Vec<Measured>, JournalError>>()?;
        // A resumed pass's own wall time covers only the re-run cells;
        // approximate the full pass by the sum of per-cell walls instead
        // (exact for serial passes, an upper bound for concurrent ones).
        let wall_secs = if resumed_any {
            measured.iter().map(|m| m.wall_secs).sum::<f64>().max(1e-9)
        } else {
            timed
        };
        passes.push(Pass {
            cpus: k,
            wall_secs,
            measured,
        });
    }

    if deadline_hit {
        return Ok(PerfRun {
            report: None,
            deadline_hit: true,
            journal_path,
            resumed_cells,
        });
    }

    let primary = &passes[0];
    for pass in &passes[1..] {
        for ((entry, a), b) in entries.iter().zip(&primary.measured).zip(&pass.measured) {
            assert!(
                a.slots == b.slots && a.checksum == b.checksum,
                "{}: outcomes diverged between the {}-cpu and {}-cpu passes — \
                 the executor must be schedule-independent",
                entry.name,
                primary.cpus,
                pass.cpus
            );
        }
    }

    let total_slots: u64 = primary.measured.iter().map(|m| m.slots).sum();
    let ref_wall = passes
        .iter()
        .find(|p| p.cpus == 1)
        .map(|p| p.wall_secs)
        .unwrap_or(passes[0].wall_secs);
    let scaling = passes
        .iter()
        .map(|p| {
            let speedup = ref_wall / p.wall_secs;
            ScalingPoint {
                cpus: p.cpus,
                wall_secs: p.wall_secs,
                slots_per_sec: total_slots as f64 / p.wall_secs,
                speedup,
                efficiency: speedup / p.cpus as f64,
            }
        })
        .collect();

    let scenarios = entries
        .iter()
        .zip(&primary.measured)
        .map(|(entry, m)| {
            let trials = scale.trials(entry.spec.trials);
            ScenarioResult {
                id: entry.name.to_string(),
                engine: entry.spec.engine_label().to_string(),
                trials,
                slots: m.slots,
                wall_secs: m.wall_secs,
                slots_per_sec: m.slots as f64 / m.wall_secs,
                trials_per_sec: trials as f64 / m.wall_secs,
                cpus: primary.cpus,
                peak_rss_kib: m.peak_rss_kib,
                rss_exclusive: m.rss_exclusive,
                checksum: format!("{:016x}", m.checksum),
            }
        })
        .collect();

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        git_sha: git_sha.to_string(),
        seed,
        scale: scale.label().to_string(),
        repeats: scale.repeats(),
        cpus: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        notes: notes.to_string(),
        scenarios,
        scaling,
    };
    Ok(PerfRun {
        report: Some(report),
        deadline_hit: false,
        journal_path,
        resumed_cells,
    })
}

/// The current commit's short SHA, or `unknown` outside a git checkout.
pub fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=7", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------------
// Schema (de)serialisation
// ---------------------------------------------------------------------------

impl ScenarioResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("trials", Json::Num(self.trials as f64)),
            ("slots", Json::Num(self.slots as f64)),
            ("wall_secs", Json::Num(self.wall_secs)),
            ("slots_per_sec", Json::Num(self.slots_per_sec)),
            ("trials_per_sec", Json::Num(self.trials_per_sec)),
            ("cpus", Json::Num(self.cpus as f64)),
            (
                "peak_rss_kib",
                match self.peak_rss_kib {
                    Some(kib) => Json::Num(kib as f64),
                    None => Json::Null,
                },
            ),
            ("rss_exclusive", Json::Bool(self.rss_exclusive)),
            ("checksum", Json::Str(self.checksum.clone())),
        ])
    }

    fn from_json(v: &Json, version: u64) -> Result<Self, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field `{key}`"));
        let (cpus, peak_rss_kib, rss_exclusive) = if version == 1 {
            // v1 had no per-scenario cpus (always a serial pass), wrote 0
            // for "no probe", and could not distinguish a cumulative
            // reading from an exclusive one — treat every v1 value as
            // non-exclusive.
            let raw = field("peak_rss_kib")?
                .as_u64()
                .ok_or("`peak_rss_kib` not a count")?;
            (1, (raw > 0).then_some(raw), false)
        } else {
            let peak = match field("peak_rss_kib")? {
                Json::Null => None,
                other => Some(other.as_u64().ok_or("`peak_rss_kib` not a count or null")?),
            };
            (
                field("cpus")?.as_u64().ok_or("`cpus` not a count")?,
                peak,
                field("rss_exclusive")?
                    .as_bool()
                    .ok_or("`rss_exclusive` not a bool")?,
            )
        };
        Ok(Self {
            id: field("id")?
                .as_str()
                .ok_or("`id` not a string")?
                .to_string(),
            engine: field("engine")?
                .as_str()
                .ok_or("`engine` not a string")?
                .to_string(),
            trials: field("trials")?.as_u64().ok_or("`trials` not a count")?,
            slots: field("slots")?.as_u64().ok_or("`slots` not a count")?,
            wall_secs: field("wall_secs")?
                .as_f64()
                .ok_or("`wall_secs` not a number")?,
            slots_per_sec: field("slots_per_sec")?
                .as_f64()
                .ok_or("`slots_per_sec` not a number")?,
            trials_per_sec: field("trials_per_sec")?
                .as_f64()
                .ok_or("`trials_per_sec` not a number")?,
            cpus,
            peak_rss_kib,
            rss_exclusive,
            checksum: field("checksum")?
                .as_str()
                .ok_or("`checksum` not a string")?
                .to_string(),
        })
    }
}

impl ScalingPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cpus", Json::Num(self.cpus as f64)),
            ("wall_secs", Json::Num(self.wall_secs)),
            ("slots_per_sec", Json::Num(self.slots_per_sec)),
            ("speedup", Json::Num(self.speedup)),
            ("efficiency", Json::Num(self.efficiency)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field `{key}`"));
        Ok(Self {
            cpus: field("cpus")?.as_u64().ok_or("`cpus` not a count")?,
            wall_secs: field("wall_secs")?
                .as_f64()
                .ok_or("`wall_secs` not a number")?,
            slots_per_sec: field("slots_per_sec")?
                .as_f64()
                .ok_or("`slots_per_sec` not a number")?,
            speedup: field("speedup")?.as_f64().ok_or("`speedup` not a number")?,
            efficiency: field("efficiency")?
                .as_f64()
                .ok_or("`efficiency` not a number")?,
        })
    }
}

impl BenchReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("git_sha", Json::Str(self.git_sha.clone())),
            // Stored as a string: JSON numbers are doubles, which cannot
            // carry a full-domain u64 seed exactly.
            ("seed", Json::Str(self.seed.to_string())),
            ("scale", Json::Str(self.scale.clone())),
            ("repeats", Json::Num(self.repeats as f64)),
            ("cpus", Json::Num(self.cpus as f64)),
            ("notes", Json::Str(self.notes.clone())),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioResult::to_json).collect()),
            ),
            (
                "scaling",
                Json::Arr(self.scaling.iter().map(ScalingPoint::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing `schema_version`")?;
        if version == 0 || version > SCHEMA_VERSION {
            return Err(format!(
                "schema version {version} unsupported (this build reads 1..={SCHEMA_VERSION})"
            ));
        }
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field `{key}`"));
        let scaling = if version == 1 {
            Vec::new()
        } else {
            field("scaling")?
                .as_arr()
                .ok_or("`scaling` not an array")?
                .iter()
                .map(ScalingPoint::from_json)
                .collect::<Result<_, _>>()?
        };
        Ok(Self {
            schema_version: version,
            git_sha: field("git_sha")?
                .as_str()
                .ok_or("`git_sha` not a string")?
                .to_string(),
            seed: field("seed")?
                .as_str()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or("`seed` not a u64 string")?,
            scale: field("scale")?
                .as_str()
                .ok_or("`scale` not a string")?
                .to_string(),
            repeats: field("repeats")?.as_u64().ok_or("`repeats` not a count")?,
            cpus: field("cpus")?.as_u64().ok_or("`cpus` not a count")?,
            notes: field("notes")?
                .as_str()
                .ok_or("`notes` not a string")?
                .to_string(),
            scenarios: field("scenarios")?
                .as_arr()
                .ok_or("`scenarios` not an array")?
                .iter()
                .map(|s| ScenarioResult::from_json(s, version))
                .collect::<Result<_, _>>()?,
            scaling,
        })
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf grid @ {} (seed {}, scale {}, host {} cores)",
            self.git_sha, self.seed, self.scale, self.cpus
        );
        let _ = writeln!(
            out,
            "| scenario | engine | trials | cpus | slots/sec | trials/sec | peak RSS (KiB) | checksum |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---|");
        for s in &self.scenarios {
            let rss = match (s.peak_rss_kib, s.rss_exclusive) {
                (Some(kib), true) => kib.to_string(),
                (Some(kib), false) => format!("{kib} (cumulative)"),
                (None, _) => "—".to_string(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.3e} | {:.1} | {} | {} |",
                s.id,
                s.engine,
                s.trials,
                s.cpus,
                s.slots_per_sec,
                s.trials_per_sec,
                rss,
                s.checksum
            );
        }
        if !self.scaling.is_empty() {
            let _ = writeln!(out, "scaling (one full-grid pass per worker count):");
            let _ = writeln!(
                out,
                "| cpus | wall (s) | slots/sec | speedup | efficiency |"
            );
            let _ = writeln!(out, "|---:|---:|---:|---:|---:|");
            for p in &self.scaling {
                let _ = writeln!(
                    out,
                    "| {} | {:.3} | {:.3e} | {:.2}× | {:.0}% |",
                    p.cpus,
                    p.wall_secs,
                    p.slots_per_sec,
                    p.speedup,
                    p.efficiency * 100.0
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

/// Outcome of comparing a fresh run against a recorded baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Rendered comparison table plus notes.
    pub text: String,
    /// Scenario ids whose throughput regressed beyond the threshold.
    pub regressions: Vec<String>,
    /// Scenario ids whose throughput improved beyond the threshold.
    pub improvements: Vec<String>,
    /// Advisory findings (cpus mismatches, checksum drift, RSS growth,
    /// skipped RSS comparisons) — kept out of [`text`](Comparison::text)
    /// so the CLI can route them to stderr, and promotable to a gate via
    /// `rcbsim perf --strict`.
    pub warnings: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Whether the comparison passes under `--strict`, where any warning
    /// is treated as a failure alongside real regressions.
    pub fn passed_strict(&self) -> bool {
        self.passed() && self.warnings.is_empty()
    }
}

/// Compares `current` against `baseline`, scenario by scenario (matched by
/// id). Throughput is judged on **per-core** `slots_per_sec` (divided by
/// the scenario's recorded worker count), so a baseline measured at
/// `--cpus 1` and a run at `--cpus 4` stay comparable — a mismatch is
/// additionally called out, since contention still skews per-core numbers.
/// A drop past `1/(1+threshold)` regresses, a gain past `1+threshold` is
/// reported as an improvement. Checksum drift at matching (seed, scale,
/// trials) is reported as a warning — it means the engines' *outputs*
/// changed, which an optimisation PR must explain. Peak RSS is compared
/// (advisory growth warning) only when **both** sides carry exclusive
/// measurements; cumulative or absent readings are skipped and counted.
/// Warnings land in [`Comparison::warnings`], not the table text.
pub fn compare(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> Comparison {
    use std::fmt::Write as _;
    let mut text = String::new();
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    let mut warnings: Vec<String> = Vec::new();
    let mut rss_skipped = 0usize;
    let _ = writeln!(
        text,
        "comparing against baseline @ {} (threshold ±{:.0}%, per-core slots/sec)",
        baseline.git_sha,
        threshold * 100.0
    );
    let _ = writeln!(
        text,
        "| scenario | baseline slots/s·core | current slots/s·core | Δ | verdict |"
    );
    let _ = writeln!(text, "|---|---:|---:|---:|---|");
    for cur in &current.scenarios {
        let Some(base) = baseline.scenarios.iter().find(|b| b.id == cur.id) else {
            let _ = writeln!(
                text,
                "| {} | — | {:.3e} | — | new scenario |",
                cur.id,
                cur.slots_per_sec / cur.cpus.max(1) as f64
            );
            continue;
        };
        let base_core = base.slots_per_sec / base.cpus.max(1) as f64;
        let cur_core = cur.slots_per_sec / cur.cpus.max(1) as f64;
        let ratio = if base_core > 0.0 {
            cur_core / base_core
        } else {
            1.0
        };
        let verdict = if ratio < 1.0 / (1.0 + threshold) {
            regressions.push(cur.id.clone());
            "REGRESSION"
        } else if ratio > 1.0 + threshold {
            improvements.push(cur.id.clone());
            "improved"
        } else {
            "ok"
        };
        let _ = writeln!(
            text,
            "| {} | {:.3e} | {:.3e} | {:+.1}% | {} |",
            cur.id,
            base_core,
            cur_core,
            (ratio - 1.0) * 100.0,
            verdict
        );
        if base.cpus != cur.cpus {
            warnings.push(format!(
                "`{}` measured at {} cpus vs baseline's {} — per-core comparison \
                 only approximates contention effects",
                cur.id, cur.cpus, base.cpus
            ));
        }
        let comparable = baseline.seed == current.seed
            && baseline.scale == current.scale
            && base.trials == cur.trials;
        if comparable && base.checksum != cur.checksum {
            warnings.push(format!(
                "`{}` checksum drift ({} → {}): outputs changed at identical seeds",
                cur.id, base.checksum, cur.checksum
            ));
        }
        match (
            base.rss_exclusive,
            cur.rss_exclusive,
            base.peak_rss_kib,
            cur.peak_rss_kib,
        ) {
            (true, true, Some(b), Some(c)) => {
                if b > 0 && c as f64 > b as f64 * (1.0 + threshold) {
                    warnings.push(format!(
                        "`{}` peak RSS grew {} → {} KiB (advisory unless --strict)",
                        cur.id, b, c
                    ));
                }
            }
            _ => rss_skipped += 1,
        }
    }
    for base in &baseline.scenarios {
        if !current.scenarios.iter().any(|c| c.id == base.id) {
            let _ = writeln!(
                text,
                "| {} | {:.3e} | — | — | missing from current run |",
                base.id,
                base.slots_per_sec / base.cpus.max(1) as f64
            );
        }
    }
    if rss_skipped > 0 {
        warnings.push(format!(
            "RSS comparison skipped for {rss_skipped} scenario(s): cumulative or absent \
             measurements on at least one side"
        ));
    }
    let _ = writeln!(
        text,
        "{} regression(s), {} improvement(s), {} warning(s)",
        regressions.len(),
        improvements.len(),
        warnings.len()
    );
    Comparison {
        text,
        regressions,
        improvements,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(rates: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "deadbee".into(),
            seed: 2014,
            scale: "smoke".into(),
            repeats: 2,
            cpus: 8,
            notes: String::new(),
            scenarios: rates
                .iter()
                .map(|(id, rate)| ScenarioResult {
                    id: id.to_string(),
                    engine: "duel-fast".into(),
                    trials: 10,
                    slots: 1000,
                    wall_secs: 1000.0 / rate,
                    slots_per_sec: *rate,
                    trials_per_sec: 10.0 * rate / 1000.0,
                    cpus: 1,
                    peak_rss_kib: Some(4096),
                    rss_exclusive: true,
                    checksum: "00000000000000aa".into(),
                })
                .collect(),
            scaling: Vec::new(),
        }
    }

    #[test]
    fn schema_round_trips() {
        let mut report = report_with(&[("duel_clean", 1.5e8), ("bcast_n8_jammed", 3.25e7)]);
        report.scenarios[1].peak_rss_kib = None;
        report.scenarios[1].rss_exclusive = false;
        report.scaling = vec![
            ScalingPoint {
                cpus: 1,
                wall_secs: 2.0,
                slots_per_sec: 1.0e8,
                speedup: 1.0,
                efficiency: 1.0,
            },
            ScalingPoint {
                cpus: 4,
                wall_secs: 0.75,
                slots_per_sec: 2.67e8,
                speedup: 2.67,
                efficiency: 0.67,
            },
        ];
        let text = report.to_json().render();
        let back = BenchReport::parse(&text).expect("parse");
        assert_eq!(report, back);
    }

    #[test]
    fn v1_reports_parse_with_compat_defaults() {
        // A pre-scaling baseline: no per-scenario cpus/rss_exclusive, RSS
        // as a bare number with 0 for "unavailable", no scaling array.
        let v1_scenario = |id: &str, rss: f64| {
            Json::obj(vec![
                ("id", Json::Str(id.into())),
                ("engine", Json::Str("duel-fast".into())),
                ("trials", Json::Num(10.0)),
                ("slots", Json::Num(1000.0)),
                ("wall_secs", Json::Num(0.5)),
                ("slots_per_sec", Json::Num(2000.0)),
                ("trials_per_sec", Json::Num(20.0)),
                ("peak_rss_kib", Json::Num(rss)),
                ("checksum", Json::Str("00000000000000aa".into())),
            ])
        };
        let v1 = Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            ("git_sha", Json::Str("deadbee".into())),
            ("seed", Json::Str("2014".into())),
            ("scale", Json::Str("smoke".into())),
            ("repeats", Json::Num(2.0)),
            ("cpus", Json::Num(8.0)),
            ("notes", Json::Str(String::new())),
            (
                "scenarios",
                Json::Arr(vec![
                    v1_scenario("duel_no_probe", 0.0),
                    v1_scenario("duel_probed", 4096.0),
                ]),
            ),
        ]);
        let report = BenchReport::parse(&v1.render()).expect("v1 parses");
        assert_eq!(report.schema_version, 1);
        assert!(report.scaling.is_empty());
        let a = &report.scenarios[0];
        assert_eq!((a.cpus, a.peak_rss_kib, a.rss_exclusive), (1, None, false));
        let b = &report.scenarios[1];
        assert_eq!(
            (b.cpus, b.peak_rss_kib, b.rss_exclusive),
            (1, Some(4096), false)
        );
    }

    #[test]
    fn unsupported_schema_version_is_rejected() {
        let mut report = report_with(&[("duel_clean", 1.0)]);
        report.schema_version = SCHEMA_VERSION + 1;
        let text = report.to_json().render();
        let err = BenchReport::parse(&text).expect_err("future schema");
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn synthetic_2x_slowdown_trips_the_gate() {
        let baseline = report_with(&[("duel_clean", 2.0e8), ("duel_jammed", 1.0e8)]);
        let slowed = report_with(&[("duel_clean", 1.0e8), ("duel_jammed", 1.0e8)]);
        let cmp = compare(&baseline, &slowed, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions, vec!["duel_clean".to_string()]);
        assert!(cmp.text.contains("REGRESSION"));
    }

    #[test]
    fn noise_within_threshold_passes() {
        let baseline = report_with(&[("duel_clean", 1.0e8)]);
        let wiggled = report_with(&[("duel_clean", 0.85e8)]); // −15% < 35% gate
        let cmp = compare(&baseline, &wiggled, DEFAULT_THRESHOLD);
        assert!(cmp.passed());
        assert!(cmp.improvements.is_empty());
    }

    #[test]
    fn large_speedup_is_reported_as_improvement() {
        let baseline = report_with(&[("duel_clean", 1.0e8)]);
        let faster = report_with(&[("duel_clean", 2.0e8)]);
        let cmp = compare(&baseline, &faster, DEFAULT_THRESHOLD);
        assert!(cmp.passed());
        assert_eq!(cmp.improvements, vec!["duel_clean".to_string()]);
    }

    #[test]
    fn cpus_mismatch_is_judged_per_core_with_warning() {
        let baseline = report_with(&[("duel_clean", 1.0e8)]); // 1 cpu
        let mut current = report_with(&[("duel_clean", 3.2e8)]);
        current.scenarios[0].cpus = 4; // per-core 0.8e8: −20%, inside gate
        let cmp = compare(&baseline, &current, DEFAULT_THRESHOLD);
        assert!(cmp.passed(), "{}", cmp.text);
        // Raw 3.2e8 vs 1.0e8 would read as a 3.2× improvement; per-core
        // normalisation must see through it.
        assert!(cmp.improvements.is_empty(), "{}", cmp.text);
        assert!(
            cmp.warnings
                .iter()
                .any(|w| w.contains("measured at 4 cpus")),
            "{:?}",
            cmp.warnings
        );
        assert!(!cmp.passed_strict(), "warnings must gate under --strict");
    }

    #[test]
    fn checksum_drift_at_matching_config_warns() {
        let baseline = report_with(&[("duel_clean", 1.0e8)]);
        let mut drifted = report_with(&[("duel_clean", 1.0e8)]);
        drifted.scenarios[0].checksum = "00000000000000bb".into();
        let cmp = compare(&baseline, &drifted, DEFAULT_THRESHOLD);
        assert!(cmp.passed(), "drift warns but does not gate");
        assert!(
            cmp.warnings.iter().any(|w| w.contains("checksum drift")),
            "{:?}",
            cmp.warnings
        );
        assert!(
            !cmp.text.contains("checksum drift"),
            "warnings stay out of the stdout table"
        );
    }

    #[test]
    fn exclusive_rss_growth_warns_without_gating() {
        let baseline = report_with(&[("duel_clean", 1.0e8)]);
        let mut grown = report_with(&[("duel_clean", 1.0e8)]);
        grown.scenarios[0].peak_rss_kib = Some(4096 * 3);
        let cmp = compare(&baseline, &grown, DEFAULT_THRESHOLD);
        assert!(cmp.passed());
        assert!(
            cmp.warnings.iter().any(|w| w.contains("peak RSS grew")),
            "{:?}",
            cmp.warnings
        );
        assert!(
            !cmp.warnings.iter().any(|w| w.contains("skipped")),
            "{:?}",
            cmp.warnings
        );
    }

    #[test]
    fn rss_comparison_skips_cumulative_and_absent_measurements() {
        // A cumulative reading 100× the baseline must not warn: it is an
        // upper bound over the whole process, not this scenario's peak.
        let baseline = report_with(&[("duel_clean", 1.0e8), ("duel_jammed", 1.0e8)]);
        let mut current = report_with(&[("duel_clean", 1.0e8), ("duel_jammed", 1.0e8)]);
        current.scenarios[0].peak_rss_kib = Some(4096 * 100);
        current.scenarios[0].rss_exclusive = false;
        current.scenarios[1].peak_rss_kib = None;
        current.scenarios[1].rss_exclusive = false;
        let cmp = compare(&baseline, &current, DEFAULT_THRESHOLD);
        assert!(cmp.passed());
        assert!(
            !cmp.warnings.iter().any(|w| w.contains("peak RSS grew")),
            "{:?}",
            cmp.warnings
        );
        assert!(
            cmp.warnings
                .iter()
                .any(|w| w.contains("RSS comparison skipped for 2 scenario(s)")),
            "{:?}",
            cmp.warnings
        );
    }

    #[test]
    fn missing_and_new_scenarios_are_noted() {
        let baseline = report_with(&[("old_cell", 1.0e8)]);
        let current = report_with(&[("new_cell", 1.0e8)]);
        let cmp = compare(&baseline, &current, DEFAULT_THRESHOLD);
        assert!(cmp.passed());
        // A scenario absent from the baseline (e.g. a freshly added
        // registry entry measured against an older BENCH file) is
        // reported as new — it must not gate even under `--strict`.
        assert!(
            cmp.passed_strict(),
            "a new scenario must not fail --strict: {:?}",
            cmp.warnings
        );
        assert!(cmp.text.contains("new scenario"));
        assert!(cmp.text.contains("missing from current run"));
    }

    #[test]
    fn smoke_grid_excludes_scale_ceiling_entries() {
        let names = |scale, only: &[String]| {
            grid(scale, only)
                .iter()
                .map(|e| e.name.to_string())
                .collect::<Vec<_>>()
        };
        let standard = names(PerfScale::Standard, &[]);
        assert!(standard.iter().any(|n| n == "bcast_n65536"), "{standard:?}");
        assert!(standard.iter().any(|n| n == "bcast_n1e6"), "{standard:?}");
        let smoke = names(PerfScale::Smoke, &[]);
        assert!(!smoke.iter().any(|n| n == "bcast_n65536"), "{smoke:?}");
        assert!(!smoke.iter().any(|n| n == "bcast_n1e6"), "{smoke:?}");
        assert!(smoke.len() >= 6, "smoke grid gutted: {smoke:?}");
        // Explicit selection overrides the smoke exclusion.
        let only = vec!["bcast_n65536".to_string()];
        assert_eq!(names(PerfScale::Smoke, &only), vec!["bcast_n65536"]);
        // And gets its own journal fingerprint.
        assert_ne!(
            fingerprint_entries(&grid(PerfScale::Smoke, &only), 2014, PerfScale::Smoke),
            perf_fingerprint(2014, PerfScale::Smoke)
        );
    }

    #[test]
    fn resolve_only_flags_unknown_names() {
        assert!(resolve_only(&[]).is_empty());
        assert!(resolve_only(&["bcast_n65536".to_string()]).is_empty());
        let unknown = resolve_only(&["bcast_n65536".to_string(), "nope".to_string()]);
        assert_eq!(unknown, vec!["nope".to_string()]);
    }

    #[test]
    fn smoke_grid_runs_and_is_deterministic() {
        // The real grid at smoke scale: a few seconds, and two runs at the
        // same seed must produce identical checksums and slot counts.
        let a = run_perf(2014, PerfScale::Smoke, "test", "", &[1]);
        let b = run_perf(2014, PerfScale::Smoke, "test", "", &[1]);
        assert_eq!(a.scenarios.len(), b.scenarios.len());
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.slots, y.slots, "{}", x.id);
            assert_eq!(x.checksum, y.checksum, "{}", x.id);
            assert!(x.slots > 0, "{} simulated nothing", x.id);
            assert!(x.slots_per_sec > 0.0);
            assert_eq!(x.cpus, 1);
        }
        // A serial pass on Linux attributes RSS exclusively (probe + reset
        // both available); elsewhere the states degrade honestly.
        for s in &a.scenarios {
            if s.rss_exclusive {
                assert!(
                    s.peak_rss_kib.is_some(),
                    "{}: exclusive without value",
                    s.id
                );
            }
        }
        assert_eq!(a.scaling.len(), 1);
        assert!((a.scaling[0].speedup - 1.0).abs() < 1e-12);
        // And a re-run of the same binary passes its own comparator. The
        // timing threshold is loosened here: this test shares the machine
        // with the rest of the (parallel, unoptimised) suite, where the
        // default ±35% gate is routinely exceeded by scheduler noise. The
        // gate semantics themselves are covered by the synthetic tests
        // above; what must hold on a re-run is zero checksum drift.
        let cmp = compare(&a, &b, 2.0);
        assert!(cmp.passed(), "{}", cmp.text);
        assert!(
            !cmp.warnings.iter().any(|w| w.contains("checksum drift")),
            "{:?}",
            cmp.warnings
        );
    }

    #[test]
    fn multi_cpu_passes_agree_and_record_a_scaling_curve() {
        // run_perf itself panics if the 2-worker pass produces different
        // slots or checksums than the serial pass, so completing at all is
        // the schedule-independence assertion.
        let r = run_perf(2014, PerfScale::Smoke, "test", "", &[1, 2]);
        assert_eq!(r.scaling.len(), 2);
        assert_eq!((r.scaling[0].cpus, r.scaling[1].cpus), (1, 2));
        assert!((r.scaling[0].speedup - 1.0).abs() < 1e-12);
        assert!(r.scaling[1].speedup > 0.0);
        assert!(r.scaling[1].efficiency > 0.0);
        // Per-scenario stats come from the first (serial) pass.
        for s in &r.scenarios {
            assert_eq!(s.cpus, 1, "{}", s.id);
        }
    }

    #[test]
    fn git_sha_probe_does_not_crash() {
        let sha = git_short_sha();
        assert!(!sha.is_empty());
    }

    fn tmp_journal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rcb_perf_test_{}_{name}.jsonl", std::process::id()))
    }

    /// Copies the first `keep` records of a journal — the state a killed
    /// run leaves behind.
    fn truncated_copy(src: &std::path::Path, dst: &std::path::Path, keep: usize) {
        let full = Journal::load(src).expect("source journal");
        let mut part = Journal::create(dst, full.header().clone());
        let cells: Vec<String> = full.cells().take(keep).map(str::to_string).collect();
        for cell in cells {
            let payload = full.get(&cell).expect("listed cell").clone();
            part.append(cell, payload);
        }
        part.flush().expect("flush partial journal");
    }

    #[test]
    fn interrupted_grid_resumes_bit_identically_across_cpus() {
        let full = tmp_journal("resume_full");
        let part = tmp_journal("resume_part");
        let ctl = PerfControl {
            journal: Some(full.clone()),
            ..PerfControl::default()
        };
        let a = run_perf_ctl(2014, PerfScale::Smoke, "test", "", &[1, 2], &ctl)
            .expect("journaled run")
            .report
            .expect("no deadline: the grid completes");

        // Kill-and-resume simulation: only the first 5 cells survived.
        truncated_copy(&full, &part, 5);
        let ctl = PerfControl {
            resume: Some(part.clone()),
            ..PerfControl::default()
        };
        let run = run_perf_ctl(2014, PerfScale::Smoke, "test", "", &[1, 2], &ctl)
            .expect("resume accepted: same fingerprint");
        assert_eq!(run.resumed_cells, 5);
        let b = run.report.expect("resumed run completes");

        assert_eq!(a.scenarios.len(), b.scenarios.len());
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.slots, y.slots, "{}: slots drifted under resume", x.id);
            assert_eq!(
                x.checksum, y.checksum,
                "{}: resume must be bit-identical to an uninterrupted run",
                x.id
            );
        }
        // The journaled wall times of resumed cells are reused verbatim.
        let journaled = Journal::load(&part).expect("resume journal grew");
        assert_eq!(journaled.len(), full_cell_count(&a, &[1, 2]));
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&part).ok();
    }

    fn full_cell_count(report: &BenchReport, cpus: &[u64]) -> usize {
        report.scenarios.len() * cpus.len()
    }

    #[test]
    fn an_elapsed_deadline_cuts_the_grid_with_the_journal_flushed() {
        let path = tmp_journal("deadline_cut");
        let ctl = PerfControl {
            journal: Some(path.clone()),
            resume: None,
            deadline: Deadline::after(std::time::Duration::ZERO),
            only: Vec::new(),
        };
        let run = run_perf_ctl(2014, PerfScale::Smoke, "test", "", &[1], &ctl)
            .expect("a deadline cut is not an error");
        assert!(run.deadline_hit);
        assert!(run.report.is_none(), "a cut grid yields no report");
        assert_eq!(run.journal_path.as_deref(), Some(path.as_path()));
        let j = Journal::load(&path).expect("the journal was flushed on the cut");
        assert_eq!(j.header().kind, "perf");
        assert_eq!(
            j.header().fingerprint,
            perf_fingerprint(2014, PerfScale::Smoke)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_journal_from_different_work() {
        let path = tmp_journal("wrong_seed");
        let j = Journal::create(
            &path,
            JournalHeader::new("perf", perf_fingerprint(1, PerfScale::Smoke), Json::Null),
        );
        j.flush().expect("flush");
        let ctl = PerfControl {
            resume: Some(path.clone()),
            ..PerfControl::default()
        };
        let err = run_perf_ctl(2014, PerfScale::Smoke, "test", "", &[1], &ctl)
            .expect_err("seed 1 journal must not resume a seed 2014 run");
        assert!(
            matches!(err, JournalError::FingerprintMismatch { .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn measured_payload_round_trips() {
        let m = Measured {
            slots: u64::MAX - 7,
            checksum: 0x0123_4567_89ab_cdef,
            wall_secs: 1.25,
            peak_rss_kib: Some(4096),
            rss_exclusive: true,
        };
        assert_eq!(Measured::from_json(&m.to_json()).unwrap(), m);
        let none = Measured {
            peak_rss_kib: None,
            rss_exclusive: false,
            ..m
        };
        assert_eq!(Measured::from_json(&none.to_json()).unwrap(), none);
    }
}
