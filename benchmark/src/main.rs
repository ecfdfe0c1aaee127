//! The simulator's benchmark: four workloads through the production entry
//! points, end-to-end metrics from an untraced run, per-layer metrics from
//! a separate traced run, and every output checked against a checksum.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs, one at a time, each in a fresh
//! child process so that its peak RSS is its own. The last line of a
//! workload's standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. End-to-end times are reference
//! times (see `calib`). See README.md.

mod calib;
mod kernels;
mod passes;
mod stats;
mod trace;
mod workloads;

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use rcb_sim::scenario::ScenarioSpec;

use calib::Reference;
use passes::{batch_trials, Batch};
use stats::Tally;
use workloads::{Workload, PINNED_SEED};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

/// Worker threads for pooled passes: two, or fewer on a smaller machine.
const MAX_THREADS: usize = 2;

/// Set-up is repeated this many times and its median reported …
const SETUP_REPEATS: usize = 7;
/// … but no fewer than this many, and no more once set-up has taken this
/// share of the measuring time.
const MIN_SETUP_REPEATS: usize = 3;
const SETUP_SHARE: f64 = 0.15;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut seen: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!(
                "unknown argument `{flag}`; valid flags: --workload, --seed, --seconds, --trace"
            ));
        }
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::parse(&value)?),
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got `{value}`"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got `{value}`"))?
            }
            _ => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
        }
        seen.push(flag);
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        None => run_all(&args),
        Some(workload) => run_workload(workload, &args, entry),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process, one after another.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut all_ok = true;
    for workload in workloads::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn run_workload(workload: Workload, args: &Args, entry: Instant) -> Result<bool, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    let reference = Reference::new();
    let (specs, setup_s) = set_up(workload, args.seed, args.seconds, entry, &reference)?;
    println!(
        "workload {}  seed {}  threads {threads}  batch {} trials",
        workload.name(),
        args.seed,
        batch_trials(&specs)
    );
    let report = if args.trace {
        traced_run(workload, &specs, threads, args, &reference)?
    } else {
        untraced_run(workload, &specs, threads, args, setup_s, &reference)?
    };
    report.print();
    Ok(report.correct)
}

/// Set-up runs the first 1/`WARM_UP_SHARE` of each spec's trials as
/// warm-up (at least one).
const WARM_UP_SHARE: u64 = 20;

/// Builds and validates the batch and runs the warm-up trials (the first
/// twentieth of every spec's trials, so every cell's code is warm before
/// timing), several times; returns the batch and the median set-up time in
/// reference seconds. The first set-up is timed from `main`'s entry; a
/// calibration follows every set-up.
fn set_up(
    workload: Workload,
    seed: u64,
    seconds: f64,
    entry: Instant,
    reference: &Reference,
) -> Result<(Vec<ScenarioSpec>, f64), String> {
    let mut walls = Vec::with_capacity(SETUP_REPEATS);
    let mut calibrations = Vec::with_capacity(SETUP_REPEATS);
    let mut start = entry;
    loop {
        let specs = workload.batch(seed);
        for spec in &specs {
            spec.validate()
                .map_err(|e| format!("{}: invalid spec: {e}", workload.name()))?;
        }
        for spec in &specs {
            for trial in 0..spec.trials.div_ceil(WARM_UP_SHARE) {
                black_box(passes::front_door_trial(spec, trial));
            }
        }
        walls.push(start.elapsed().as_secs_f64());
        calibrations.push(reference.measure());
        let spent: f64 = walls.iter().sum();
        if walls.len() == SETUP_REPEATS
            || (walls.len() >= MIN_SETUP_REPEATS && spent > SETUP_SHARE * seconds)
        {
            let mut times: Vec<f64> = (0..walls.len())
                .map(|i| {
                    let before = calibrations[i.saturating_sub(1)];
                    calib::to_reference(walls[i], before, calibrations[i])
                })
                .collect();
            return Ok((specs, stats::median(&mut times)));
        }
        start = Instant::now();
    }
}

/// Trial-time percentiles reported for a pass.
const TRIAL_PERCENTILES: [f64; 3] = [50.0, 90.0, 99.0];

/// Repeated untraced passes over the batch.
struct Measured {
    batches: Vec<Batch>,
    /// Per pass, the nearest-rank [`TRIAL_PERCENTILES`] of its trials' host
    /// times in ms; a tail is `None` when fewer than ten trials lie beyond.
    trial_ms: Vec<[Option<f64>; 3]>,
    /// Per pass, reference seconds per wall second (see `calib`).
    to_reference: Vec<f64>,
}

impl Measured {
    /// Median over the passes of a per-pass statistic.
    fn median_over_passes(&self, pass_value: impl Fn(usize) -> Option<f64>) -> Option<f64> {
        let mut values: Vec<f64> = (0..self.batches.len())
            .map(&pass_value)
            .collect::<Option<_>>()?;
        Some(stats::median(&mut values))
    }

    fn fold(&self) -> u64 {
        self.batches[0].fold
    }

    fn consistent(&self) -> bool {
        self.batches.iter().all(|b| b.fold == self.fold())
    }

    fn median_wall_s(&self) -> f64 {
        self.median_over_passes(|i| Some(self.batches[i].wall.as_secs_f64()))
            .expect("every pass has a wall time")
    }

    fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for b in &self.batches {
            tally.add(b.tally);
        }
        tally
    }
}

/// Passes over the batch, at least one, for as long as the next one is
/// expected to end within `seconds`, with a calibration before the first
/// pass and after every pass.
fn measure(
    workload: Workload,
    specs: &[ScenarioSpec],
    threads: usize,
    seconds: f64,
    reference: &Reference,
) -> Measured {
    let mut trial_ns = vec![0u64; batch_trials(specs)];
    let mut m = Measured {
        batches: Vec::new(),
        trial_ms: Vec::new(),
        to_reference: Vec::new(),
    };
    let cal_threads = if workload.pooled() { threads } else { 1 };
    let start = Instant::now();
    let mut before = reference.measure_on(cal_threads);
    loop {
        m.batches.push(if workload.pooled() {
            passes::pool(specs, threads, &mut trial_ns)
        } else {
            passes::front_door(specs, &mut trial_ns)
        });
        let after = reference.measure_on(cal_threads);
        m.to_reference.push(calib::to_reference(1.0, before, after));
        before = after;
        trial_ns.sort_unstable();
        m.trial_ms.push(TRIAL_PERCENTILES.map(|pct| {
            let ns = if pct == 50.0 {
                Some(stats::percentile(&trial_ns, pct))
            } else {
                stats::tail_percentile(&trial_ns, pct)
            };
            ns.map(|ns| ns as f64 / 1e6)
        }));
        let elapsed = start.elapsed().as_secs_f64();
        let passes = m.batches.len() as f64;
        if elapsed / passes * (passes + 1.0) > seconds {
            return m;
        }
    }
}

/// Checks a batch checksum against the pinned one when the seed is the
/// pinned seed; prints the verdict.
fn check_pinned(workload: Workload, seed: u64, fold: u64) -> bool {
    if seed != PINNED_SEED {
        println!("checksum {fold:#018x}  (pinned only for seed {PINNED_SEED})");
        return true;
    }
    let pinned = workload.pinned_checksum();
    let ok = fold == pinned;
    println!(
        "checksum {fold:#018x}  pinned {pinned:#018x}  {}",
        if ok {
            "ok"
        } else {
            "DRIFT: the simulator's behaviour changed"
        }
    );
    ok
}

/// A metric as (name, value, unit).
type Metric = (&'static str, f64, &'static str);

struct Report {
    correct: bool,
    tally: Tally,
    /// Printed and written to the result line.
    metrics: Vec<Metric>,
    /// Printed only.
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        println!("{:<36} {:>16}  unit", "metric", "value");
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6}  {unit}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        println!("{}", self.json());
    }

    /// The result line. Values print with all their digits.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{name} is not finite");
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn untraced_run(
    workload: Workload,
    specs: &[ScenarioSpec],
    threads: usize,
    args: &Args,
    setup_s: f64,
    reference: &Reference,
) -> Result<Report, String> {
    let m = measure(workload, specs, threads, args.seconds, reference);
    let consistent = m.consistent();
    let pinned = check_pinned(workload, args.seed, m.fold());
    let mut tally = m.tally();
    if !(consistent && pinned) {
        // A drifted batch counts every one of its trials as failed.
        tally.failed = tally.attempted;
    }
    // Wall-clock figures, printed beside the reference-time metrics.
    let wall_slots_per_s = |i: usize| m.batches[i].slots as f64 / m.batches[i].wall.as_secs_f64();
    let slots_per_s = m
        .median_over_passes(|i| Some(wall_slots_per_s(i) / m.to_reference[i]))
        .expect("every pass has a rate");
    let trial_ms = |k: usize| m.median_over_passes(|i| Some(m.trial_ms[i][k]? * m.to_reference[i]));
    let wall_trial_ms_p50 = m
        .median_over_passes(|i| m.trial_ms[i][0])
        .expect("a pass has a median trial");
    let n = batch_trials(specs);
    let tail = |k: usize| match trial_ms(k) {
        Some(v) => format!("{v:.6} ms"),
        None => format!(
            "null (fewer than {} of {n} trials beyond it)",
            stats::MIN_BEYOND
        ),
    };
    let walls: Vec<String> = m
        .batches
        .iter()
        .map(|b| format!("{:.3}", b.wall.as_secs_f64()))
        .collect();
    Ok(Report {
        correct: consistent && pinned,
        tally,
        metrics: vec![
            ("slots_per_s", slots_per_s, "slots/s"),
            (
                "trial_ms_p50",
                trial_ms(0).expect("a pass has a median trial"),
                "ms",
            ),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ],
        notes: vec![
            format!(
                "passes {}  trials per pass {n}  (statistics are medians over passes)",
                m.batches.len()
            ),
            format!("pass walls s: {}", walls.join(" ")),
            format!(
                "wall clock: slots_per_s {:.6}  trial_ms_p50 {wall_trial_ms_p50:.6} ms  \
                 (reference s per wall s: median {:.4})",
                m.median_over_passes(|i| Some(wall_slots_per_s(i)))
                    .expect("every pass has a rate"),
                m.median_over_passes(|i| Some(m.to_reference[i]))
                    .expect("every pass has a factor"),
            ),
            format!("trial_ms_p90 {}", tail(1)),
            format!("trial_ms_p99 {}", tail(2)),
            format!(
                "failed_frac {} ({} of {} trials)",
                tally.failed_frac(),
                tally.failed,
                tally.attempted
            ),
            format!("batch checksum repeats across passes: {consistent}"),
        ],
    })
}

fn traced_run(
    workload: Workload,
    specs: &[ScenarioSpec],
    threads: usize,
    args: &Args,
    reference: &Reference,
) -> Result<Report, String> {
    // Untraced passes for the overhead and the checksum.
    let m = measure(workload, specs, threads, args.seconds / 2.0, reference);
    let mut traced = trace::traced_pass(specs);

    // The batch through the executor on one worker and on `threads`.
    let mut scratch = vec![0u64; batch_trials(specs)];
    let serial = passes::pool(specs, 1, &mut scratch);
    let (parallel_s, parallel_fold) = if workload.pooled() {
        (m.median_wall_s(), m.fold())
    } else {
        let parallel = passes::pool(specs, threads, &mut scratch);
        (parallel.wall.as_secs_f64(), parallel.fold)
    };
    let serial_s = serial.wall.as_secs_f64();
    // Pooled workloads are compared with the serial executor pass, serial
    // ones with their own untraced passes.
    let untraced_s = if workload.pooled() {
        serial_s
    } else {
        m.median_wall_s()
    };

    let pinned = check_pinned(workload, args.seed, m.fold());
    let checks = [
        ("untraced passes repeat the batch checksum", m.consistent()),
        (
            "traced checksum equals untraced",
            traced.fold == m.fold() && traced.repeats_agree,
        ),
        (
            "executor checksums equal untraced",
            serial.fold == m.fold() && parallel_fold == m.fold(),
        ),
        (
            "adversary wrapper reports the remaining budget",
            traced.budget_ok,
        ),
        (
            "instrumented cohort run equals the session run",
            traced.cohort.is_none_or(|c| c.matches),
        ),
    ];
    let correct = pinned && checks.iter().all(|&(_, ok)| ok);

    let mut tally = m.tally();
    tally.add(traced.tally);
    if !correct {
        tally.failed = tally.attempted;
    }

    let mut metrics = traced.layer_metrics();
    metrics.extend(kernels::measure(args.seed));
    metrics.extend([
        ("executor.serial_s", serial_s, "s"),
        ("executor.parallel_s", parallel_s, "s"),
        (
            "executor.efficiency",
            serial_s / (threads as f64 * parallel_s),
            "ratio",
        ),
        (
            "trace.overhead_frac",
            traced.wall.as_secs_f64() / untraced_s - 1.0,
            "ratio",
        ),
    ]);

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}.spans.jsonl", workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced.spans_jsonl(workload.name())))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut notes: Vec<String> = checks
        .iter()
        .map(|(what, ok)| format!("check: {what}: {ok}"))
        .collect();
    notes.push(format!(
        "untraced pass {:.6} s (median of {})  traced pass {:.6} s (mean of {})",
        m.median_wall_s(),
        m.batches.len(),
        traced.wall.as_secs_f64(),
        traced.repeats
    ));
    notes.push(traced.cohort_note());
    notes.push(format!("spans: {}", path.display()));
    Ok(Report {
        correct,
        tally,
        metrics,
        notes,
    })
}

/// Peak resident set size of this process (VmHWM) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS probe: cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("peak RSS probe: no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_four_flags() {
        let args = parse(&[
            "--workload",
            "sweep_x2",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]);
        assert_eq!(
            args,
            Ok(Args {
                workload: Some(Workload::SweepX2),
                seed: 7,
                seconds: 12.0,
                trace: true,
            })
        );
        assert_eq!(parse(&[]).map(|a| a.seed), Ok(PINNED_SEED));
    }

    #[test]
    fn rejects_unknown_flags_names_and_values() {
        let err = parse(&["--trials", "5"]).unwrap_err();
        assert!(
            err.contains("--trials") && err.contains("--workload"),
            "{err}"
        );
        let err = parse(&["--workload", "duel"]).unwrap_err();
        assert!(
            err.contains("duel_sweep, bcast_pernode, bcast_cohort, sweep_x2"),
            "{err}"
        );
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "yes"]).is_err());
        assert!(parse(&["--seed", "1", "--seed", "2"]).is_err());
    }
}
