//! `rcbsim` — the command-line front door: one-off simulations, the
//! scenario registry, the conformance grid, and the paper's experiments.
//!
//! ```text
//! rcbsim duel      --profile fig1 --epsilon 0.01 --budget 65536 --trials 100
//! rcbsim broadcast --n 64 --budget 1048576 --adversary suffix --q 1.0 --trials 10
//! rcbsim exp e8                      # one experiment (DESIGN.md §4)
//! rcbsim exp all --scale full        # every table in EXPERIMENTS.md
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` / `--key=value`): the
//! dependency budget of this workspace is deliberately small and the
//! grammar is trivial.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use crate::experiments::common::{split_truncated, SweepControl};
use crate::experiments::{self, Report};
use crate::scale::Scale;
use rcb_analysis::table::{num, TableBuilder};
use rcb_mathkit::stats::RunningStats;
use rcb_sim::conformance::{default_grid, run_grid, ConformanceConfig};
use rcb_sim::deadline::Deadline;
use rcb_sim::error::SimError;
use rcb_sim::executor::run_specs_journaled;
use rcb_sim::faults::FaultPlan;
use rcb_sim::journal::{Journal, JournalKind};
use rcb_sim::outcome::StreamOutcome;
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{
    find_scenario, fnv1a, registry, AdversarySpec, DuelProtocol, Outcome, ScenarioSpec, Workload,
    FNV_OFFSET,
};

/// Parsed command line: one subcommand, optional further positionals
/// (only `scenario` and `exp` take any), plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: Option<String>,
    positionals: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name). Positionals after the
    /// command are collected; each command enforces its own arity at
    /// dispatch (only `scenario` and `exp` accept any).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(stripped) = token.strip_prefix("--") {
                if stripped.is_empty() {
                    return Err("bare `--` is not a valid option".into());
                }
                let (key, value) = match stripped.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => {
                        let value = iter
                            .next()
                            .ok_or_else(|| format!("option --{stripped} needs a value"))?;
                        (stripped.to_string(), value)
                    }
                };
                if args.options.insert(key.clone(), value).is_some() {
                    return Err(format!("option --{key} given twice"));
                }
            } else if args.command.is_none() {
                args.command = Some(token);
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// The `i`-th positional after the command, if present.
    fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Typed option lookup with a default.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
        }
    }

    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Typed optional lookup: `Ok(None)` when the flag is absent.
    pub fn get_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.options.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
        }
    }
}

/// Builds a [`FaultPlan`] from the shared `--fault-*` flags (`duel` and
/// `broadcast` accept all four), validated for a run of `population` nodes
/// (2 for a duel: 0 = Alice, 1 = Bob):
///
/// * `--fault-loss F` — drop each decodable reception with probability `F`
/// * `--fault-crash NODE:START:PERIODS[:lose]` — radio off for the window;
///   `:lose` wipes volatile state on reboot (a no-op on a duel, whose
///   Figure 1 state is all re-synced or stable)
/// * `--fault-skew NODE:SLOTS` — the first `SLOTS` slots of every period
///   decode as noise for `NODE`
/// * `--fault-battery N` — hard per-node energy cap of `N` slot-units
fn fault_plan_from_args(args: &Args, population: usize) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    if let Some(p) = args.get_opt::<f64>("fault-loss")? {
        plan = plan.with_loss(p);
    }
    if let Some(spec) = args.options.get("fault-crash") {
        let parts: Vec<&str> = spec.split(':').collect();
        let usage = || format!("--fault-crash: expected NODE:START:PERIODS[:lose], got `{spec}`");
        if !(3..=4).contains(&parts.len()) {
            return Err(usage());
        }
        let node: usize = parts[0].parse().map_err(|_| usage())?;
        let start: u64 = parts[1].parse().map_err(|_| usage())?;
        let periods: u64 = parts[2].parse().map_err(|_| usage())?;
        let lose_state = match parts.get(3) {
            None => false,
            Some(&"lose") => true,
            Some(_) => return Err(usage()),
        };
        plan = plan.with_crash(node, start, periods, lose_state);
    }
    if let Some(spec) = args.options.get("fault-skew") {
        let usage = || format!("--fault-skew: expected NODE:SLOTS, got `{spec}`");
        let (node, slots) = spec.split_once(':').ok_or_else(usage)?;
        let node: usize = node.parse().map_err(|_| usage())?;
        let slots: u64 = slots.parse().map_err(|_| usage())?;
        plan = plan.with_skew(node, slots);
    }
    if let Some(cap) = args.get_opt::<u64>("fault-battery")? {
        plan = plan.with_battery(cap);
    }
    plan.validate(population).map_err(|e| e.to_string())?;
    Ok(plan)
}

const HELP: &str = "\
rcbsim — resource-competitive broadcast simulator

USAGE: rcbsim <COMMAND> [--key value ...]

COMMANDS:
  duel       1-to-1 broadcast (Figure 1 / KSY) vs a blanket blocker
             --profile fig1|ksy   --epsilon F (fig1 only)
             --start-epoch N (default 8 fig1, 4 ksy)   --budget N
             --q F (block fraction)   --trials N   --seed N
  broadcast  1-to-n broadcast (Figure 2)
             --n N   --budget N   --adversary suffix|random|keepalive|none
             --q F (block fraction; random: jam rate in [0, 1))
             --trials N   --seed N
  conformance  cross-engine agreement grid (exact vs fast engines)
             --trials N (default 200)   --seed N (default 2014)
             --alpha F (default 0.001)
  scenario   named declarative scenarios (the pinned registry)
             scenario list          table of every registry entry
             scenario names         bare names, one per line
             scenario run <NAME>    run one entry
               --trials N   --seed N  (override the registry defaults)
  exp        the paper's experiments (DESIGN.md §4, EXPERIMENTS.md)
             exp <ID>               run one, e.g. `exp e3`
             exp all                run E1–E16 in order
               --scale quick|full (default quick)   --seed N
               --journal-dir DIR  checkpoint every spec-backed batch
                                  (all but E4, E8, E10, E12, E14) into
                                  DIR; re-running resumes
               --deadline SECS    wall-clock budget for those batches
             exits nonzero, naming each failed verdict, when a fitted
             exponent leaves its band, E5's bracket check fails or
             E15's loss sweep shows a cliff
  help       this text

CRASH SAFETY (scenario run):
  --journal PATH     checkpoint completed cells to a new journal of
                     FNV-1a-checksummed records, each appended as its
                     trial finishes, so a killed run keeps them (an
                     existing file is refused)
  --resume PATH      skip the journal's completed cells and continue; a
                     journal from different work is refused, and resumed
                     results are bit-identical to an uninterrupted run
  --deadline SECS    cooperative wall-clock budget: in-flight work
                     finishes and the exact --resume invocation is printed

FAULT INJECTION (duel and broadcast):
  --fault-loss F                       drop decodable receptions w.p. F
  --fault-crash NODE:START:PERIODS[:lose]
                                       radio off for the window; `:lose`
                                       wipes volatile state on reboot
                                       (a duel has none: a no-op there)
  --fault-skew NODE:SLOTS              first SLOTS slots of each period
                                       decode as noise for NODE
  --fault-battery N                    hard per-node energy cap

  e.g. rcbsim duel --budget 4096 --fault-loss 0.2
       rcbsim broadcast --n 16 --adversary none --fault-crash 3:2:8:lose
";

/// The `--fault-*` flags [`fault_plan_from_args`] reads.
const FAULT_FLAGS: [&str; 4] = ["fault-loss", "fault-crash", "fault-skew", "fault-battery"];

/// The `--flag` names each command reads (`None` for an unknown command).
/// [`run_cli`] rejects any other flag, so a typo such as `--trails` fails
/// loudly instead of silently running with the default.
fn command_flags(command: &str) -> Option<Vec<&'static str>> {
    let (own, shared): (&[&str], &[&str]) = match command {
        "help" => (&[], &[]),
        "duel" => (
            &[
                "profile",
                "epsilon",
                "start-epoch",
                "budget",
                "q",
                "trials",
                "seed",
            ],
            &FAULT_FLAGS,
        ),
        "broadcast" => (
            &["n", "budget", "adversary", "q", "trials", "seed"],
            &FAULT_FLAGS,
        ),
        "conformance" => (&["trials", "seed", "alpha"], &[]),
        "scenario" => (&["trials", "seed"], &RUN_CONTROL_FLAGS),
        "exp" => (&["scale", "seed", "journal-dir", "deadline"], &[]),
        _ => return None,
    };
    Some(own.iter().chain(shared).copied().collect())
}

/// Executes a parsed command line, returning the report text.
pub fn run_cli(args: &Args) -> Result<String, String> {
    let command = args.command().unwrap_or("help");
    if let Some(valid) = command_flags(command) {
        let mut unknown: Vec<&str> = args
            .options
            .keys()
            .map(String::as_str)
            .filter(|flag| !valid.contains(flag))
            .collect();
        if !unknown.is_empty() {
            unknown.sort_unstable();
            let render = |flags: &[&str]| {
                flags
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            return Err(format!(
                "unknown flag {} for `{command}`; valid flags: {}",
                render(&unknown),
                if valid.is_empty() {
                    "none".to_string()
                } else {
                    render(&valid)
                }
            ));
        }
    }
    if args.get_opt::<u64>("trials")? == Some(0) {
        return Err("--trials must be at least 1".into());
    }
    if !matches!(args.command(), Some("scenario" | "exp")) {
        if let Some(extra) = args.positional(0) {
            return Err(format!("unexpected positional argument `{extra}`"));
        }
    }
    match args.command() {
        None | Some("help") => Ok(HELP.to_string()),
        Some("duel") => cmd_duel(args),
        Some("broadcast") => cmd_broadcast(args),
        Some("conformance") => cmd_conformance(args),
        Some("scenario") => cmd_scenario(args),
        Some("exp") => cmd_exp(args),
        Some(other) => Err(format!("unknown command `{other}`; try `rcbsim help`")),
    }
}

fn duel_report(spec: &ScenarioSpec) -> String {
    render_duel(spec.trials, spec.run_batch_raw())
}

fn render_duel(trials: u64, results: Vec<(Outcome, Option<SimError>)>) -> String {
    let (outcomes, truncated) =
        split_truncated(results.into_iter().map(|(o, err)| (o.into_duel(), err)));
    if outcomes.is_empty() {
        return format!("every one of the {trials} trials truncated at an engine cap\n");
    }
    let mut alice = RunningStats::new();
    let mut bob = RunningStats::new();
    let mut slots = RunningStats::new();
    let mut spend = RunningStats::new();
    let mut delivered = 0u64;
    for o in &outcomes {
        alice.push(o.alice_cost as f64);
        bob.push(o.bob_cost as f64);
        slots.push(o.slots as f64);
        spend.push(o.adversary_cost as f64);
        delivered += o.delivered as u64;
    }
    let mut t = TableBuilder::new(vec!["metric", "mean", "min", "max"]);
    t.row(vec![
        "alice cost".into(),
        num(alice.mean()),
        num(alice.min()),
        num(alice.max()),
    ]);
    t.row(vec![
        "bob cost".into(),
        num(bob.mean()),
        num(bob.min()),
        num(bob.max()),
    ]);
    t.row(vec![
        "latency (slots)".into(),
        num(slots.mean()),
        num(slots.min()),
        num(slots.max()),
    ]);
    t.row(vec![
        "adversary spend T".into(),
        num(spend.mean()),
        num(spend.min()),
        num(spend.max()),
    ]);
    let mut hist = rcb_mathkit::histogram::LogHistogram::doubling();
    for o in &outcomes {
        hist.record(o.max_cost() as f64);
    }
    format!(
        "{}\ndelivered: {}/{} ({:.1}%)\ntruncated trials: {}\n\n\
         max-cost distribution (p50 ≈ {:.0}, p95 ≈ {:.0}):\n{}",
        t.markdown(),
        delivered,
        outcomes.len(),
        100.0 * delivered as f64 / outcomes.len() as f64,
        truncated,
        hist.quantile(0.5),
        hist.quantile(0.95),
        hist.render(32)
    )
}

fn cmd_duel(args: &Args) -> Result<String, String> {
    let budget: u64 = args.get("budget", 65536)?;
    let q: f64 = args.get("q", 1.0)?;
    let trials: u64 = args.get("trials", 100)?;
    let seed: u64 = args.get("seed", 2014)?;
    let faults = fault_plan_from_args(args, 2)?;
    let profile_name = args.get_str("profile", "fig1");
    let protocol = match profile_name.as_str() {
        "fig1" => {
            let epsilon: f64 = args.get("epsilon", 0.01)?;
            let start: u32 = args.get("start-epoch", 8)?;
            DuelProtocol::fig1(epsilon, start)
        }
        "ksy" => {
            if args.get_opt::<String>("epsilon")?.is_some() {
                return Err("--epsilon applies only to --profile fig1".to_string());
            }
            let start_epoch = args.get("start-epoch", DuelProtocol::ksy().start_epoch())?;
            DuelProtocol::Ksy { start_epoch }
        }
        other => return Err(format!("--profile must be fig1 or ksy, got `{other}`")),
    };
    let spec = ScenarioSpec::duel(protocol)
        .with_adversary(AdversarySpec::Budgeted {
            budget,
            fraction: q,
        })
        .with_faults(faults)
        .with_seed(seed)
        .with_trials(trials);
    spec.validate()?;
    Ok(duel_report(&spec))
}

fn broadcast_report(spec: &ScenarioSpec) -> String {
    render_broadcast(spec, spec.run_batch_raw())
}

/// The broadcast summary table. A spec whose runs pool per-node costs
/// (the cohort engine's aggregate mode) prints no max node cost: the
/// pooled value is the mean smeared over members, not a measured maximum.
fn render_broadcast(spec: &ScenarioSpec, results: Vec<(Outcome, Option<SimError>)>) -> String {
    let trials = spec.trials;
    let (outcomes, truncated) = split_truncated(
        results
            .into_iter()
            .map(|(o, err)| (o.into_broadcast(), err)),
    );
    if outcomes.is_empty() {
        return format!("every one of the {trials} trials truncated at the epoch cap\n");
    }
    let mut mean_cost = RunningStats::new();
    let mut max_cost = RunningStats::new();
    let mut slots = RunningStats::new();
    let mut spend = RunningStats::new();
    let mut informed = 0u64;
    for o in &outcomes {
        mean_cost.push(o.mean_cost());
        max_cost.push(o.max_cost() as f64);
        slots.push(o.slots as f64);
        spend.push(o.adversary_cost as f64);
        informed += o.all_informed as u64;
    }
    let mut t = TableBuilder::new(vec!["metric", "mean", "min", "max"]);
    t.row(vec![
        "mean node cost".into(),
        num(mean_cost.mean()),
        num(mean_cost.min()),
        num(mean_cost.max()),
    ]);
    t.row(if spec.pools_costs() {
        vec![
            "max node cost".into(),
            "pooled — not measured".into(),
            "—".into(),
            "—".into(),
        ]
    } else {
        vec![
            "max node cost".into(),
            num(max_cost.mean()),
            num(max_cost.min()),
            num(max_cost.max()),
        ]
    });
    t.row(vec![
        "latency (slots)".into(),
        num(slots.mean()),
        num(slots.min()),
        num(slots.max()),
    ]);
    t.row(vec![
        "adversary spend T".into(),
        num(spend.mean()),
        num(spend.min()),
        num(spend.max()),
    ]);
    format!(
        "{}\nall informed: {}/{} runs\ntruncated trials: {}\n",
        t.markdown(),
        informed,
        outcomes.len(),
        truncated
    )
}

fn render_stream(trials: u64, results: Vec<(Outcome, Option<SimError>)>) -> String {
    // Stream trials only fail as a whole on a deadline cut (per-message
    // caps are folded into `truncated_msgs`); both arms carry a stream
    // outcome worth summarising, so flatten errors away here.
    let outcomes: Vec<StreamOutcome> = results
        .into_iter()
        .filter_map(|(o, err)| err.is_none().then(|| o.into_stream()))
        .collect();
    if outcomes.is_empty() {
        return format!("every one of the {trials} trials was cut off by the deadline\n");
    }
    let mut arrivals = RunningStats::new();
    let mut delivered = RunningStats::new();
    let mut latency_p50 = RunningStats::new();
    let mut latency_p95 = RunningStats::new();
    let mut latency_max = RunningStats::new();
    let mut mean_queue = RunningStats::new();
    let mut throughput = RunningStats::new();
    let mut spend = RunningStats::new();
    let mut truncated_msgs = 0u64;
    for o in &outcomes {
        arrivals.push(o.arrivals as f64);
        delivered.push(o.delivered as f64);
        latency_p50.push(o.latency_p50 as f64);
        latency_p95.push(o.latency_p95 as f64);
        latency_max.push(o.latency_max as f64);
        mean_queue.push(o.mean_queue());
        throughput.push(o.throughput() * 1e6);
        spend.push(o.adversary_cost as f64);
        truncated_msgs += o.truncated_msgs;
    }
    let mut t = TableBuilder::new(vec!["metric", "mean", "min", "max"]);
    for (label, s) in [
        ("messages arrived", &arrivals),
        ("messages delivered", &delivered),
        ("latency p50 (slots)", &latency_p50),
        ("latency p95 (slots)", &latency_p95),
        ("latency max (slots)", &latency_max),
        ("mean queue length", &mean_queue),
        ("throughput (msg/Mslot)", &throughput),
        ("adversary spend T", &spend),
    ] {
        t.row(vec![
            label.into(),
            num(s.mean()),
            num(s.min()),
            num(s.max()),
        ]);
    }
    format!(
        "{}\nmessages cut off by engine caps: {truncated_msgs}\n",
        t.markdown()
    )
}

fn cmd_broadcast(args: &Args) -> Result<String, String> {
    let n: usize = args.get("n", 32)?;
    let budget: u64 = args.get("budget", 1 << 20)?;
    let q: f64 = args.get("q", 1.0)?;
    let trials: u64 = args.get("trials", 10)?;
    let seed: u64 = args.get("seed", 2014)?;
    let kind = args.get_str("adversary", "suffix");
    let adversary = match kind.as_str() {
        "suffix" => AdversarySpec::Budgeted {
            budget,
            fraction: q,
        },
        // `RandomRep` jams at a rate in [0, 1): without an explicit `--q`
        // the shared default 1.0 stands in as 0.999.
        "random" => AdversarySpec::Random {
            budget,
            rate: match args.get_opt::<f64>("q")? {
                None => 0.999,
                Some(rate) if (0.0..1.0).contains(&rate) => rate,
                Some(rate) => {
                    return Err(format!("--q {rate} outside [0, 1) for --adversary random"))
                }
            },
        },
        "keepalive" => AdversarySpec::KeepAlive {
            budget,
            fraction: q,
        },
        "none" => AdversarySpec::NoJam,
        other => {
            return Err(format!(
                "--adversary must be suffix|random|keepalive|none, got `{other}`"
            ))
        }
    };
    let faults = fault_plan_from_args(args, n)?;
    let spec = ScenarioSpec::broadcast(n)
        .with_adversary(adversary)
        .with_faults(faults)
        .with_seed(seed)
        .with_trials(trials);
    spec.validate()?;
    Ok(broadcast_report(&spec))
}

/// `scenario list|names|run <NAME>` — the pinned scenario registry,
/// exposed for direct use. `run` accepts `--trials`/`--seed` overrides and
/// reports an FNV-1a determinism checksum folded in trial order over every
/// outcome (including truncated trials, which surface as a count rather
/// than vanishing).
fn cmd_scenario(args: &Args) -> Result<String, String> {
    let entries = registry();
    match args.positional(0) {
        None | Some("list") => {
            let mut t = TableBuilder::new(vec![
                "name",
                "engine",
                "workload",
                "adversary",
                "faults",
                "trials",
            ]);
            for e in &entries {
                t.row(vec![
                    e.name.to_string(),
                    e.spec.engine_label().to_string(),
                    e.spec.workload.to_string(),
                    e.spec.adversary.to_string(),
                    e.spec.faults.to_string(),
                    e.spec.trials.to_string(),
                ]);
            }
            Ok(format!(
                "{}\nrun one with `rcbsim scenario run <NAME>` (--trials/--seed override)\n",
                t.markdown()
            ))
        }
        Some("names") => {
            let mut out = String::new();
            for e in &entries {
                out.push_str(e.name);
                out.push('\n');
            }
            Ok(out)
        }
        Some("run") => {
            let name = args.positional(1).ok_or_else(|| {
                "scenario run needs a NAME; try `rcbsim scenario list`".to_string()
            })?;
            if let Some(extra) = args.positional(2) {
                return Err(format!("unexpected positional argument `{extra}`"));
            }
            let entry = find_scenario(name).ok_or_else(|| {
                let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
                format!(
                    "unknown scenario `{name}`; valid names: {}",
                    names.join(", ")
                )
            })?;
            let mut spec = entry.spec;
            if let Some(trials) = args.get_opt::<u64>("trials")? {
                spec = spec.with_trials(trials);
            }
            if let Some(seed) = args.get_opt::<u64>("seed")? {
                spec = spec.with_seed(seed);
            }
            spec.validate()?;
            let rc = run_control_args(args)?;
            let fingerprint = spec.fingerprint();
            let journal = match (&rc.resume, &rc.journal) {
                (Some(path), _) => Some(Journal::open_resume(
                    path,
                    JournalKind::Scenario,
                    fingerprint,
                )),
                (None, Some(path)) => {
                    Some(Journal::create(path, JournalKind::Scenario, fingerprint))
                }
                (None, None) => None,
            }
            .transpose()
            .map_err(|e| e.to_string())?;
            let run = run_specs_journaled(
                std::slice::from_ref(&spec),
                spec.parallelism,
                rc.deadline(),
                1,
                journal.as_ref(),
            )
            .map_err(|e| e.to_string())?;
            if let Some(q) = run.quarantined.first() {
                return Err(format!(
                    "scenario `{name}`: trial {} quarantined: {}",
                    q.trial, q.failure
                ));
            }
            if run.deadline_hit {
                let mut base = format!("rcbsim scenario run {name}");
                if args.get_opt::<u64>("trials")?.is_some() {
                    base.push_str(&format!(" --trials {}", spec.trials));
                }
                if args.get_opt::<u64>("seed")?.is_some() {
                    base.push_str(&format!(" --seed {}", spec.seeds.master));
                }
                return Err(cut_report(
                    &format!("scenario `{name}`"),
                    journal.as_ref().map(Journal::path),
                    &base,
                ));
            }
            let results: Vec<(Outcome, Option<SimError>)> = run
                .results
                .into_iter()
                .flatten()
                .map(|slot| {
                    slot.expect("uncut and unquarantined: every trial ran or was journaled")
                })
                .collect();
            let mut checksum = FNV_OFFSET;
            for (outcome, _) in &results {
                checksum = fnv1a(checksum, &[spec.outcome_checksum(outcome)]);
            }
            let header = format!(
                "scenario {name}: {summary}\n{engine} · {workload} · {adversary} · faults: {faults} \
                 · seed {seed} · {trials} trials\n",
                summary = entry.summary,
                engine = spec.engine_label(),
                workload = spec.workload,
                adversary = spec.adversary,
                faults = spec.faults,
                seed = spec.seeds.master,
                trials = spec.trials,
            );
            let body = match spec.workload {
                Workload::Duel(_) => render_duel(spec.trials, results),
                Workload::Broadcast(_) => render_broadcast(&spec, results),
                Workload::Stream(_) => render_stream(spec.trials, results),
            };
            let mut out = format!("{header}\n{body}\ndeterminism checksum: {checksum:016x}\n");
            if let Some(from) = &rc.resume {
                out.push_str(&format!("resumed journal: {}\n", from.display()));
            }
            Ok(out)
        }
        Some(other) => Err(format!(
            "unknown scenario action `{other}`; expected list, names, or run"
        )),
    }
}

/// `exp <ID>|all` — runs experiments from [`experiments::all`] and prints
/// their reports. Like a failed conformance grid, a failed verdict makes
/// the command fail, so CI can gate on the paper's claims.
fn cmd_exp(args: &Args) -> Result<String, String> {
    let all = experiments::all();
    let ids = || {
        let ids: Vec<String> = all.iter().map(|(id, ..)| id.to_lowercase()).collect();
        format!("all, {}", ids.join(", "))
    };
    let which = args
        .positional(0)
        .ok_or_else(|| format!("exp needs an experiment ID; valid IDs: {}", ids()))?;
    if let Some(extra) = args.positional(1) {
        return Err(format!("unexpected positional argument `{extra}`"));
    }
    let selected: Vec<_> = all
        .iter()
        .filter(|(id, ..)| which == "all" || id.eq_ignore_ascii_case(which))
        .copied()
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "unknown experiment `{which}`; valid IDs: {}",
            ids()
        ));
    }
    let mut scale = match args.get_str("scale", "quick").as_str() {
        "quick" => Scale::quick(),
        "full" => Scale::full(),
        other => return Err(format!("--scale must be quick or full, got `{other}`")),
    };
    if let Some(seed) = args.get_opt::<u64>("seed")? {
        scale.seed = seed;
    }
    let journal_dir = args.get_opt::<String>("journal-dir")?.map(PathBuf::from);
    if let Some(dir) = &journal_dir {
        if !dir.is_dir() {
            return Err(format!(
                "--journal-dir: `{}` is not a directory",
                dir.display()
            ));
        }
    }
    let ctl = SweepControl {
        journal_dir,
        deadline: deadline_arg(args)?,
    };
    let report = experiments::run_selected(&selected, &scale, &ctl)?;
    check_verdicts(
        format!("# rcb experiment suite (scale: {scale:?})\n"),
        report,
    )
}

/// `header` plus the report's text, or — when any verdict failed — that
/// text followed by the name of every failed verdict, as an error.
fn check_verdicts(header: String, report: Report) -> Result<String, String> {
    let text = header + &report.text;
    let failed: Vec<&str> = report.failures().map(|v| v.name.as_str()).collect();
    if failed.is_empty() {
        Ok(text)
    } else {
        Err(format!(
            "{text}\n{} paper verdict(s) failed:\n  {}",
            failed.len(),
            failed.join("\n  ")
        ))
    }
}

fn cmd_conformance(args: &Args) -> Result<String, String> {
    let trials: u64 = args.get("trials", 200)?;
    let seed: u64 = args.get("seed", 2014)?;
    let alpha: f64 = args.get("alpha", 1e-3)?;
    if !(0.0..1.0).contains(&alpha) || alpha <= 0.0 {
        return Err("--alpha must be in (0,1)".into());
    }
    let cfg = ConformanceConfig {
        trials,
        seed,
        alpha,
        parallelism: Parallelism::Auto,
    };
    let report = run_grid(&default_grid(), &cfg);
    let text = report.render();
    if report.passed() {
        Ok(text)
    } else {
        // A failed grid is a real engine divergence: make the exit status
        // reflect it so CI can gate on `rcbsim conformance`.
        Err(text)
    }
}

/// The crash-safety flags of `scenario run`:
/// `--journal PATH` checkpoints, `--resume PATH` continues a previous
/// journal, `--deadline SECS` bounds the run's wall clock.
struct RunControlArgs {
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    deadline_budget: Option<Duration>,
}

/// The crash-safety flags [`run_control_args`] reads.
const RUN_CONTROL_FLAGS: [&str; 3] = ["journal", "resume", "deadline"];

fn run_control_args(args: &Args) -> Result<RunControlArgs, String> {
    let journal = args.get_opt::<String>("journal")?.map(PathBuf::from);
    let resume = args.get_opt::<String>("resume")?.map(PathBuf::from);
    if journal.is_some() && resume.is_some() {
        return Err(
            "--journal and --resume are mutually exclusive; --resume keeps \
             checkpointing into the journal it continues"
                .into(),
        );
    }
    Ok(RunControlArgs {
        journal,
        resume,
        deadline_budget: deadline_arg(args)?,
    })
}

/// `--deadline SECS`, shared by `scenario run` and `exp`: a non-negative
/// number of seconds that fits a [`Duration`].
fn deadline_arg(args: &Args) -> Result<Option<Duration>, String> {
    args.get_opt::<f64>("deadline")?
        .map(|secs| {
            Duration::try_from_secs_f64(secs)
                .map_err(|_| String::from("--deadline must be a non-negative number of seconds"))
        })
        .transpose()
}

impl RunControlArgs {
    /// The run deadline: [`Deadline::NONE`] without `--deadline`.
    fn deadline(&self) -> Deadline {
        self.deadline_budget.map_or(Deadline::NONE, Deadline::after)
    }
}

/// The message for a deadline-cut run: where the checkpoints went, and the
/// exact invocation that resumes it.
fn cut_report(what: &str, journal: Option<&Path>, base_invocation: &str) -> String {
    match journal {
        Some(path) => format!(
            "{what}: wall-clock deadline exceeded; completed cells are journaled in \
             {path}\nresume with:\n  {base_invocation} --resume {path}",
            path = path.display()
        ),
        None => format!(
            "{what}: wall-clock deadline exceeded; no --journal was given, so partial \
             progress was not persisted — re-run with --journal PATH to make the run \
             resumable"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["duel", "--budget", "1024", "--q=0.5"]).expect("parse");
        assert_eq!(a.command(), Some("duel"));
        assert_eq!(a.get::<u64>("budget", 0).expect("budget"), 1024);
        assert_eq!(a.get::<f64>("q", 1.0).expect("q"), 0.5);
        // Defaults pass through.
        assert_eq!(a.get::<u64>("trials", 7).expect("trials"), 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["duel", "--budget"]).is_err(), "missing value");
        assert!(parse(&["duel", "--q", "1", "--q", "2"]).is_err(), "dup");
        // Extra positionals parse (the `scenario` command needs them) but
        // every other command rejects them at dispatch.
        let extra = parse(&["duel", "extra"]).expect("parse collects positionals");
        assert!(run_cli(&extra).is_err(), "second positional");
        assert!(parse(&["--"]).is_err(), "bare dashes");
        let a = parse(&["duel", "--budget", "abc"]).expect("parse ok");
        assert!(a.get::<u64>("budget", 0).is_err(), "type error surfaces");
        // `exp` validates every flag before any experiment runs.
        for (flags, needle) in [
            (&["--scale", "ful"][..], "--scale"),
            (&["--seed", "-3"], "--seed"),
            (&["--seed", "1e9"], "--seed"),
            (&["--deadline", "-1"], "--deadline"),
            (&["--deadline", "inf"], "--deadline"),
            (&["--deadline", "nan"], "--deadline"),
            (&["--deadline", "1e30"], "--deadline"),
            (&["--journal-dir", "/nonexistent/rcb_ckpt"], "--journal-dir"),
        ] {
            let mut v = vec!["exp", "e2"];
            v.extend_from_slice(flags);
            let err = run_cli(&parse(&v).expect("parse")).expect_err("malformed exp flag");
            assert!(err.contains(needle), "{v:?}: {err}");
        }
        let err = run_cli(&parse(&["exp"]).expect("parse")).expect_err("no ID");
        assert!(err.contains("e16"), "lists the valid IDs: {err}");
        let err = run_cli(&parse(&["exp", "e99"]).expect("parse")).expect_err("unknown ID");
        assert!(
            err.contains("`e99`") && err.contains("all, e1, e2"),
            "{err}"
        );
        assert!(run_cli(&parse(&["exp", "e2", "e3"]).expect("parse")).is_err());
        // KSY has no ε: a stray `--epsilon` is an error, not silently dropped.
        let err =
            run_cli(&parse(&["duel", "--profile", "ksy", "--epsilon", "0.1"]).expect("parse"))
                .expect_err("--epsilon with ksy");
        assert!(err.contains("--epsilon"), "{err}");
        let err =
            run_cli(&parse(&["duel", "--profile", "ksy", "--start-epoch", "x"]).expect("parse"))
                .expect_err("unparsable --start-epoch with ksy");
        assert!(err.contains("--start-epoch"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = run_cli(&parse(&["duel", "--trails", "5"]).expect("parse"))
            .expect_err("a typo must not fall back to the default trial count");
        assert!(err.contains("--trails"), "names the flag: {err}");
        assert!(err.contains("--trials"), "lists the valid ones: {err}");
        // A flag valid for one command is still foreign to another.
        let err = run_cli(&parse(&["conformance", "--fault-loss", "0.2"]).expect("parse"))
            .expect_err("conformance takes no fault flags");
        assert!(err.contains("--fault-loss"), "{err}");
        // The experiment knobs are flags, so a typo is caught by name.
        let err = run_cli(&parse(&["exp", "e2", "--sede", "7"]).expect("parse"))
            .expect_err("a typo must not fall back to the default seed");
        assert!(
            err.contains("--sede") && err.contains("--journal-dir"),
            "{err}"
        );
        assert!(run_cli(&parse(&["help", "--n", "3"]).expect("parse")).is_err());
    }

    #[test]
    fn documented_invocations_use_accepted_flags() {
        // Every `rcbsim` command line in CI and the docs must pass the
        // unknown-flag gate, or the gate would break them.
        let sources = [
            ("ci.yml", include_str!("../../../.github/workflows/ci.yml")),
            ("README.md", include_str!("../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            (
                "SKILL.md",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        let mut checked = 0;
        for (file, text) in sources {
            let joined = text.replace("\\\n", " ");
            for line in joined.lines() {
                let Some((_, tail)) = line.rsplit_once("rcbsim") else {
                    continue;
                };
                let tail = tail.trim_start().trim_start_matches("-- ");
                let end = tail.find(['`', '|', '#', ';', '&', '>', ')']);
                let mut tokens = tail[..end.unwrap_or(tail.len())].split_whitespace();
                let Some(valid) = tokens.next().and_then(command_flags) else {
                    continue;
                };
                for token in tokens {
                    if let Some(flag) = token.strip_prefix("--") {
                        let flag = flag.split('=').next().unwrap_or(flag);
                        assert!(valid.contains(&flag), "{file}: `--{flag}` in `{line}`");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 35, "only {checked} documented flags found");
    }

    #[test]
    fn help_and_unknown_commands() {
        let help = run_cli(&parse(&["help"]).expect("parse")).expect("help");
        assert!(help.contains("USAGE"));
        let none = run_cli(&parse(&[]).expect("parse")).expect("default");
        assert!(none.contains("USAGE"));
        assert!(run_cli(&parse(&["frobnicate"]).expect("parse")).is_err());
    }

    #[test]
    fn duel_command_smoke() {
        let a = parse(&[
            "duel",
            "--budget",
            "1024",
            "--trials",
            "5",
            "--epsilon",
            "0.1",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("alice cost"));
        assert!(report.contains("delivered"));
    }

    #[test]
    fn duel_ksy_profile_smoke() {
        let a = parse(&[
            "duel",
            "--profile",
            "ksy",
            "--budget",
            "512",
            "--trials",
            "5",
        ])
        .expect("parse");
        assert!(run_cli(&a).expect("run").contains("bob cost"));
        let bad = parse(&["duel", "--profile", "nope"]).expect("parse");
        assert!(run_cli(&bad).is_err());
    }

    #[test]
    fn broadcast_command_smoke() {
        let a =
            parse(&["broadcast", "--n", "8", "--budget", "2048", "--trials", "2"]).expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("mean node cost"));
        assert!(report.contains("all informed"));
        let bad = parse(&["broadcast", "--adversary", "nuke"]).expect("parse");
        assert!(run_cli(&bad).is_err());
    }

    #[test]
    fn pooled_max_cost_is_reported_as_not_measured() {
        // Aggregate mode (cohort engine above the exact-member threshold)
        // pools costs: no max node cost. All-tracked mode measures it.
        let max_row = |n: usize| {
            let spec = ScenarioSpec::broadcast(n)
                .with_engine(rcb_sim::scenario::Engine::CohortFast)
                .with_adversary(AdversarySpec::NoJam)
                .with_trials(1);
            let report = broadcast_report(&spec);
            let row = report.lines().find(|l| l.contains("max node cost"));
            (
                spec.pools_costs(),
                row.expect("a max node cost row").to_string(),
            )
        };
        let (pooled, row) = max_row(400);
        assert!(pooled && row.contains("pooled — not measured"), "{row}");
        let (pooled, row) = max_row(64);
        assert!(!pooled && !row.contains("pooled"), "{row}");
        assert!(row.chars().any(|c| c.is_ascii_digit()), "{row}");
    }

    #[test]
    fn exp_command_smoke() {
        let report = run_cli(&parse(&["exp", "E2"]).expect("parse")).expect("E2 passes");
        assert!(report.starts_with("# rcb experiment suite"), "{report}");
        assert!(report.contains("## E2: Theorem 1 — ε-dependence of cost"));
        assert!(report.contains("→ OK"), "{report}");
        assert!(!report.contains("wall time"), "timings go to stderr");
    }

    #[test]
    fn exp_deadline_cut_is_an_error_with_a_resume_hint() {
        let err = run_cli(&parse(&["exp", "e3", "--deadline", "0"]).expect("parse"))
            .expect_err("a cut sweep reports no statistics");
        assert!(
            err.contains("E3: sweep wall-clock budget exceeded"),
            "{err}"
        );
        assert!(err.contains("no --journal-dir"), "{err}");

        let dir = std::env::temp_dir().join(format!("rcb_exp_cut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dir_arg = dir.to_string_lossy();
        let a = parse(&["exp", "e3", "--deadline", "0", "--journal-dir", &dir_arg]);
        let err = run_cli(&a.expect("parse")).expect_err("a cut sweep");
        assert!(err.contains("re-run with the same --journal-dir"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_verdict_fails_exp() {
        use rcb_analysis::scaling::ScalingVerdict;
        use rcb_mathkit::fit::PowerLawFit;
        let verdict = |within_tolerance| ScalingVerdict {
            series: "cost vs T".into(),
            predicted_exponent: 0.5,
            fitted: PowerLawFit {
                exponent: if within_tolerance { 0.5 } else { 0.9 },
                amplitude: 1.0,
                r2: 1.0,
            },
            tolerance: 0.15,
            within_tolerance,
        };
        let mut e1 = Report::default();
        e1.scaling(&verdict(true), " [raw]");
        assert!(check_verdicts(String::new(), e1.clone()).is_ok());

        e1.scaling(&verdict(false), " [baseline-subtracted]");
        let mut e5 = Report::default();
        e5.check(
            "cost vs n: bracket check".into(),
            false,
            "bracket check: predicted −0.5 ∈ [-0.3, -0.2] → MISMATCH\n",
        );
        let mut all = Report::default();
        all.append("E1", "cost", e1);
        all.append("E5", "broadcast", e5);
        let err = check_verdicts(String::new(), all).expect_err("two verdicts failed");
        assert!(err.contains("→ MISMATCH"), "the report is kept: {err}");
        assert!(err.contains("2 paper verdict(s) failed"), "{err}");
        assert!(err.contains("E1: cost vs T [baseline-subtracted]"), "{err}");
        assert!(err.contains("E5: cost vs n: bracket check"), "{err}");
        assert!(
            !err.contains("  E1: cost vs T [raw]"),
            "passing verdicts are not named: {err}"
        );
    }

    #[test]
    fn conformance_command_smoke() {
        // Tiny trial count: this checks plumbing, not statistical power —
        // the sim crate's own tests and the default 200-trial CLI run do
        // that. Even at 25 trials a grid-wide p < 1e-6 would be a real bug.
        let a = parse(&[
            "conformance",
            "--trials",
            "25",
            "--seed",
            "2014",
            "--alpha=0.000001",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("conformance grid diverged");
        assert!(report.contains("grid PASSED"));
        assert!(report.contains("alice_cost"));
        assert!(report.contains("broadcast n=5"));
    }

    #[test]
    fn fault_flags_parse_into_a_plan() {
        let a = parse(&[
            "duel",
            "--fault-loss",
            "0.25",
            "--fault-crash",
            "1:4:8:lose",
            "--fault-skew",
            "0:2",
            "--fault-battery",
            "500",
        ])
        .expect("parse");
        let plan = fault_plan_from_args(&a, 2).expect("valid plan");
        assert_eq!(plan.loss_p(), 0.25);
        assert!(plan.crashed(1, 4) && !plan.crashed(1, 12));
        assert_eq!(plan.reboot_at(), Some((1, 12)));
        assert_eq!(plan.skew_slots(0), 2);
        assert_eq!(plan.battery_capacity(), Some(500));
        // No flags → the empty plan.
        let none = fault_plan_from_args(&parse(&["duel"]).expect("parse"), 2).expect("plan");
        assert!(none.is_none());
    }

    fn tmp_journal(name: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "rcb_cli_test_{}_{name}.journal",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn crash_safety_flags_parse_and_reject_conflicts() {
        let a = parse(&["scenario", "--journal", "j.journal", "--deadline", "1.5"]).expect("parse");
        let rc = run_control_args(&a).expect("valid flags");
        assert_eq!(rc.journal.as_deref(), Some(Path::new("j.journal")));
        assert_eq!(rc.deadline_budget, Some(Duration::from_millis(1500)));

        let none = run_control_args(&parse(&["scenario"]).expect("parse")).expect("no flags");
        assert!(none.deadline().is_unbounded(), "no flags → unbounded");

        let both = parse(&["scenario", "--journal", "a", "--resume", "b"]).expect("parse");
        assert!(run_control_args(&both).is_err(), "journal+resume conflict");
        let neg = parse(&["scenario", "--deadline", "-1"]).expect("parse");
        assert!(run_control_args(&neg).is_err(), "negative deadline");
    }

    #[test]
    fn scenario_deadline_cut_exits_nonzero_with_a_resume_hint() {
        let journal = tmp_journal("scenario_cut");
        let run = |extra: &[&str]| {
            let mut v = vec!["scenario", "run", "duel_jammed", "--trials", "6"];
            v.extend_from_slice(extra);
            run_cli(&parse(&v).expect("parse"))
        };
        run(&["--journal", &journal]).expect("an uncut run completes");
        // Keep three records and tear the fourth, as a kill mid-write
        // would. Loading drops a torn final line; a resume truncates it.
        let text = std::fs::read_to_string(&journal).expect("read journal");
        let lines: Vec<&str> = text.lines().collect();
        let torn = &lines[4][..lines[4].len() / 2];
        std::fs::write(&journal, format!("{}\n{torn}", lines[..4].join("\n")))
            .expect("tear journal");

        let err = run(&["--deadline", "0", "--resume", &journal])
            .expect_err("a cut run produces no report");
        assert!(err.contains("deadline exceeded"), "{err}");
        assert!(
            err.contains(&format!(
                "rcbsim scenario run duel_jammed --trials 6 --resume {journal}"
            )),
            "the exact resume invocation must be printed: {err}"
        );
        let j = Journal::load(Path::new(&journal)).expect("load the cut run's journal");
        assert!(!j.dropped_tail(), "the resume truncated the torn line");
        assert_eq!(j.len(), 3, "the cut keeps every journaled trial");
        std::fs::remove_file(&journal).ok();
    }

    fn run_duel_jammed(extra: &[&str]) -> Result<String, String> {
        let v = ["scenario", "run", "duel_jammed", "--trials", "2"];
        run_cli(&parse(&[&v[..], extra].concat()).expect("parse"))
    }

    #[test]
    fn a_deadline_too_large_for_a_duration_is_an_error() {
        let err = run_duel_jammed(&["--deadline", "1e30"]).expect_err("not a Duration");
        assert!(err.contains("--deadline"), "{err}");
    }

    #[test]
    fn a_deadline_past_the_clock_never_fires() {
        let uncut = run_duel_jammed(&[]).expect("an uncut run");
        assert_eq!(run_duel_jammed(&["--deadline", "1e19"]), Ok(uncut));
        let a = parse(&["exp", "e2", "--deadline", "1e19"]).expect("parse");
        run_cli(&a).expect("a sweep under a deadline past the clock");
    }

    #[test]
    fn scenario_journal_in_a_missing_directory_is_an_error() {
        let missing = std::env::temp_dir()
            .join(format!("rcb_cli_missing_{}", std::process::id()))
            .join("x.journal");
        let missing = missing.to_string_lossy();
        let a = parse(&[
            "scenario",
            "run",
            "duel_jammed",
            "--trials",
            "2",
            "--journal",
            &missing,
        ])
        .expect("parse");
        let err = run_cli(&a).expect_err("the journal cannot be created");
        assert!(err.contains("journal io error"), "{err}");
    }

    #[test]
    fn scenario_journal_refuses_to_overwrite_an_existing_journal() {
        let journal = tmp_journal("scenario_exists");
        let run = |trials: &str| {
            let v = [
                "scenario",
                "run",
                "duel_jammed",
                "--trials",
                trials,
                "--seed",
                "5",
            ];
            run_cli(&parse(&[&v[..], &["--journal", &journal]].concat()).expect("parse"))
        };
        run("3").expect("a fresh journal");
        let err = run("1").expect_err("an existing journal is never overwritten");
        assert!(err.contains("already exists"), "{err}");
        assert!(err.contains(&format!("--resume {journal}")), "{err}");
        let kept = Journal::load(Path::new(&journal)).expect("the journal is intact");
        assert_eq!(kept.len(), 3, "every record of the first run survives");
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn scenario_resume_refuses_an_undecodable_record_before_any_trial_runs() {
        let journal = tmp_journal("scenario_undecodable");
        let run = |extra: &[&str]| {
            let v = ["scenario", "run", "duel_jammed", "--trials", "2"];
            run_cli(&parse(&[&v[..], extra].concat()).expect("parse"))
        };
        run(&["--journal", &journal]).expect("a fresh journal");
        // Spec 0, trial 0, outcome tag 9: the checksum verifies, the words
        // do not decode.
        let words = [0, 0, 9];
        let header = std::fs::read_to_string(&journal).expect("read journal");
        let header = header.lines().next().expect("a header line");
        let bad = format!("{header}\n0 0 9 {:016x}\n", fnv1a(FNV_OFFSET, &words));
        std::fs::write(&journal, &bad).expect("write journal");

        let err = run(&["--resume", &journal]).expect_err("an undecodable record");
        assert!(err.contains("journal corrupt at line 2"), "{err}");
        let after = std::fs::read_to_string(&journal).expect("read journal");
        assert_eq!(after, bad, "no trial ran, so nothing was written");
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn scenario_run_journals_and_resumes_with_the_same_checksum() {
        let journal = tmp_journal("scenario_resume");
        let name = registry()[0].name;
        let base_args = |extra: &[&str]| {
            let mut v = vec!["scenario", "run", name, "--trials", "6", "--seed", "9"];
            v.extend_from_slice(extra);
            parse(&v).expect("parse")
        };
        let checksum_line = |report: &str| {
            report
                .lines()
                .find(|l| l.starts_with("determinism checksum"))
                .expect("checksum line")
                .to_string()
        };

        let straight = run_cli(&base_args(&[])).expect("straight run");
        let journaled = run_cli(&base_args(&["--journal", &journal])).expect("journaled run");
        assert_eq!(
            straight, journaled,
            "a journal must not perturb the report (byte-identical no-op)"
        );

        // The journal now holds every trial: a resume skips them all and
        // reconstructs the identical checksum from the records alone.
        let resumed = run_cli(&base_args(&["--resume", &journal])).expect("resume");
        assert_eq!(checksum_line(&straight), checksum_line(&resumed));
        assert!(resumed.contains("resumed journal:"), "{resumed}");

        // A killed run leaves only some trials journaled: the resume runs
        // the rest and still folds the identical checksum, checkpointing
        // the new trials into the journal it continues.
        let partial = tmp_journal("scenario_resume_partial");
        let full = Journal::load(Path::new(&journal)).expect("full journal");
        let part = Journal::create(Path::new(&partial), full.kind(), full.fingerprint())
            .expect("create partial");
        for t in 0..2 {
            let record = full.get(0, t).expect("journaled");
            part.append(0, t, record).expect("append");
        }
        let resumed = run_cli(&base_args(&["--resume", &partial])).expect("partial resume");
        assert_eq!(checksum_line(&straight), checksum_line(&resumed));
        let grown = Journal::load(Path::new(&partial)).expect("resumed journal");
        assert_eq!(grown.len(), 6, "the resume journals the trials it ran");
        std::fs::remove_file(&partial).ok();

        // A different seed is different work: typed refusal.
        let mut v = vec!["scenario", "run", name, "--trials", "6", "--seed", "10"];
        v.extend_from_slice(&["--resume", &journal]);
        let err = run_cli(&parse(&v).expect("parse")).expect_err("wrong fingerprint");
        assert!(err.contains("fingerprint mismatch"), "{err}");
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn fault_flags_reject_malformed_specs() {
        let bad_crash = parse(&["duel", "--fault-crash", "1:4"]).expect("parse");
        assert!(
            fault_plan_from_args(&bad_crash, 2).is_err(),
            "too few fields"
        );
        let bad_tail = parse(&["duel", "--fault-crash", "1:4:8:explode"]).expect("parse");
        assert!(
            fault_plan_from_args(&bad_tail, 2).is_err(),
            "bad lose marker"
        );
        let bad_skew = parse(&["duel", "--fault-skew", "7"]).expect("parse");
        assert!(fault_plan_from_args(&bad_skew, 2).is_err(), "missing colon");
        let bad_loss = parse(&["duel", "--fault-loss", "1.5"]).expect("parse");
        assert!(
            fault_plan_from_args(&bad_loss, 2).is_err(),
            "p out of range"
        );
        let bad_battery = parse(&["duel", "--fault-battery", "0"]).expect("parse");
        assert!(
            fault_plan_from_args(&bad_battery, 2).is_err(),
            "zero capacity"
        );
        // Crash and skew targets outside the population (2 in a duel), on
        // the commands themselves: each is an error naming the node and
        // the population size.
        for (argv, named) in [
            (
                &[
                    "broadcast",
                    "--n",
                    "16",
                    "--trials",
                    "2",
                    "--fault-crash",
                    "30:2:8:lose",
                ][..],
                "crash node 30 out of range: the population has 16 nodes",
            ),
            (
                &["duel", "--trials", "2", "--fault-crash", "5:0:3"],
                "crash node 5 out of range: the population has 2 nodes",
            ),
            (
                &["duel", "--trials", "2", "--fault-skew", "2:1"],
                "skew node 2 out of range: the population has 2 nodes",
            ),
        ] {
            let err = run_cli(&parse(argv).expect("parse")).expect_err("out-of-range node");
            assert!(err.contains(named), "{argv:?}: {err}");
        }
    }

    #[test]
    fn faulted_duel_command_smoke() {
        let a = parse(&[
            "duel",
            "--budget",
            "1024",
            "--trials",
            "5",
            "--epsilon",
            "0.1",
            "--fault-loss",
            "0.2",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("delivered"));
    }

    #[test]
    fn faulted_broadcast_command_smoke() {
        let a = parse(&[
            "broadcast",
            "--n",
            "8",
            "--adversary",
            "none",
            "--trials",
            "2",
            "--fault-crash",
            "3:2:6:lose",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("all informed"));
    }

    #[test]
    fn zero_trials_are_rejected_by_every_command() {
        for command in [
            &["duel"][..],
            &["broadcast"],
            &["conformance"],
            &["scenario", "run", "duel_jammed"],
        ] {
            let mut v = command.to_vec();
            v.extend_from_slice(&["--trials", "0"]);
            let err = run_cli(&parse(&v).expect("parse")).expect_err("zero trials");
            assert_eq!(err, "--trials must be at least 1", "{v:?}");
        }
    }

    #[test]
    fn out_of_range_epsilon_is_an_error_not_a_panic() {
        for eps in ["2", "0", "nan"] {
            let a = parse(&["duel", "--epsilon", eps, "--trials", "2"]).expect("parse");
            let err = run_cli(&a).expect_err("epsilon outside (0, 1)");
            assert!(err.contains("epsilon"), "--epsilon {eps}: {err}");
        }
    }

    #[test]
    fn ksy_duel_honours_start_epoch() {
        let run = |extra: &[&str]| {
            let mut v = vec![
                "duel",
                "--profile",
                "ksy",
                "--budget",
                "4096",
                "--trials",
                "4",
            ];
            v.extend_from_slice(extra);
            run_cli(&parse(&v).expect("parse")).expect("ksy duel runs")
        };
        assert_eq!(run(&[]), run(&["--start-epoch", "4"]), "default is 4");
        assert_ne!(
            run(&[]),
            run(&["--start-epoch", "7"]),
            "the flag reaches KSY"
        );
    }

    #[test]
    fn random_broadcast_rate_is_checked_not_clamped() {
        let run = |extra: &[&str]| {
            let mut v = vec![
                "broadcast",
                "--adversary",
                "random",
                "--n",
                "4",
                "--trials",
                "2",
            ];
            v.extend_from_slice(extra);
            run_cli(&parse(&v).expect("parse"))
        };
        for q in ["1", "1.5", "-0.1", "nan"] {
            let err = run(&["--q", q]).expect_err("rate outside [0, 1)");
            assert!(err.contains("--q"), "--q {q}: {err}");
        }
        // Without `--q` the random jammer keeps its 0.999 default.
        assert_eq!(
            run(&[]).expect("default"),
            run(&["--q", "0.999"]).expect("0.999")
        );
    }

    #[test]
    fn conformance_rejects_bad_flags() {
        let alpha = parse(&["conformance", "--alpha", "2.0"]).expect("parse");
        assert!(run_cli(&alpha).is_err());
    }

    #[test]
    fn scenario_list_and_names() {
        let list = run_cli(&parse(&["scenario", "list"]).expect("parse")).expect("list");
        let names = run_cli(&parse(&["scenario", "names"]).expect("parse")).expect("names");
        for entry in registry() {
            assert!(list.contains(entry.name), "list shows {}", entry.name);
            assert!(names.contains(entry.name), "names shows {}", entry.name);
        }
        // Bare `scenario` defaults to `list`.
        let bare = run_cli(&parse(&["scenario"]).expect("parse")).expect("bare");
        assert_eq!(bare, list);
    }

    #[test]
    fn scenario_run_smoke_with_overrides() {
        let duel = run_cli(
            &parse(&[
                "scenario",
                "run",
                "duel_jammed",
                "--trials",
                "3",
                "--seed",
                "7",
            ])
            .expect("parse"),
        )
        .expect("run");
        assert!(duel.contains("scenario duel_jammed"));
        assert!(duel.contains("3 trials"));
        assert!(duel.contains("alice cost"));
        assert!(duel.contains("determinism checksum"));
        let bcast = run_cli(
            &parse(&["scenario", "run", "bcast_n8_jammed", "--trials", "2"]).expect("parse"),
        )
        .expect("run");
        assert!(bcast.contains("mean node cost"));
        assert!(bcast.contains("determinism checksum"));
    }

    #[test]
    fn scenario_run_is_deterministic() {
        let args = parse(&["scenario", "run", "duel_jammed", "--trials", "4"]).expect("parse");
        let a = run_cli(&args).expect("first run");
        let b = run_cli(&args).expect("second run");
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_rejects_bad_input() {
        assert!(
            run_cli(&parse(&["scenario", "run"]).expect("parse")).is_err(),
            "missing name"
        );
        assert!(
            run_cli(&parse(&["scenario", "run", "nonexistent"]).expect("parse")).is_err(),
            "unknown name"
        );
        assert!(
            run_cli(&parse(&["scenario", "run", "duel_jammed", "extra"]).expect("parse")).is_err(),
            "trailing positional"
        );
        assert!(
            run_cli(&parse(&["scenario", "explode"]).expect("parse")).is_err(),
            "unknown action"
        );
    }
}
