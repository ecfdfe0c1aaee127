//! # rcb-bench
//!
//! The experiment harness: one module per paper claim (see DESIGN.md §4 for
//! the experiment index), each runnable as a standalone binary
//! (`cargo run --release -p rcb-bench --bin exp_e1_one_to_one_cost`), all
//! together through `exp_all`, and via `cargo bench` (the `experiments`
//! bench target runs the quick scale; `micro` holds the Criterion
//! performance benchmarks).
//!
//! Outputs are markdown tables plus scaling verdicts, designed to be pasted
//! into EXPERIMENTS.md verbatim. The crate also hosts the `rcbsim` CLI
//! ([`cli`]). End-to-end throughput is measured by the standalone
//! benchmark package in `benchmark/` (see its README), not by this crate.

pub mod cli;
pub mod experiments;
pub mod scale;

pub use scale::Scale;
