//! Criterion micro-benchmarks for the hot paths: channel slot resolution,
//! the exact binomial/Bernoulli-process samplers, one full 1-to-1 epoch on
//! the fast engine, one 1-to-n repetition, and the parallel trial runner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rcb_adversary::rep_strategies::NoJamRep;
use rcb_channel::ledger::EnergyLedger;
use rcb_channel::message::Payload;
use rcb_channel::partition::Partition;
use rcb_channel::slot::{resolve_slot, Action, JamDecision};
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{binomial, sample_slots};
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{run_duel, DuelConfig};
use rcb_sim::fast::{run_broadcast, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::runner::{run_trials, Parallelism};
use std::hint::black_box;

fn bench_resolve_slot(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel/resolve_slot");
    for n in [2usize, 16, 128] {
        let partition = Partition::uniform(n);
        let mut actions = vec![Action::Sleep; n];
        actions[0] = Action::Send(Payload::message());
        actions[n - 1] = Action::Listen;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut ledger = EnergyLedger::new(n);
            b.iter(|| {
                black_box(resolve_slot(
                    black_box(&actions),
                    &JamDecision::none(),
                    &partition,
                    &mut ledger,
                ))
            });
        });
    }
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("mathkit");
    group.bench_function("binomial_n4096_p0.01", |b| {
        let mut rng = RcbRng::new(1);
        b.iter(|| black_box(binomial(&mut rng, 4096, 0.01)));
    });
    group.bench_function("sample_slots_n65536_p0.001", |b| {
        let mut rng = RcbRng::new(2);
        b.iter(|| black_box(sample_slots(&mut rng, 65536, 0.001)));
    });
    group.finish();
}

fn bench_duel(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/duel");
    group.bench_function("unjammed_full_run_eps0.01", |b| {
        let profile = Fig1Profile::with_start_epoch(0.01, 8);
        let mut rng = RcbRng::new(3);
        b.iter(|| {
            let mut adv = NoJamRep;
            black_box(run_duel(
                &profile,
                &mut adv,
                &mut rng,
                DuelConfig::default(),
                &FaultPlan::none(),
                &Deadline::NONE,
            ))
        });
    });
    group.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/broadcast");
    group.sample_size(10);
    for n in [8usize, 64] {
        group.bench_with_input(BenchmarkId::new("unjammed_full_run", n), &n, |b, &n| {
            let params = OneToNParams::practical();
            let mut rng = RcbRng::new(4);
            b.iter(|| {
                let mut adv = NoJamRep;
                black_box(run_broadcast(
                    &params,
                    n,
                    &[0],
                    &mut adv,
                    &mut rng,
                    FastConfig::default(),
                    &mut (),
                    &FaultPlan::none(),
                    &Deadline::NONE,
                ))
            });
        });
    }
    group.finish();
}

fn bench_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("100_duels", threads),
            &threads,
            |b, &threads| {
                let profile = Fig1Profile::with_start_epoch(0.01, 8);
                b.iter(|| {
                    black_box(run_trials(100, 9, Parallelism::Fixed(threads), |_, rng| {
                        let mut adv = NoJamRep;
                        run_duel(
                            &profile,
                            &mut adv,
                            rng,
                            DuelConfig::default(),
                            &FaultPlan::none(),
                            &Deadline::NONE,
                        )
                    }))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_resolve_slot,
    bench_samplers,
    bench_duel,
    bench_broadcast,
    bench_runner
);
criterion_main!(benches);
