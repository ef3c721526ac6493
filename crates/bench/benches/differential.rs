//! Benchmark: the csmith-lite differential validation workload (experiment
//! E15/E16 — Cerberus vs the reference oracle), plus the Session artifact
//! cache on the Session/DifferentialRunner pipeline:
//!
//! * `end_to_end_uncached_sequential`: re-elaborate and run the full matrix
//!   on every iteration. A fresh artifact starts with no tabled executions,
//!   so this times the rows it executes and the rows it shares; rerunning
//!   one artifact would time only table lookups after the first iteration.
//! * `elaborate_uncached` vs `elaborate_memoized` measure the Session
//!   artifact cache: the memoized path resolves a repeated source by hash
//!   lookup instead of re-running parse/desugar/elaborate.
//! * `seed_batch_sequential` runs a batch of csmith-lite seeds on a fresh
//!   one-worker job queue, so the batch runs on one thread and no iteration
//!   reuses another's memoised artifacts or their tabled runs.

use criterion::{criterion_group, criterion_main, Criterion};

use cerberus::memory::{ModelConfig, ResourceLimits};
use cerberus::pipeline::Session;
use cerberus::DifferentialRunner;
use cerberus_gen::{diff_one, generate, run_differential, to_c_source, GenConfig};
use cerberus_queue::JobQueue;

fn bench_differential(c: &mut Criterion) {
    let mut group = c.benchmark_group("differential");
    group.sample_size(10);
    group.bench_function("small_program", |b| {
        let program = generate(1, GenConfig::small());
        b.iter(|| diff_one(&program, 2_000_000))
    });
    group.bench_function("large_program", |b| {
        let program = generate(1, GenConfig::large());
        b.iter(|| diff_one(&program, 2_000_000))
    });
    // The exploration workflow end to end: re-elaborate the source and run
    // the full matrix, per iteration.
    group.bench_function("end_to_end_uncached_sequential", |b| {
        let source = to_c_source(&generate(1, GenConfig::small()));
        let session = Session::default();
        let runner = DifferentialRunner::all_named();
        b.iter(|| runner.run(&session.elaborate_uncached(&source).unwrap()))
    });
    group.finish();

    let mut group = c.benchmark_group("elaboration_cache");
    group.sample_size(10);
    let source = to_c_source(&generate(1, GenConfig::large()));
    // Baseline: the full front end on every call.
    group.bench_function("elaborate_uncached", |b| {
        let session = Session::default();
        b.iter(|| session.elaborate_uncached(&source).unwrap())
    });
    // Memoized: after the warm-up call, every elaboration is a hash lookup.
    group.bench_function("elaborate_memoized", |b| {
        let session = Session::default();
        b.iter(|| session.elaborate(&source).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("seed_batch");
    group.sample_size(10);
    group.bench_function("seed_batch_sequential", |b| {
        let limits = ResourceLimits::with_steps(2_000_000);
        let models = [ModelConfig::concrete()];
        b.iter(|| {
            run_differential(
                &JobQueue::start(1),
                16,
                GenConfig::small(),
                &limits,
                &models,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_differential);
criterion_main!(benches);
