//! Benchmark: the static UB analyzer over the whole litmus corpus and over
//! generated programs.
//!
//! Four timing rows plus a set of counter rows:
//!
//! * `corpus_path_sensitive` is the headline number: analyze every litmus
//!   fixture with a fresh session (cold analysis memo, cold solver memo) in
//!   the default path-sensitive mode — the whole-corpus throughput the
//!   ROADMAP asks to track.
//! * `corpus_flow_baseline` is the same sweep in the flow-join baseline
//!   mode, so the cost of path sensitivity (constraint tracking + solver
//!   calls) is measurable as the delta.
//! * `corpus_memoized` re-analyzes the corpus through a warm session: every
//!   report resolves from the per-source analysis memo.
//! * `generated_large` analyzes seeds 0–39 of `GenConfig::large()` with a
//!   fresh session per iteration. Generated programs call, loop and branch
//!   far more than the fixtures, so this row weighs the abstract
//!   interpreter's forks and joins, which the corpus rows barely reach.
//!
//! The counter rows (recorded with `samples: 0` via the criterion shim's
//! `record_value`) snapshot one cold whole-corpus pass: fixtures analyzed,
//! paths explored/pruned, solver queries and solver memo hits. The committed
//! `BENCH_analysis.json` checkpoint must show `solver_memo_hits > 0` — the
//! Johnson-style memoization is only worth its table if constraint subgoals
//! actually recur across the corpus (`tests/bench_checkpoints.rs` enforces
//! this).

use criterion::{criterion_group, criterion_main, Criterion};

use cerberus::analysis::AnalysisConfig;
use cerberus::pipeline::Session;
use cerberus_gen::{generate, to_c_source, GenConfig};

fn bench_analysis(c: &mut Criterion) {
    let suite = cerberus_litmus::catalogue();

    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);
    group.bench_function("corpus_path_sensitive", |b| {
        b.iter(|| {
            let session = Session::default();
            let mut findings = 0usize;
            for test in &suite {
                if let Ok(report) = session.analyze(&test.source) {
                    findings += report.findings.len();
                }
            }
            findings
        })
    });
    group.bench_function("corpus_flow_baseline", |b| {
        b.iter(|| {
            let session = Session::default();
            let mut findings = 0usize;
            for test in &suite {
                if let Ok(report) =
                    session.analyze_with(&test.source, AnalysisConfig::default().flow_baseline())
                {
                    findings += report.findings.len();
                }
            }
            findings
        })
    });
    group.bench_function("corpus_memoized", |b| {
        let session = Session::default();
        for test in &suite {
            let _ = session.analyze(&test.source);
        }
        b.iter(|| {
            let mut findings = 0usize;
            for test in &suite {
                if let Ok(report) = session.analyze(&test.source) {
                    findings += report.findings.len();
                }
            }
            findings
        })
    });
    let generated: Vec<String> = (0..40)
        .map(|seed| to_c_source(&generate(seed, GenConfig::large())))
        .collect();
    group.bench_function("generated_large", |b| {
        b.iter(|| {
            let session = Session::default();
            let mut steps = 0usize;
            for source in &generated {
                if let Ok(report) = session.analyze(source) {
                    steps += report.steps_used;
                }
            }
            steps
        })
    });
    group.finish();

    // One cold pass, instrumented: the solver memo hit rate and path counts
    // the checkpoint records alongside the timings.
    let session = Session::default();
    let mut analyzed = 0u128;
    let mut paths_explored = 0u128;
    let mut paths_pruned = 0u128;
    for test in &suite {
        if let Ok(report) = session.analyze(&test.source) {
            analyzed += 1;
            paths_explored += report.paths_explored as u128;
            paths_pruned += report.paths_pruned as u128;
        }
    }
    let solver = session.cache_stats().solver;
    println!(
        "analysis counters: {analyzed} fixtures, {paths_explored} paths explored \
         ({paths_pruned} pruned), solver memo {}/{} hits",
        solver.hits,
        solver.lookups()
    );
    criterion::record_value("analysis_counters", "fixtures_analyzed", analyzed);
    criterion::record_value("analysis_counters", "paths_explored", paths_explored);
    criterion::record_value("analysis_counters", "paths_pruned", paths_pruned);
    criterion::record_value(
        "analysis_counters",
        "solver_queries",
        u128::from(solver.lookups()),
    );
    criterion::record_value(
        "analysis_counters",
        "solver_memo_hits",
        u128::from(solver.hits),
    );
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
