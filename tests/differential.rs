//! Integration test: the §6-style differential validation in miniature — the
//! pipeline must agree with the independent reference evaluator on randomly
//! generated well-defined programs — and the contract of the rows an
//! artifact shares: each equals the run it stands for.

use std::ops::Range;

use cerberus::pipeline::Session;
use cerberus::DifferentialRunner;
use cerberus_exec::driver::{ExecMode, ProgramOutcome};
use cerberus_gen::{diff_one, generate, run_differential, to_c_source, DiffOutcome, GenConfig};
use cerberus_memory::config::ModelConfig;
use cerberus_memory::limits::ResourceLimits;
use cerberus_queue::JobQueue;

#[test]
fn small_generated_programs_agree_with_the_reference_oracle() {
    let limits = ResourceLimits::with_steps(2_000_000);
    let models = [ModelConfig::concrete()];
    let summary = run_differential(
        &JobQueue::start(2),
        20,
        GenConfig::small(),
        &limits,
        &models,
    );
    assert_eq!(summary.total, 20);
    assert_eq!(summary.disagree, 0, "{summary:?}");
    assert_eq!(summary.failed, 0, "{summary:?}");
    assert!(summary.agree >= 19, "{summary:?}");
}

#[test]
fn larger_generated_programs_mostly_agree_with_a_timeout_tail() {
    let limits = ResourceLimits::with_steps(1_000_000);
    let models = [ModelConfig::concrete()];
    let summary = run_differential(&JobQueue::start(2), 8, GenConfig::large(), &limits, &models);
    assert_eq!(summary.total, 8);
    assert_eq!(summary.disagree, 0, "{summary:?}");
    // Like the paper's larger Csmith runs, a (small) timeout tail is allowed.
    assert!(summary.agree + summary.timeout == 8, "{summary:?}");
    assert!(summary.agree >= 5, "{summary:?}");
}

#[test]
fn step_budget_exhaustion_is_reported_as_a_timeout() {
    let program = generate(11, GenConfig::large());
    assert_eq!(diff_one(&program, 10), DiffOutcome::Timeout);
}

/// Seeds of each generator size in the sharing contract below; the
/// debug-build test stays under about 30 s.
const CONTRACT_SEEDS: Range<u64> = 0..20;

/// The fixture corpus and `seeds` of both generator sizes, as
/// `(name, source)`.
fn corpus(seeds: Range<u64>) -> Vec<(String, String)> {
    let mut corpus: Vec<(String, String)> = cerberus_litmus::catalogue()
        .into_iter()
        .map(|test| (test.name, test.source))
        .collect();
    for (label, config) in [("small", GenConfig::small()), ("large", GenConfig::large())] {
        for seed in seeds.clone() {
            let source = to_c_source(&generate(seed, config));
            corpus.push((format!("{label} seed {seed}"), source));
        }
    }
    corpus
}

/// Check every named row of every program under `limits` and `mode`, each
/// program on a fresh artifact, against the unshared search, which runs the
/// whole call depth on this thread. Returns the rows that exhausted a budget
/// and the rows answered from a tabled run.
fn check_rows_against_unshared_runs(
    corpus: &[(String, String)],
    limits: &ResourceLimits,
    mode: ExecMode,
) -> (usize, u64) {
    let session = Session::default();
    let (mut budget_rows, mut shared_rows) = (0, 0);
    for (name, source) in corpus {
        let program = session.elaborate_uncached(source).unwrap();
        let models = ModelConfig::all_named();
        let rows: Vec<Vec<ProgramOutcome>> = if mode == ExecMode::default() {
            let runner = DifferentialRunner::new(models.clone()).with_limits(limits.clone());
            let matrix = runner.run(&program);
            matrix
                .rows()
                .iter()
                .map(|row| row.outcome.outcomes.clone())
                .collect()
        } else {
            let execute = |model| program.execute_bounded(model, mode, limits).outcomes;
            models.iter().map(execute).collect()
        };
        for (model, outcomes) in models.iter().zip(rows) {
            let unshared = program.driver(model).with_limits(limits.clone()).run(mode);
            assert_eq!(outcomes, unshared, "{name} under {} ({mode:?})", model.name);
            budget_rows += usize::from(outcomes.iter().any(|o| o.result.is_budget_exhaustion()));
        }
        shared_rows += program.execution_stats().hits;
    }
    (budget_rows, shared_rows)
}

/// Every row a matrix answers from the artifact's table of executions equals
/// the unshared run of its model (`Elaborated::driver` plus `Driver::run`):
/// on the fixtures and generated programs, at the default budget, at a
/// 5,000-step budget and at bound 4.
#[test]
fn every_shared_row_equals_its_unshared_run() {
    let corpus = corpus(CONTRACT_SEEDS);
    let default = ResourceLimits::default();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(default.host_stack_bytes())
            .spawn_scoped(scope, || {
                let (_, shared) =
                    check_rows_against_unshared_runs(&corpus, &default, ExecMode::default());
                assert!(shared > 0, "no row was shared");
                let starved = ResourceLimits::with_steps(5_000);
                let (budget_rows, _) =
                    check_rows_against_unshared_runs(&corpus, &starved, ExecMode::default());
                assert!(budget_rows > 0, "the 5,000-step budget stopped no row");
                let bound_4 = ExecMode { max_executions: 4 };
                check_rows_against_unshared_runs(&corpus, &default, bound_4);
            })
            .unwrap()
            .join()
            .unwrap()
    });
}

/// A repeated matrix executes nothing: on one artifact per program, the
/// second run of every named row, `symbolic` included, is answered from the
/// artifact's table, and it equals the first.
#[test]
fn a_repeated_matrix_executes_nothing() {
    let session = Session::default();
    let runner = DifferentialRunner::all_named();
    for (name, source) in corpus(CONTRACT_SEEDS) {
        let program = session.elaborate_uncached(&source).unwrap();
        let first = runner.run(&program);
        let before = program.execution_stats();
        let second = runner.run(&program);
        let after = program.execution_stats();
        assert_eq!(after.hits - before.hits, 10, "{name}: {after:?}");
        assert_eq!(after.misses, before.misses, "{name}: {after:?}");
        assert_eq!(first, second, "{name}");
    }
}

/// Generated programs consult no field on which the nine concrete presets
/// disagree, so their ten named rows cost at most two executions: those
/// nine, then `symbolic`. Their accesses stay within the bounds of the
/// allocations their provenances name, so no row reads `cheri`.
#[test]
fn generated_programs_cost_at_most_two_executions_per_matrix() {
    let session = Session::default();
    for (label, config) in [("small", GenConfig::small()), ("large", GenConfig::large())] {
        for seed in 0..40 {
            let source = to_c_source(&generate(seed, config));
            let program = session.elaborate_uncached(&source).unwrap();
            DifferentialRunner::all_named().run(&program);
            let stats = program.execution_stats();
            assert_eq!(stats.lookups(), 10, "{label} seed {seed}");
            assert!(stats.misses <= 2, "{label} seed {seed}: {stats:?}");
        }
    }
}

/// `cheri` executes apart from `de-facto` only where its answer matters: on
/// a fresh artifact per fixture, `de-facto` runs first, and wherever the
/// `cheri` row then executes too, its outcome differs from `de-facto`'s. A
/// consult of `cheri` whose answer changes nothing would split a fixture
/// here with equal outcomes.
#[test]
fn cheri_executes_apart_from_de_facto_only_where_its_outcome_differs() {
    let session = Session::default();
    let runner = DifferentialRunner::new(vec![ModelConfig::de_facto(), ModelConfig::cheri()]);
    let mut apart = 0;
    for test in cerberus_litmus::catalogue() {
        let program = session.elaborate_uncached(&test.source).unwrap();
        let matrix = runner.run(&program);
        if program.execution_stats().misses == 2 {
            assert_ne!(
                matrix.outcome_for("cheri"),
                matrix.outcome_for("de-facto"),
                "{}: `cheri` executed apart with the same outcome",
                test.name
            );
            apart += 1;
        }
    }
    assert!(apart > 0, "`cheri` never executed apart");
}
