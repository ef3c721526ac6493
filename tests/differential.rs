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

/// Programs whose outcome depends on where allocations are placed, each
/// through one of the ways an execution observes an absolute address. Under
/// packed placement `&x - 0x4000` is address 0; under regions it is not.
/// Loading that pointer from `p` already observes its address, since a
/// loaded address can be a function's, so the null test is also made on the
/// pointer as computed.
const ADDRESS_OBSERVERS: [(&str, &str); 11] = [
    (
        "wrapped to null, dereferenced",
        "int main(void) { int x; int *p = &x - 0x4000; return *p; }",
    ),
    (
        "wrapped to null, tested",
        "int main(void) { int x; int *p = &x - 0x4000; if (p) return 1; return 2; }",
    ),
    (
        "wrapped to null, dereferenced as computed",
        "int main(void) { int x; return *(&x - 0x4000); }",
    ),
    (
        "wrapped to null, tested as computed",
        "int main(void) { int x; if (&x - 0x4000) return 1; return 2; }",
    ),
    (
        "%p",
        "#include <stdio.h>\nint main(void) { int x; printf(\"%p\\n\", (void *)&x); return 0; }",
    ),
    (
        "an address hashed through unsigned long",
        "int main(void) { int x; unsigned long a = (unsigned long)&x; \
         return (int)((a >> 32) ^ (a & 0xff)); }",
    ),
    (
        "a pointer compared with an integer constant",
        "int main(void) { int x; return &x == (int *)0x10000; }",
    ),
    (
        "memcmp of two pointers' bytes",
        "#include <string.h>\nint main(void) { int x, y; int *p = &x + 1; int *q = &y; \
         return memcmp(&p, &q, sizeof p) == 0; }",
    ),
    (
        "a pointer's bytes read as unsigned long",
        "int main(void) { int x; int *p = &x; return (int)(*(unsigned long *)&p >> 32); }",
    ),
    (
        "one past x compared with &y",
        "int main(void) { int x = 1, y = 2; int *p = &x + 1; int *q = &y; return p == q; }",
    ),
    (
        "a pointer spliced from the bytes of two pointers into one array",
        "#include <string.h>\nint main(void) { char pad[7]; char a[300]; char *p = a + 0xF9; \
         char *q = a + 0x100; char *r; memcpy(&r, &q, sizeof r); memcpy(&r, &p, 1); \
         return r == p; }",
    ),
];

/// The fixture corpus, [`ADDRESS_OBSERVERS`] and `seeds` of both generator
/// sizes, as `(name, source)`.
fn corpus(seeds: Range<u64>) -> Vec<(String, String)> {
    let mut corpus: Vec<(String, String)> = cerberus_litmus::catalogue()
        .into_iter()
        .map(|test| (test.name, test.source))
        .chain(
            ADDRESS_OBSERVERS
                .iter()
                .map(|(name, source)| (name.to_string(), source.to_string())),
        )
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
/// on the fixtures, the address observers and generated programs, at the
/// default budget, at a 5,000-step budget and at bound 4. `symbolic` differs
/// from the packed presets only in placement, so its row is shared wherever
/// no address was observed and checked here wherever one was.
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

/// Generated programs consult no field on which the ten named models
/// disagree, so their ten rows cost one execution, one fewer than the bound
/// the test's name keeps from when `symbolic` ran on an engine of its own.
/// They observe no address, so no row reads the placement, and their
/// accesses stay within the bounds of the allocations their provenances
/// name, so no row reads `cheri`.
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
            assert_eq!(stats.misses, 1, "{label} seed {seed}: {stats:?}");
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
