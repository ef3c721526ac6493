//! The de facto semantic test suite (§2–§4 of the paper).
//!
//! The paper's design-space analysis is supported by 196 hand-written
//! semantic test cases organised around 85 questions. This crate carries the
//! executable subset of that suite that our pipeline supports, as a
//! **golden-file fixture corpus**: each [`LitmusTest`] is a
//! `tests/fixtures/<group>/<name>.c` program tagged (in its metadata header)
//! with the design question it probes, plus a sibling `<name>.expect` file
//! recording the *expected verdict under every memory object model* as
//! deterministic JSON, so the per-model comparison tables (experiments
//! E5–E12, E17) and the analysis-tool comparison (E11) can be regenerated by
//! running the suite under every configuration — and growing the corpus
//! toward the paper's 196 tests is data entry, not code (see the [`fixtures`]
//! module and `docs/FIXTURES.md`).

use cerberus::memory::config::ModelConfig;
use cerberus::pipeline::{Elaborated, RunOutcome, Session};
use cerberus::{DifferentialRunner, ModelRun, OutcomeMatrix};
use cerberus_ast::questions::QuestionCategory;
use cerberus_queue::{Job, JobOutcome, JobQueue};
use cerberus_wire::json::Json;

pub mod fixtures;

/// One semantic test case.
#[derive(Debug, Clone)]
pub struct LitmusTest {
    /// A short, file-style name (the fixture's `.c` file stem, e.g.
    /// `provenance_basic_global_xy`).
    pub name: String,
    /// The design-space question it probes, if one applies.
    pub question: Option<u32>,
    /// Its category in the §2 taxonomy.
    pub category: QuestionCategory,
    /// The C source.
    pub source: String,
    /// Recorded verdict cells per memory-model name (from
    /// [`ModelConfig::all_named`]), each exactly as the `.expect` file stores
    /// it (the shape [`fixtures::cell`] renders); models without an entry
    /// have no recorded expectation.
    pub expectations: Vec<(&'static str, Json)>,
}

impl LitmusTest {
    /// The expectation recorded for a model, if any.
    pub fn expectation_for(&self, model_name: &str) -> Option<&Json> {
        self.expectations
            .iter()
            .find(|(m, _)| *m == model_name)
            .map(|(_, e)| e)
    }
}

/// Elaborate one test into a reusable artifact (panics on the front end:
/// litmus sources are well-formed by construction).
pub fn elaborate(test: &LitmusTest) -> Elaborated {
    Session::default()
        .elaborate(&test.source)
        .unwrap_or_else(|e| panic!("litmus test {} failed in the front end: {e}", test.name))
}

/// Run one test under one memory model.
pub fn run_under(test: &LitmusTest, model: &ModelConfig) -> RunOutcome {
    elaborate(test).run_under(model)
}

/// Run one test under every model it records an expectation for, reusing a
/// single elaboration (the §3 comparison shape for one program).
pub fn differential(test: &LitmusTest) -> OutcomeMatrix {
    let models = ModelConfig::all_named()
        .into_iter()
        .filter(|m| test.expectation_for(m.name).is_some())
        .collect();
    DifferentialRunner::new(models).run(&elaborate(test))
}

/// The verdict of checking one test under one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The behaviour matched the recorded expectation.
    AsExpected,
    /// The behaviour differed from the recorded expectation.
    Unexpected(String),
    /// No expectation is recorded for this model.
    NoExpectation,
}

/// Check one test under one model.
pub fn check(test: &LitmusTest, model: &ModelConfig) -> Verdict {
    match test.expectation_for(model.name) {
        None => Verdict::NoExpectation,
        Some(_) => check_outcome(test, model.name, &run_under(test, model)),
    }
}

/// Check an already-computed outcome against the recorded expectation. The
/// outcome is as expected exactly when its rendered cell
/// ([`fixtures::cell`]) equals the recorded one, which is the comparison the
/// golden harness makes with [`fixtures::diff_expectations`].
pub fn check_outcome(test: &LitmusTest, model_name: &str, outcome: &RunOutcome) -> Verdict {
    let Some(expected) = test.expectation_for(model_name) else {
        return Verdict::NoExpectation;
    };
    let observed = fixtures::cell(outcome);
    if observed == *expected {
        Verdict::AsExpected
    } else {
        Verdict::Unexpected(format!(
            "{}: expected {}, observed {}",
            test.name,
            expected.encode(),
            observed.encode()
        ))
    }
}

/// Summary of running the whole suite under one model: how many tests were
/// flagged as undefined behaviour, how many ran to completion, how many
/// matched their recorded expectations, how many had no recorded expectation
/// for this model, and how many were lost to a contained engine fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteSummary {
    /// The model name.
    pub model: &'static str,
    /// Tests whose execution was flagged (undefined behaviour detected).
    pub flagged: usize,
    /// Tests that ran to completion without a flag.
    pub passed: usize,
    /// Tests whose behaviour matched the recorded expectation.
    pub as_expected: usize,
    /// Tests with a recorded expectation for this model.
    pub with_expectation: usize,
    /// The names of tests that ran (they still count under
    /// [`flagged`](Self::flagged) or [`passed`](Self::passed)) but record
    /// **no expectation** for this model, so nothing was checked. The names
    /// are reported, not just a count, so the offending fixtures can be read
    /// straight off a suite report; a hole in the expectation matrix can
    /// never masquerade as a green run, and a complete fixture corpus keeps
    /// this empty.
    pub skipped_expectations: Vec<String>,
    /// Tests whose execution panicked inside the memory model (an engine
    /// defect, contained by the suite runner). Faulted tests are counted
    /// neither as flagged nor as passed, and their expectations are not
    /// checked.
    pub faulted: usize,
    /// Total number of tests run.
    pub total: usize,
}

/// Run a suite through a [`JobQueue`] under several models at once
/// (experiments E11/E17), returning one [`SuiteSummary`] per model, in
/// `models` order.
///
/// Each test is one job over all of `models`: it is elaborated once, and its
/// matrix has one row per model. Engine panics are contained per row, so a
/// model defect surfaces as that model's [`SuiteSummary::faulted`] count
/// instead of tearing down the suite run or the other models' rows.
/// Front-end rejections and panics still abort: they indicate a broken
/// catalogue, not a broken engine.
///
/// # Panics
/// Panics if the queue has been shut down or a test fails in the front end.
pub fn run_suite(
    queue: &JobQueue,
    suite: &[LitmusTest],
    models: &[ModelConfig],
) -> Vec<SuiteSummary> {
    let outcomes = queue
        .run_batch(
            suite
                .iter()
                .map(|test| Job::new(test.source.clone(), models.to_vec())),
        )
        .expect("the suite's job queue is running");
    let matrices: Vec<OutcomeMatrix> = suite
        .iter()
        .zip(outcomes)
        .map(|(test, outcome)| match outcome {
            JobOutcome::Matrix(matrix) => matrix,
            JobOutcome::Rejected(e) => {
                panic!("litmus test {} failed in the front end: {e}", test.name)
            }
            JobOutcome::FrontendFault(payload) => {
                panic!(
                    "litmus test {} panicked in the front end: {payload}",
                    test.name
                )
            }
        })
        .collect();
    models
        .iter()
        .enumerate()
        .map(|(column, model)| {
            let rows = matrices.iter().map(|matrix| &matrix.rows()[column]);
            summarise(suite, model.name, rows)
        })
        .collect()
}

/// Fold one model's column of per-test rows into a [`SuiteSummary`].
fn summarise<'a>(
    suite: &[LitmusTest],
    model_name: &'static str,
    rows: impl IntoIterator<Item = &'a ModelRun>,
) -> SuiteSummary {
    let mut summary = SuiteSummary {
        model: model_name,
        flagged: 0,
        passed: 0,
        as_expected: 0,
        with_expectation: 0,
        skipped_expectations: Vec::new(),
        faulted: 0,
        total: suite.len(),
    };
    for (test, row) in suite.iter().zip(rows) {
        if row.is_fault() {
            summary.faulted += 1;
            continue;
        }
        let outcome = &row.outcome;
        if outcome.any_undef() {
            summary.flagged += 1;
        } else {
            summary.passed += 1;
        }
        match check_outcome(test, model_name, outcome) {
            Verdict::AsExpected => {
                summary.as_expected += 1;
                summary.with_expectation += 1;
            }
            Verdict::Unexpected(_) => summary.with_expectation += 1,
            Verdict::NoExpectation => summary.skipped_expectations.push(test.name.clone()),
        }
    }
    summary
}

/// The test catalogue, loaded from the golden-file fixture corpus
/// ([`fixtures::fixtures_root`]) — every call re-reads the fixture files, so
/// an edited or freshly added fixture is picked up without recompiling.
pub fn catalogue() -> Vec<LitmusTest> {
    fixtures::catalogue_from(&fixtures::fixtures_root())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `suite` under `models` as one batch on a two-worker queue.
    fn run_on(suite: &[LitmusTest], models: &[ModelConfig]) -> Vec<SuiteSummary> {
        run_suite(&JobQueue::start(2), suite, models)
    }

    #[test]
    fn catalogue_covers_the_headline_categories() {
        let suite = catalogue();
        assert!(suite.len() >= 60, "corpus shrank to {}", suite.len());
        let categories: std::collections::HashSet<_> = suite.iter().map(|t| t.category).collect();
        assert!(categories.contains(&QuestionCategory::ProvenanceBasics));
        assert!(categories.contains(&QuestionCategory::UnspecifiedValues));
        assert!(categories.contains(&QuestionCategory::Padding));
        assert!(categories.contains(&QuestionCategory::EffectiveTypesCharArrays));
        assert!(categories.contains(&QuestionCategory::PointerRelational));
        // Every test parses and runs under the de facto model without a
        // front-end error (run_under panics otherwise).
        for test in &suite {
            let _ = run_under(test, &ModelConfig::de_facto());
        }
    }

    #[test]
    fn differential_matrix_matches_recorded_expectations() {
        let suite = catalogue();
        let test = suite
            .iter()
            .find(|t| t.name == "provenance_basic_global_xy")
            .unwrap();
        let matrix = differential(test);
        assert_eq!(matrix.rows().len(), test.expectations.len());
        assert!(!matrix.all_agree(), "the DR260 example splits the models");
        for row in matrix.rows() {
            assert_eq!(
                check_outcome(test, row.model, &row.outcome),
                Verdict::AsExpected,
                "model {}",
                row.model
            );
        }
    }

    #[test]
    fn dr260_example_matches_expectations_under_all_three_models() {
        let suite = catalogue();
        let test = suite
            .iter()
            .find(|t| t.name == "provenance_basic_global_xy")
            .unwrap();
        for model in [
            ModelConfig::concrete(),
            ModelConfig::de_facto(),
            ModelConfig::gcc_like(),
        ] {
            assert_eq!(
                check(test, &model),
                Verdict::AsExpected,
                "model {}",
                model.name
            );
        }
    }

    #[test]
    fn every_model_matches_all_recorded_expectations() {
        // The golden-file invariant: under every named model, every fixture's
        // recorded expectation holds, and no expectation is skipped (the
        // matrix is complete after the symbolic backfill).
        for summary in run_on(&catalogue(), &ModelConfig::all_named()) {
            assert_eq!(
                summary.as_expected, summary.with_expectation,
                "unexpected verdicts under {}",
                summary.model
            );
            assert_eq!(
                summary.skipped_expectations,
                Vec::<String>::new(),
                "expectation holes under {}",
                summary.model
            );
            assert_eq!(summary.with_expectation, summary.total);
        }
    }

    #[test]
    fn strict_iso_flags_more_tests_than_the_de_facto_model() {
        let summaries = run_on(
            &catalogue(),
            &[ModelConfig::de_facto(), ModelConfig::strict_iso()],
        );
        let (df, iso) = (&summaries[0], &summaries[1]);
        assert!(
            iso.flagged > df.flagged,
            "iso {} vs de facto {}",
            iso.flagged,
            df.flagged
        );
    }

    #[test]
    fn sanitizer_profile_is_liberal_tis_is_strict() {
        // The §3 observation: the sanitisers flag few of the
        // unspecified-value/padding/provenance tests, tis-interpreter flags
        // many more.
        use cerberus::memory::config::ToolProfile;
        let summaries = run_on(
            &catalogue(),
            &[
                ModelConfig::tool(ToolProfile::Sanitizer),
                ModelConfig::tool(ToolProfile::TisInterpreter),
            ],
        );
        let (san, tis) = (&summaries[0], &summaries[1]);
        assert!(
            san.flagged < tis.flagged,
            "sanitizer {} vs tis {}",
            san.flagged,
            tis.flagged
        );
    }

    #[test]
    fn symbolic_disagreement_classes_match_their_expectations() {
        // The two headline concrete-vs-symbolic disagreement classes:
        // cross-object pointer comparison and the address-arithmetic intptr
        // round trip. Every recorded expectation must hold, and the matrix
        // must actually split the engines.
        let suite = catalogue();
        for name in [
            "provenance_equality_one_past",
            "pointer_relational_across_objects",
            "intptr_address_arithmetic",
            "provenance_basic_global_xy",
        ] {
            let test = suite.iter().find(|t| t.name == name).unwrap();
            let matrix = differential(test);
            for row in matrix.rows() {
                assert_eq!(
                    check_outcome(test, row.model, &row.outcome),
                    Verdict::AsExpected,
                    "{name} under {}",
                    row.model
                );
            }
            assert_ne!(
                matrix.outcome_for("symbolic"),
                matrix.outcome_for("concrete"),
                "{name} must split the symbolic and concrete engines"
            );
        }
    }

    #[test]
    fn the_symbolic_suite_run_is_stricter_than_concrete() {
        let summaries = run_on(
            &catalogue(),
            &[ModelConfig::concrete(), ModelConfig::symbolic()],
        );
        let (concrete, symbolic) = (&summaries[0], &summaries[1]);
        assert!(
            symbolic.flagged > concrete.flagged,
            "symbolic {} vs concrete {}",
            symbolic.flagged,
            concrete.flagged
        );
        // Every expectation recorded for `symbolic` holds.
        assert_eq!(symbolic.as_expected, symbolic.with_expectation);
    }

    #[test]
    fn a_faulting_engine_is_counted_not_crashed_on() {
        // The injected always-panicking model runs in the same jobs as two
        // healthy ones: every test's panicking row faults, none is flagged
        // or passed, and the suite run and the healthy rows survive intact.
        let summaries = run_on(
            &catalogue(),
            &[
                ModelConfig::panicking(),
                ModelConfig::de_facto(),
                ModelConfig::symbolic(),
            ],
        );
        let names: Vec<&str> = summaries.iter().map(|s| s.model).collect();
        assert_eq!(names, ["panicking", "de-facto", "symbolic"]);
        let (panicking, healthy) = summaries.split_first().unwrap();
        assert_eq!(panicking.faulted, panicking.total);
        assert_eq!(panicking.flagged, 0);
        assert_eq!(panicking.passed, 0);
        assert_eq!(panicking.with_expectation, 0);
        // Faulted tests skip the expectation check entirely — they are not
        // "skipped expectations" (the fixture matrix does record cells for
        // the named models; the engine just never produced an outcome).
        assert!(panicking.skipped_expectations.is_empty());
        // The healthy rows of the same jobs fault nowhere and match every
        // recorded expectation.
        for summary in healthy {
            assert_eq!(summary.faulted, 0, "{}", summary.model);
            assert_eq!(summary.as_expected, summary.total, "{}", summary.model);
            assert_eq!(summary.with_expectation, summary.total, "{}", summary.model);
        }
    }

    #[test]
    fn suite_runs_report_expectation_holes_instead_of_hiding_them() {
        // Strip the de-facto expectations from two tests: the summary must
        // report exactly those as skipped, and keep counting them as
        // flagged/passed.
        let mut suite: Vec<LitmusTest> = catalogue().into_iter().take(5).collect();
        for test in suite.iter_mut().take(2) {
            test.expectations.retain(|(m, _)| *m != "de-facto");
        }
        let summary = &run_on(&suite, &[ModelConfig::de_facto()])[0];
        let skipped_names: Vec<&str> = suite.iter().take(2).map(|t| t.name.as_str()).collect();
        assert_eq!(summary.skipped_expectations, skipped_names);
        assert_eq!(summary.with_expectation, 3);
        assert_eq!(summary.flagged + summary.passed, summary.total);
        assert_eq!(summary.total, 5);
    }

    #[test]
    fn a_ub_cell_with_another_detail_is_unexpected() {
        // One oracle judges the corpus: a recorded cell is as expected only
        // when it equals the rendered outcome. An `undef` cell that names the
        // observed UB kind but carries another detail string is a mismatch,
        // both for `check` and in the suite tallies.
        let mut test = catalogue()
            .into_iter()
            .find(|t| t.name == "provenance_basic_global_xy")
            .unwrap();
        let (_, cell) = test
            .expectations
            .iter_mut()
            .find(|(m, _)| *m == "de-facto")
            .unwrap();
        assert_eq!(cell.get("kind").and_then(Json::as_str), Some("undef"));
        let Json::Obj(members) = cell else {
            panic!("a verdict cell is a JSON object")
        };
        members.insert("detail".to_owned(), Json::str("another detail"));

        let model = ModelConfig::de_facto();
        assert!(matches!(check(&test, &model), Verdict::Unexpected(_)));
        let summaries = run_on(std::slice::from_ref(&test), std::slice::from_ref(&model));
        assert_eq!(summaries[0].with_expectation, 1);
        assert_eq!(summaries[0].as_expected, 0);
    }

    #[test]
    fn effective_types_test_differs_between_models() {
        let suite = catalogue();
        let test = suite
            .iter()
            .find(|t| t.name == "effective_type_char_array_reuse")
            .unwrap();
        assert_eq!(check(test, &ModelConfig::de_facto()), Verdict::AsExpected);
        assert_eq!(check(test, &ModelConfig::strict_iso()), Verdict::AsExpected);
    }
}
