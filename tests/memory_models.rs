//! Integration tests: the de facto litmus suite and cross-model divergence
//! (the §2–§4 experiments as assertions).

use cerberus_ast::ub::UbKind;
use cerberus_litmus::{catalogue, check, run_suite, run_under, Verdict};
use cerberus_memory::config::{ModelConfig, ToolProfile};
use cerberus_queue::JobQueue;

#[test]
fn every_litmus_expectation_holds() {
    // Every (test, model) expectation recorded in the catalogue is satisfied
    // by the implementation — this is the repository's version of the paper's
    // claim that the candidate model gives the intended behaviour on its
    // de facto tests (E17), extended to all the models we implement.
    for model in ModelConfig::all_named() {
        for test in catalogue() {
            let verdict = check(&test, &model);
            assert!(
                matches!(verdict, Verdict::AsExpected | Verdict::NoExpectation),
                "model {}: {:?}",
                model.name,
                verdict
            );
        }
    }
}

#[test]
fn model_strictness_ordering_matches_the_paper() {
    // §3: the sanitisers are liberal, tis-interpreter and KCC are strict, and
    // the candidate de facto model sits in between (stricter than the
    // concrete semantics, laxer than strict ISO).
    let models = [
        ModelConfig::concrete(),
        ModelConfig::de_facto(),
        ModelConfig::strict_iso(),
        ModelConfig::tool(ToolProfile::Sanitizer),
        ModelConfig::tool(ToolProfile::TisInterpreter),
        ModelConfig::tool(ToolProfile::Kcc),
    ];
    let summaries = run_suite(&JobQueue::start(2), &catalogue(), &models);
    let [concrete, de_facto, strict, sanitizer, tis, kcc] = &summaries[..] else {
        panic!("one summary per model")
    };

    assert!(concrete.flagged <= de_facto.flagged);
    assert!(de_facto.flagged < strict.flagged);
    assert!(sanitizer.flagged < tis.flagged);
    assert!(sanitizer.flagged <= kcc.flagged);
}

#[test]
fn dr260_outcomes_reproduce_the_paper_shape() {
    let suite = catalogue();
    let dr260 = suite
        .iter()
        .find(|t| t.name == "provenance_basic_global_xy")
        .unwrap();

    let concrete = run_under(dr260, &ModelConfig::concrete());
    assert_eq!(concrete.outcomes[0].stdout, "x=1 y=11 *p=11 *q=11\n");

    let gcc_like = run_under(dr260, &ModelConfig::gcc_like());
    assert_eq!(gcc_like.outcomes[0].stdout, "x=1 y=2 *p=11 *q=2\n");

    let de_facto = run_under(dr260, &ModelConfig::de_facto());
    assert_eq!(
        de_facto.outcomes[0].result.ub_kind(),
        Some(UbKind::OutOfBoundsAccess)
    );
}

#[test]
fn effective_types_only_bite_under_strict_models() {
    let suite = catalogue();
    let q75 = suite
        .iter()
        .find(|t| t.name == "effective_type_char_array_reuse")
        .unwrap();
    assert!(!run_under(q75, &ModelConfig::de_facto()).any_undef());
    assert!(run_under(q75, &ModelConfig::strict_iso()).any_undef());
}

#[test]
fn q31_transient_oob_pointers_split_the_models() {
    let suite = catalogue();
    let q31 = suite
        .iter()
        .find(|t| t.name == "oob_transient_pointer")
        .unwrap();
    assert!(!run_under(q31, &ModelConfig::de_facto()).any_undef());
    assert!(run_under(q31, &ModelConfig::strict_iso()).any_undef());
}

#[test]
fn suite_covers_a_substantial_part_of_the_question_taxonomy() {
    use cerberus_ast::questions::QuestionCategory;
    let suite = catalogue();
    let categories: std::collections::HashSet<QuestionCategory> =
        suite.iter().map(|t| t.category).collect();
    assert!(
        categories.len() >= 12,
        "only {} categories covered",
        categories.len()
    );
    let with_questions = suite.iter().filter(|t| t.question.is_some()).count();
    assert!(with_questions >= 14);
}
