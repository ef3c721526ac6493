//! Rendering pipeline results as [`Json`] — the one place that decides the
//! wire shape of outcome matrices, front-end rejections, litmus suite
//! summaries and queue statistics. Both the HTTP routes and `reproduce
//! --json` go through these functions, so the CLI and the service emit the
//! same documents.

use cerberus::{CacheStats, OutcomeMatrix, PipelineError, PipelineErrorKind};
use cerberus_litmus::SuiteSummary;
use cerberus_queue::QueueStats;
use cerberus_wire::json::Json;

// The per-execution wire shape lives in `cerberus-wire` (the litmus fixture
// expectation files are built from the same functions); re-exported here so
// the service keeps one renderer surface.
pub use cerberus_wire::outcome::{exec_result_to_json, program_outcome_to_json};

/// A §3-style outcome matrix: per-model rows plus the derived agreement
/// summary.
pub fn matrix_to_json(matrix: &OutcomeMatrix) -> Json {
    let rows = matrix
        .rows()
        .iter()
        .map(|row| {
            Json::obj([
                ("model", Json::str(row.model)),
                (
                    "outcomes",
                    Json::Arr(
                        row.outcome
                            .outcomes
                            .iter()
                            .map(program_outcome_to_json)
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let classes = matrix
        .agreement_classes()
        .iter()
        .map(|class| {
            Json::obj([
                (
                    "models",
                    Json::Arr(class.models.iter().map(|m| Json::str(*m)).collect()),
                ),
                ("faulted", Json::Bool(class.faulted)),
            ])
        })
        .collect();
    Json::obj([
        ("rows", Json::Arr(rows)),
        ("all_agree", Json::Bool(matrix.all_agree())),
        ("agreement_classes", Json::Arr(classes)),
        (
            "faulted_models",
            Json::Arr(
                matrix
                    .faulted_models()
                    .iter()
                    .map(|m| Json::str(*m))
                    .collect(),
            ),
        ),
    ])
}

/// A front-end rejection: the stage that rejected plus every diagnostic.
pub fn pipeline_error_to_json(error: &PipelineError) -> Json {
    let kind = match error.kind() {
        PipelineErrorKind::Syntax => "syntax",
        PipelineErrorKind::Constraint => "constraint",
    };
    let diagnostics = error
        .diagnostics()
        .iter()
        .map(|diagnostic| {
            Json::obj([
                ("message", Json::str(&diagnostic.message)),
                ("clause", Json::str(diagnostic.iso_clause)),
                ("line", Json::Int(i128::from(diagnostic.span.start.line))),
            ])
        })
        .collect();
    Json::obj([
        ("kind", Json::str(kind)),
        ("diagnostics", Json::Arr(diagnostics)),
    ])
}

/// One model's litmus-suite tallies (experiment E11/E17 shape).
pub fn suite_summary_to_json(summary: &SuiteSummary) -> Json {
    Json::obj([
        ("model", Json::str(summary.model)),
        ("flagged", Json::Int(summary.flagged as i128)),
        ("passed", Json::Int(summary.passed as i128)),
        ("as_expected", Json::Int(summary.as_expected as i128)),
        (
            "with_expectation",
            Json::Int(summary.with_expectation as i128),
        ),
        // The *names* of the fixtures that ran without a recorded
        // expectation, not just a count: an expectation hole should be
        // readable straight off the report.
        (
            "skipped_expectations",
            Json::Arr(summary.skipped_expectations.iter().map(Json::str).collect()),
        ),
        ("faulted", Json::Int(summary.faulted as i128)),
        ("total", Json::Int(summary.total as i128)),
    ])
}

fn cache_stats_to_json(stats: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::Int(i128::from(stats.hits))),
        ("misses", Json::Int(i128::from(stats.misses))),
        ("entries", Json::Int(stats.entries as i128)),
    ])
}

/// The queue snapshot served by `GET /api/v0/stats`.
pub fn queue_stats_to_json(stats: &QueueStats) -> Json {
    let workers = stats
        .workers
        .iter()
        .map(|worker| Json::obj([("executed", Json::Int(i128::from(worker.executed)))]))
        .collect();
    Json::obj([
        ("depth", Json::Int(stats.depth as i128)),
        ("submitted", Json::Int(i128::from(stats.submitted))),
        ("completed", Json::Int(i128::from(stats.completed))),
        (
            "elaboration_cache",
            cache_stats_to_json(&stats.elaboration_cache),
        ),
        ("analysis_cache", cache_stats_to_json(&stats.analysis_cache)),
        ("solver_memo", cache_stats_to_json(&stats.solver_memo)),
        ("workers", Json::Arr(workers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus::{DifferentialRunner, Session};
    use cerberus_memory::ModelConfig;

    #[test]
    fn a_defined_program_renders_an_agreeing_matrix() {
        let program = Session::default()
            .elaborate("int main(void) { return 42; }")
            .unwrap();
        let matrix =
            DifferentialRunner::new(vec![ModelConfig::concrete(), ModelConfig::symbolic()])
                .run(&program);
        let json = matrix_to_json(&matrix);
        assert_eq!(json.get("all_agree"), Some(&Json::Bool(true)));
        let rows = json.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        let first = rows[0].get("outcomes").and_then(Json::as_array).unwrap();
        assert_eq!(first[0].get("kind").and_then(Json::as_str), Some("return"));
        assert_eq!(first[0].get("value").and_then(Json::as_int), Some(42));
        // The document round-trips through the encoder/parser unchanged.
        assert_eq!(Json::parse(&json.encode()).unwrap(), json);
    }

    #[test]
    fn an_engine_fault_renders_as_a_tagged_row() {
        let program = Session::default()
            .elaborate("int main(void) { return 0; }")
            .unwrap();
        let matrix = DifferentialRunner::new(vec![ModelConfig::panicking()]).run(&program);
        let json = matrix_to_json(&matrix);
        let rows = json.get("rows").and_then(Json::as_array).unwrap();
        let outcome = &rows[0].get("outcomes").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            outcome.get("kind").and_then(Json::as_str),
            Some("engine-fault")
        );
        assert!(outcome.get("payload").is_some());
        let faulted = json.get("faulted_models").and_then(Json::as_array).unwrap();
        assert_eq!(faulted.len(), 1);
    }

    #[test]
    fn front_end_rejections_carry_structured_diagnostics() {
        let error = Session::default()
            .elaborate("int main(void) { return 1 +; }")
            .unwrap_err();
        let json = pipeline_error_to_json(&error);
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("syntax"));
        let diagnostics = json.get("diagnostics").and_then(Json::as_array).unwrap();
        assert!(!diagnostics.is_empty());
        assert!(diagnostics[0].get("message").is_some());
        assert!(diagnostics[0].get("line").is_some());
    }

    #[test]
    fn queue_stats_render_every_counter() {
        let queue = cerberus_queue::JobQueue::start(2);
        let id = queue
            .submit(cerberus_queue::Job::new(
                "int main(void) { return 1; }",
                vec![ModelConfig::concrete()],
            ))
            .unwrap();
        queue.wait(id);
        let json = queue_stats_to_json(&queue.stats());
        assert_eq!(json.get("submitted").and_then(Json::as_int), Some(1));
        assert_eq!(json.get("completed").and_then(Json::as_int), Some(1));
        for cache in ["elaboration_cache", "analysis_cache", "solver_memo"] {
            let Some(Json::Obj(members)) = json.get(cache) else {
                panic!("{cache} is not an object in {json:?}");
            };
            let names: Vec<_> = members.keys().map(String::as_str).collect();
            assert_eq!(names, ["entries", "hits", "misses"], "{cache}");
        }
        assert_eq!(
            json.get("elaboration_cache")
                .and_then(|c| c.get("misses"))
                .and_then(Json::as_int),
            Some(1)
        );
        assert_eq!(
            json.get("workers")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        queue.shutdown();
    }
}
