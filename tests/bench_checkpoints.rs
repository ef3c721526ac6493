//! Contract tests for the committed `BENCH_*.json` benchmark checkpoints.
//!
//! The criterion shim writes these files when a bench runs under
//! `BENCH_JSON=...`; the committed copies are the run-over-run baselines CI
//! compares fresh runs against. These tests keep the committed artifacts
//! honest: they must parse as the documented schema (an array of
//! `{"group", "bench", "mean_ns", "samples"}` rows), and the analysis
//! checkpoint must actually demonstrate the property it was committed to
//! witness — the solver memo table earns its keep (`solver_memo_hits > 0`)
//! and path exploration happened at all.

use std::path::{Path, PathBuf};

use cerberus_wire::json::Json;

fn checkpoint_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// Parse a checkpoint and validate the row schema, returning the rows.
fn load_checkpoint(name: &str) -> Vec<Json> {
    let path = checkpoint_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed checkpoint {} is missing: {e}", path.display()));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"));
    let rows = json
        .as_array()
        .unwrap_or_else(|| panic!("{name}: top-level value must be an array"))
        .to_vec();
    assert!(!rows.is_empty(), "{name}: checkpoint must not be empty");
    for row in &rows {
        let bench = row
            .get("bench")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: row without a string \"bench\" member: {row:?}"));
        assert!(
            row.get("group").is_some(),
            "{name}: row {bench} lacks a \"group\" member"
        );
        let mean = row
            .get("mean_ns")
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("{name}: row {bench} lacks an integer \"mean_ns\""));
        assert!(mean >= 0, "{name}: row {bench} has negative mean_ns {mean}");
        let samples = row
            .get("samples")
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("{name}: row {bench} lacks an integer \"samples\""));
        assert!(
            samples >= 0,
            "{name}: row {bench} has negative samples {samples}"
        );
    }
    rows
}

/// Look up a counter row (samples == 0) by bench name.
fn counter(rows: &[Json], bench: &str) -> i128 {
    let row = rows
        .iter()
        .find(|r| r.get("bench").and_then(Json::as_str) == Some(bench))
        .unwrap_or_else(|| panic!("checkpoint lacks a {bench} row"));
    assert_eq!(
        row.get("samples").and_then(Json::as_int),
        Some(0),
        "{bench} must be a counter row (samples == 0)"
    );
    row.get("mean_ns").and_then(Json::as_int).unwrap()
}

#[test]
fn analysis_checkpoint_is_committed_and_well_formed() {
    let rows = load_checkpoint("BENCH_analysis.json");

    // The four timing rows the bench always emits.
    for bench in [
        "corpus_path_sensitive",
        "corpus_flow_baseline",
        "corpus_memoized",
        "generated_large",
    ] {
        let row = rows
            .iter()
            .find(|r| r.get("bench").and_then(Json::as_str) == Some(bench))
            .unwrap_or_else(|| panic!("BENCH_analysis.json lacks the {bench} timing row"));
        let samples = row.get("samples").and_then(Json::as_int).unwrap();
        assert!(samples > 0, "{bench} must be a timed row, got samples 0");
        let mean = row.get("mean_ns").and_then(Json::as_int).unwrap();
        assert!(mean > 0, "{bench} recorded a zero mean — bench did not run");
    }
}

#[test]
fn analysis_checkpoint_shows_the_solver_memo_working() {
    let rows = load_checkpoint("BENCH_analysis.json");

    let fixtures = counter(&rows, "fixtures_analyzed");
    assert!(fixtures > 0, "no fixtures analyzed in the recorded pass");

    let explored = counter(&rows, "paths_explored");
    assert!(
        explored >= fixtures,
        "every analyzed fixture explores at least one path \
         (explored {explored} < fixtures {fixtures})"
    );

    // paths_pruned is free to be zero over the golden corpus (the committed
    // fixtures have no infeasible branches — unit tests in cerberus-analysis
    // prove the pruning machinery); it only has to be present and recorded.
    let _ = counter(&rows, "paths_pruned");

    // The acceptance criterion from the path-sensitivity work: constraint
    // subgoals recur across the corpus, so the Johnson-style memo table must
    // show hits on a cold whole-corpus pass.
    let queries = counter(&rows, "solver_queries");
    let hits = counter(&rows, "solver_memo_hits");
    assert!(queries > 0, "the path-sensitive pass never hit the solver");
    assert!(
        hits > 0,
        "solver memo recorded zero hits over the corpus — memoization is not \
         observably working (queries: {queries})"
    );
    assert!(
        hits <= queries,
        "memo hits ({hits}) cannot exceed solver queries ({queries})"
    );
}

#[test]
fn differential_checkpoint_is_committed_and_well_formed() {
    load_checkpoint("BENCH_differential.json");
}
