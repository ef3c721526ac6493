//! The golden-file litmus harness.
//!
//! Discovers every fixture under `tests/fixtures/<group>/<name>.c`, runs each
//! program under **every named memory model** (one elaboration per fixture,
//! executions fanned out across the job queue), and diffs the observed verdict
//! matrix against the committed `<name>.expect` file cell by cell.
//!
//! To (re)generate expectation files in place — after adding a fixture, or
//! after an intentional semantics change — run:
//!
//! ```text
//! CERBERUS_UPDATE_FIXTURES=1 cargo test --test harness
//! ```
//!
//! and review the resulting `git diff` like any other code change. The
//! comparison is exact (the full rendered outcome per model: kind, value,
//! stdout, UB name/clause/detail), so any drift in any model's verdict on any
//! fixture shows up as a readable per-cell failure report.

use std::fmt::Write as _;

use cerberus::memory::config::ModelConfig;
use cerberus_litmus::fixtures::{
    diff_expectations, discover, expectation_document, fixtures_root, FixtureEntry,
};
use cerberus_queue::{Job, JobOutcome, JobQueue};
use cerberus_wire::json::Json;

/// Whether this run should rewrite `.expect` files instead of checking them.
fn update_mode() -> bool {
    std::env::var_os("CERBERUS_UPDATE_FIXTURES").is_some_and(|v| v == "1")
}

/// Run one fixture under every named model and render its expectation
/// document. The queue elaborates the source once per job and reuses that
/// artifact for all model executions.
fn observed_documents(queue: &JobQueue, entries: &[FixtureEntry]) -> Vec<Json> {
    let outcomes = queue
        .run_batch(entries.iter().map(|entry| {
            let source = std::fs::read_to_string(&entry.source_path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", entry.source_path.display()));
            Job::new(source, ModelConfig::all_named())
        }))
        .expect("the harness queue is running");
    entries
        .iter()
        .zip(outcomes)
        .map(|(entry, outcome)| match outcome {
            JobOutcome::Matrix(matrix) => expectation_document(&matrix),
            JobOutcome::Rejected(e) => panic!(
                "fixture {}/{} was rejected by the front end: {e}",
                entry.group, entry.name
            ),
            JobOutcome::FrontendFault(payload) => panic!(
                "fixture {}/{} panicked in the front end: {payload}",
                entry.group, entry.name
            ),
        })
        .collect()
}

#[test]
fn golden_fixture_matrices_match_their_expect_files() {
    let root = fixtures_root();
    let entries = discover(&root);
    assert!(
        entries.len() >= 60,
        "fixture corpus shrank to {} entries",
        entries.len()
    );

    let queue = JobQueue::start(std::thread::available_parallelism().map_or(4, |n| n.get()));
    let observed = observed_documents(&queue, &entries);
    queue.shutdown();

    if update_mode() {
        let mut written = 0;
        for (entry, document) in entries.iter().zip(&observed) {
            let rendered = document.encode_pretty();
            if std::fs::read_to_string(&entry.expect_path).ok().as_deref() != Some(&rendered) {
                std::fs::write(&entry.expect_path, rendered).unwrap_or_else(|e| {
                    panic!("cannot write {}: {e}", entry.expect_path.display())
                });
                written += 1;
            }
        }
        eprintln!(
            "regenerated {written} of {} expectation files under {}",
            entries.len(),
            root.display()
        );
        return;
    }

    let mut report = String::new();
    let mut failing = 0;
    for (entry, actual) in entries.iter().zip(&observed) {
        let recorded = match std::fs::read_to_string(&entry.expect_path) {
            Ok(text) => Json::parse(&text)
                .unwrap_or_else(|e| panic!("malformed {}: {e}", entry.expect_path.display())),
            Err(_) => {
                failing += 1;
                let _ = writeln!(
                    report,
                    "{}/{}: missing expectation file {}",
                    entry.group,
                    entry.name,
                    entry.expect_path.display()
                );
                continue;
            }
        };
        let diffs = diff_expectations(&recorded, actual);
        if !diffs.is_empty() {
            failing += 1;
            let _ = writeln!(report, "{}/{}:", entry.group, entry.name);
            for diff in diffs {
                let _ = writeln!(report, "  {diff}");
            }
        }
    }
    assert!(
        failing == 0,
        "{failing} of {} fixtures disagree with their golden expectations \
         (rerun with CERBERUS_UPDATE_FIXTURES=1 to regenerate, then review the diff):\n{report}",
        entries.len()
    );
}

#[test]
fn regeneration_is_a_fixed_point() {
    // Running the suite twice must produce byte-identical documents: the
    // encoder is deterministic and the per-model outcomes are reproducible,
    // which is what makes `.expect` files reviewable golden state.
    let entries = discover(&fixtures_root());
    let sample: Vec<FixtureEntry> = entries.into_iter().take(6).collect();
    let queue = JobQueue::start(2);
    let first = observed_documents(&queue, &sample);
    let second = observed_documents(&queue, &sample);
    queue.shutdown();
    for ((entry, a), b) in sample.iter().zip(&first).zip(&second) {
        assert_eq!(
            a.encode_pretty(),
            b.encode_pretty(),
            "non-deterministic outcome for {}/{}",
            entry.group,
            entry.name
        );
    }
}

#[test]
fn expectation_files_are_pretty_printed_and_complete() {
    // Committed golden files stay in the canonical rendering (one line per
    // scalar, sorted keys) so diffs are per-cell, and every file covers the
    // full named-model matrix.
    let models: Vec<&str> = ModelConfig::all_named().iter().map(|m| m.name).collect();
    for entry in discover(&fixtures_root()) {
        let Ok(text) = std::fs::read_to_string(&entry.expect_path) else {
            continue; // the golden test above reports missing files
        };
        let document = Json::parse(&text)
            .unwrap_or_else(|e| panic!("malformed {}: {e}", entry.expect_path.display()));
        assert_eq!(
            text,
            document.encode_pretty(),
            "{} is not canonically formatted (regenerate with CERBERUS_UPDATE_FIXTURES=1)",
            entry.expect_path.display()
        );
        let Some(Json::Obj(matrix)) = document.get("matrix") else {
            panic!("{} has no matrix", entry.expect_path.display());
        };
        for model in &models {
            assert!(
                matrix.contains_key(*model),
                "{} records no cell for model {model}",
                entry.expect_path.display()
            );
        }
    }
}
