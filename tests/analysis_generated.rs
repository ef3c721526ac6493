//! The analyzer's counters on generated programs, pinned.
//!
//! `tests/analysis_table.txt` pins the static report on the golden fixtures,
//! but generated programs have almost no findings to compare, so a refactor
//! of the abstract interpreter could change how it walks them unnoticed. What
//! it walks shows in its counters: steps, explored and pruned paths and solver
//! traffic. This test renders one row per program for seeds 0–39 of
//! `GenConfig::small()` and `GenConfig::large()`, each analysed with a
//! private solver, and compares the rows with the committed
//! `tests/analysis_generated.txt`. A deliberate change regenerates the file
//! with `CERBERUS_UPDATE_FIXTURES=1 cargo test --test analysis_generated`.

use std::fmt::Write as _;
use std::path::Path;

use cerberus::analysis::{analyze_with, AnalysisConfig, AnalysisReport, FindingSeverity};
use cerberus::Session;
use cerberus_gen::{generate, to_c_source, GenConfig};

const SEEDS: u64 = 40;

fn row(label: &str, report: &AnalysisReport) -> String {
    let count = |severity| {
        report
            .findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    };
    let kinds: Vec<&str> = report.ub_kinds().iter().map(|k| k.core_name()).collect();
    format!(
        "{label} steps={} explored={} pruned={} queries={} memo_hits={} must={} may={} kinds=[{}]",
        report.steps_used,
        report.paths_explored,
        report.paths_pruned,
        report.solver_queries,
        report.solver_memo_hits,
        count(FindingSeverity::Must),
        count(FindingSeverity::May),
        kinds.join(", ")
    )
}

fn render() -> String {
    let session = Session::default();
    let mut out = String::new();
    for (size, config) in [("small", GenConfig::small()), ("large", GenConfig::large())] {
        for seed in 0..SEEDS {
            let source = to_c_source(&generate(seed, config));
            let program = session
                .elaborate(&source)
                .unwrap_or_else(|e| panic!("{size} seed {seed} does not elaborate: {e}"));
            let report = analyze_with(
                program.core(),
                program.impl_env(),
                AnalysisConfig::default(),
            );
            assert!(
                report.aborted.is_none() && report.violations.is_empty(),
                "{size} seed {seed}: {report:?}"
            );
            writeln!(out, "{}", row(&format!("{size}:{seed}"), &report)).expect("write to String");
        }
    }
    out
}

#[test]
fn generated_programs_keep_their_analysis_counters() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/analysis_generated.txt");
    let rendered = render();
    if std::env::var_os("CERBERUS_UPDATE_FIXTURES").is_some_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("write tests/analysis_generated.txt");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let changed: Vec<String> = committed
        .lines()
        .zip(rendered.lines())
        .filter(|(old, new)| old != new)
        .map(|(old, new)| format!("- {old}\n+ {new}"))
        .collect();
    assert!(
        changed.is_empty() && committed.lines().count() == rendered.lines().count(),
        "the analysis of generated programs changed (rerun with \
         CERBERUS_UPDATE_FIXTURES=1 to regenerate, then review the diff):\n{}",
        changed.join("\n")
    );
}
