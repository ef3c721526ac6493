//! The golden-file fixture corpus: discovery, metadata parsing, expectation
//! loading, and the one rendering of a verdict cell ([`cell`]) that both the
//! suite checks and the `.expect` documents use.
//!
//! Each litmus test is a pair of files under the fixture root
//! (`tests/fixtures/` at the workspace root):
//!
//! * `<group>/<name>.c` — the program, with a metadata header of
//!   line comments (`// @question: 11`, `// @category: provenance-basics`);
//! * `<group>/<name>.expect` — the per-model verdict matrix as deterministic
//!   JSON: `{"matrix": {"<model>": <program outcome>, ...}}`, where each cell
//!   is exactly [`cerberus_wire::outcome::program_outcome_to_json`]'s shape —
//!   the same document a `/api/v0/jobs/{id}` row or `reproduce --json` emits
//!   for that execution.
//!
//! Adding a test is data entry: drop a `.c` file in a group directory and run
//! the harness with `CERBERUS_UPDATE_FIXTURES=1` to materialise its `.expect`
//! file (then review the recorded verdicts like any other diff). A missing
//! `.expect` file loads as a test with no recorded expectations, which is what
//! lets regeneration bootstrap.

use std::path::{Path, PathBuf};

use cerberus::memory::config::ModelConfig;
use cerberus::{OutcomeMatrix, RunOutcome};
use cerberus_ast::questions::QuestionCategory;
use cerberus_wire::json::Json;

use crate::LitmusTest;

/// The fixture corpus root: `tests/fixtures/` at the workspace root
/// (resolved at compile time, so the suite is independent of the working
/// directory).
pub fn fixtures_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures"))
}

/// One discovered fixture: its group directory, test name, and file paths.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FixtureEntry {
    /// The group directory name (organisational only; the semantic category
    /// comes from the `@category` header).
    pub group: String,
    /// The test name (the `.c` file stem).
    pub name: String,
    /// Path to the C source file.
    pub source_path: PathBuf,
    /// Path of the sibling `.expect` file (which may not exist yet).
    pub expect_path: PathBuf,
}

/// Discover every fixture under `root`, sorted by `(group, name)` so every
/// traversal of the corpus is deterministic. Entries whose name starts with
/// `_` are not fixtures.
pub fn discover(root: &Path) -> Vec<FixtureEntry> {
    let mut entries = Vec::new();
    let groups = std::fs::read_dir(root)
        .unwrap_or_else(|e| panic!("cannot read fixture root {}: {e}", root.display()));
    for group in groups.flatten() {
        let group_name = group.file_name().to_string_lossy().into_owned();
        if group_name.starts_with('_') || !group.path().is_dir() {
            continue;
        }
        for file in std::fs::read_dir(group.path())
            .unwrap_or_else(|e| panic!("cannot read fixture group {group_name}: {e}"))
            .flatten()
        {
            let path = file.path();
            if path.extension().is_some_and(|ext| ext == "c") {
                let name = path
                    .file_stem()
                    .expect("a .c file has a stem")
                    .to_string_lossy()
                    .into_owned();
                if name.starts_with('_') {
                    continue;
                }
                entries.push(FixtureEntry {
                    group: group_name.clone(),
                    expect_path: path.with_extension("expect"),
                    source_path: path,
                    name,
                });
            }
        }
    }
    entries.sort();
    entries
}

/// Parse the `// @question:` / `// @category:` metadata header of a fixture
/// source. The category is required; the question number is optional.
fn parse_metadata(name: &str, source: &str) -> (Option<u32>, QuestionCategory) {
    let mut question = None;
    let mut category = None;
    for line in source.lines() {
        let Some(rest) = line.trim().strip_prefix("//") else {
            // The metadata header is the leading comment block; stop at the
            // first non-comment line.
            if line.trim().is_empty() {
                continue;
            }
            break;
        };
        let rest = rest.trim();
        if let Some(value) = rest.strip_prefix("@question:") {
            question =
                Some(value.trim().parse::<u32>().unwrap_or_else(|e| {
                    panic!("fixture {name}: malformed @question {value:?}: {e}")
                }));
        } else if let Some(value) = rest.strip_prefix("@category:") {
            let slug = value.trim();
            category = Some(
                QuestionCategory::from_slug(slug)
                    .unwrap_or_else(|| panic!("fixture {name}: unknown @category slug {slug:?}")),
            );
        }
    }
    let category =
        category.unwrap_or_else(|| panic!("fixture {name}: missing `// @category: <slug>` header"));
    (question, category)
}

/// Load one fixture into a [`LitmusTest`]. A missing `.expect` file yields a
/// test with no recorded expectations (regeneration bootstraps from that);
/// a malformed one panics — the corpus is well-formed by construction.
pub fn load(entry: &FixtureEntry) -> LitmusTest {
    let source = std::fs::read_to_string(&entry.source_path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", entry.source_path.display()));
    let (question, category) = parse_metadata(&entry.name, &source);
    let expectations = match std::fs::read_to_string(&entry.expect_path) {
        Err(_) => Vec::new(),
        Ok(text) => {
            let document = Json::parse(&text).unwrap_or_else(|e| {
                panic!(
                    "malformed expectation file {}: {e}",
                    entry.expect_path.display()
                )
            });
            let Some(Json::Obj(matrix)) = document.get("matrix") else {
                panic!(
                    "expectation file {} has no \"matrix\" object",
                    entry.expect_path.display()
                )
            };
            // Keep expectations in `all_named` order (the matrix row order),
            // not the JSON object's alphabetical one, and intern the model
            // name through its configuration.
            let mut expectations = Vec::with_capacity(matrix.len());
            for config in ModelConfig::all_named() {
                if let Some(cell) = matrix.get(config.name) {
                    expectations.push((config.name, cell.clone()));
                }
            }
            for model in matrix.keys() {
                assert!(
                    ModelConfig::by_name(model).is_some(),
                    "expectation file {} names unknown model {model:?}",
                    entry.expect_path.display()
                );
            }
            expectations
        }
    };
    LitmusTest {
        name: entry.name.clone(),
        question,
        category,
        source,
        expectations,
    }
}

/// Load the whole corpus under `root`, sorted by `(group, name)`.
pub fn catalogue_from(root: &Path) -> Vec<LitmusTest> {
    discover(root).iter().map(load).collect()
}

/// Render one verdict cell: the first program outcome of a run in the wire
/// shape ([`cerberus_wire::outcome::program_outcome_to_json`]), or `null` for
/// a run without one. `.expect` files store these cells, and an observed
/// outcome is as expected exactly when its cell equals the recorded one.
pub fn cell(outcome: &RunOutcome) -> Json {
    match outcome.outcomes.first() {
        Some(first) => cerberus_wire::outcome::program_outcome_to_json(first),
        None => Json::Null,
    }
}

/// Build the expectation document for an observed outcome matrix — the exact
/// content of a `.expect` file: one rendered [`cell`] per model row.
pub fn expectation_document(matrix: &OutcomeMatrix) -> Json {
    let cells = matrix
        .rows()
        .iter()
        .map(|row| (row.model, cell(&row.outcome)));
    Json::obj([("matrix", Json::obj(cells))])
}

/// One disagreeing cell between an expected and an actual verdict matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// The model whose cell disagrees.
    pub model: String,
    /// The recorded expectation (`None`: the model has no recorded cell).
    pub expected: Option<Json>,
    /// The observed outcome (`None`: the model was not run).
    pub actual: Option<Json>,
}

impl std::fmt::Display for CellDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let render = |cell: &Option<Json>| match cell {
            Some(json) => json.encode(),
            None => "<absent>".to_owned(),
        };
        write!(
            f,
            "[{}]\n    expected: {}\n    actual:   {}",
            self.model,
            render(&self.expected),
            render(&self.actual)
        )
    }
}

/// Diff two expectation documents per model cell. Returns one [`CellDiff`]
/// per disagreeing model, in model-name order; an empty result means the
/// matrices agree exactly.
pub fn diff_expectations(expected: &Json, actual: &Json) -> Vec<CellDiff> {
    let cells = |doc: &Json| match doc.get("matrix") {
        Some(Json::Obj(members)) => members.clone(),
        _ => Default::default(),
    };
    let expected = cells(expected);
    let actual = cells(actual);
    let mut models: Vec<&String> = expected.keys().chain(actual.keys()).collect();
    models.sort_unstable();
    models.dedup();
    models
        .into_iter()
        .filter(|m| expected.get(*m) != actual.get(*m))
        .map(|m| CellDiff {
            model: m.clone(),
            expected: expected.get(m).cloned(),
            actual: actual.get(m).cloned(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_root_discovers_a_sorted_corpus() {
        let entries = discover(&fixtures_root());
        assert!(
            entries.len() >= 60,
            "fixture corpus has shrunk: {} entries",
            entries.len()
        );
        let mut sorted = entries.clone();
        sorted.sort();
        assert_eq!(entries, sorted);
        // Names are unique across groups (the suite is keyed by name).
        let mut names: Vec<_> = entries.iter().map(|e| &e.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate fixture names");
    }

    #[test]
    fn metadata_headers_parse() {
        let (question, category) = parse_metadata(
            "t",
            "// @question: 11\n// @category: provenance-basics\nint main(void) { return 0; }\n",
        );
        assert_eq!(question, Some(11));
        assert_eq!(category, QuestionCategory::ProvenanceBasics);
        // No question, category later in the header block.
        let (question, category) =
            parse_metadata("t", "// a comment\n// @category: padding\nint x;\n");
        assert_eq!(question, None);
        assert_eq!(category, QuestionCategory::Padding);
    }

    #[test]
    #[should_panic(expected = "missing `// @category:")]
    fn a_missing_category_header_is_rejected() {
        parse_metadata("t", "int main(void) { return 0; }\n");
    }

    #[test]
    fn diffs_cover_changed_missing_and_extra_cells() {
        let expected = Json::parse(
            r#"{"matrix":{"concrete":{"kind":"return","stdout":"","value":1},"de-facto":{"kind":"return","stdout":"","value":1}}}"#,
        )
        .unwrap();
        let actual = Json::parse(
            r#"{"matrix":{"concrete":{"kind":"return","stdout":"","value":2},"symbolic":{"kind":"return","stdout":"","value":1}}}"#,
        )
        .unwrap();
        let diffs = diff_expectations(&expected, &actual);
        let models: Vec<_> = diffs.iter().map(|d| d.model.as_str()).collect();
        assert_eq!(models, ["concrete", "de-facto", "symbolic"]);
        assert!(diffs[0].to_string().contains("expected"));
        assert!(diff_expectations(&expected, &expected).is_empty());
    }

    #[test]
    fn every_fixture_loads_with_a_complete_expectation_matrix() {
        // The corpus invariant behind experiment E11/E17: every fixture's
        // expectation file covers all named models (the symbolic backfill).
        for test in catalogue_from(&fixtures_root()) {
            assert_eq!(
                test.expectations.len(),
                ModelConfig::all_named().len(),
                "{} does not cover every named model",
                test.name
            );
        }
    }
}
