//! Differential execution of one elaborated program across memory models.
//!
//! The paper's §3 compares how analysis tools (and §2 how candidate
//! semantics) judge the same test programs — a matrix of *(program, model) →
//! outcome*. [`DifferentialRunner`] reproduces that shape natively: it takes
//! **one** [`Elaborated`] artifact plus a list of named [`ModelConfig`]s and
//! executes the shared Core program under each, with no re-parse or
//! re-elaboration, returning an [`OutcomeMatrix`] that can be queried for
//! agreement and per-model verdicts.
//!
//! Every row is the outcome a pristine engine gives against the same
//! `Arc`-shared Core program, but a row need not execute:
//! [`Elaborated::execute_bounded`] gives a configuration the outcomes of an
//! earlier execution when the two configurations agree on every field that
//! execution consulted, since those are the outcomes it would compute. [`DifferentialRunner::run`] takes the rows in runner
//! order on the calling thread; running many programs at once is the job
//! queue's work (`cerberus-queue`), not the runner's. With the symbolic
//! engine registered in [`ModelConfig::all_named`], the default matrix
//! mixes two genuinely different [`cerberus_memory::MemoryModel`]
//! implementations, not just configurations of one.
//!
//! Rows are also *fault-isolated*: each row runs behind
//! [`std::panic::catch_unwind`], so a panicking memory-model implementation
//! (an engine defect, not a program verdict) becomes an
//! [`ExecResult::EngineFault`] row carrying the captured payload while every
//! other row completes normally.

use cerberus_ast::panic_payload;
use cerberus_exec::driver::{ExecMode, ExecResult, ProgramOutcome};
use cerberus_memory::config::ModelConfig;
use cerberus_memory::limits::ResourceLimits;
use std::collections::HashMap;

use crate::pipeline::{Config, Elaborated, RunOutcome};

/// Runs one elaborated program under a list of memory models.
///
/// ```
/// use cerberus::pipeline::Session;
/// use cerberus::DifferentialRunner;
///
/// let program = Session::default()
///     .elaborate("int x = 1, y = 2;\nint main(void) { int *p = &x + 1; int *q = &y; return p == q; }")
///     .unwrap();
/// let matrix = DifferentialRunner::all_named().run(&program);
/// // Packed placement makes one-past-x alias &y; `symbolic` places every
/// // allocation in its own address region, so the models disagree.
/// assert_eq!(matrix.outcome_for("concrete").unwrap().exit_value(), Some(1));
/// assert_eq!(matrix.outcome_for("symbolic").unwrap().exit_value(), Some(0));
/// assert!(!matrix.all_agree());
/// ```
#[derive(Debug, Clone)]
pub struct DifferentialRunner {
    models: Vec<ModelConfig>,
    limits: ResourceLimits,
}

impl DifferentialRunner {
    /// A runner over the given models, with the resource budget of
    /// [`Config::default`]. Every row runs at the default bound, one
    /// execution: the leftmost sibling at every choice.
    pub fn new(models: Vec<ModelConfig>) -> Self {
        DifferentialRunner {
            models,
            limits: Config::default().limits,
        }
    }

    /// A runner over every named model configuration
    /// ([`ModelConfig::all_named`]).
    pub fn all_named() -> Self {
        DifferentialRunner::new(ModelConfig::all_named())
    }

    /// Use the given full per-execution resource budget.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Execute one row with panic containment: an unwinding engine becomes an
    /// [`ExecResult::EngineFault`] row instead of tearing down the run. The
    /// interpreter borrows no external state across the unwind boundary
    /// (program and model are shared immutably, all mutable state is created
    /// inside the closure), so `AssertUnwindSafe` is sound here.
    fn run_row(&self, program: &Elaborated, model: &ModelConfig) -> ModelRun {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            program.execute_bounded(model, ExecMode::default(), &self.limits)
        }));
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(panic) => RunOutcome {
                outcomes: vec![ProgramOutcome {
                    result: ExecResult::EngineFault {
                        model: model.name.to_owned(),
                        payload: panic_payload(&*panic),
                    },
                    stdout: String::new(),
                }],
            },
        };
        ModelRun {
            model: model.name,
            outcome,
        }
    }

    /// Execute `program` under every model on the calling thread, in runner
    /// order. The elaborated artifact is shared: each row reuses the same
    /// `Arc`'d Core program.
    pub fn run(&self, program: &Elaborated) -> OutcomeMatrix {
        OutcomeMatrix::new(
            self.models
                .iter()
                .map(|model| self.run_row(program, model))
                .collect(),
        )
    }
}

/// One row of the matrix: a model name and what the program did under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRun {
    /// The model name (from [`ModelConfig::name`]).
    pub model: &'static str,
    /// The observed outcome(s).
    pub outcome: RunOutcome,
}

impl ModelRun {
    /// Whether this row is a contained engine panic rather than a verdict
    /// about the program.
    pub fn is_fault(&self) -> bool {
        self.outcome.is_fault()
    }
}

/// One agreement class of a matrix: the models that produced one distinct
/// outcome set, in first-seen order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreementClass<'a> {
    /// The models in this class, in row order.
    pub models: Vec<&'static str>,
    /// The outcome set they share.
    pub outcome: &'a RunOutcome,
    /// Whether this class is a contained engine fault rather than a program
    /// verdict. Fault outcomes embed the faulting model's name and payload,
    /// so each faulted model forms its own singleton class.
    pub faulted: bool,
}

/// The §3-style comparison matrix: per-model outcomes of one program.
///
/// Rows are immutable after construction (exposed via
/// [`OutcomeMatrix::rows`]); that is what keeps the internal name index and
/// the rows permanently in sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeMatrix {
    /// One row per model, in runner order.
    rows: Vec<ModelRun>,
    /// Model name → row position, built once at construction so
    /// [`OutcomeMatrix::outcome_for`] is a hash lookup rather than a linear
    /// scan per query. If a runner lists the same model name twice, the
    /// *first* row wins (matching the old scan's behaviour).
    index: HashMap<&'static str, usize>,
}

impl OutcomeMatrix {
    /// A matrix over the given rows, indexing them by model name (first
    /// occurrence wins for duplicated names).
    pub fn new(rows: Vec<ModelRun>) -> Self {
        let mut index = HashMap::with_capacity(rows.len());
        for (position, row) in rows.iter().enumerate() {
            index.entry(row.model).or_insert(position);
        }
        OutcomeMatrix { rows, index }
    }

    /// The rows, one per model, in runner order.
    pub fn rows(&self) -> &[ModelRun] {
        &self.rows
    }

    /// The outcome recorded for `model`, if it was part of the run. For a
    /// model listed more than once, the first row's outcome is returned.
    pub fn outcome_for(&self, model: &str) -> Option<&RunOutcome> {
        self.index
            .get(model)
            .map(|&position| &self.rows[position].outcome)
    }

    /// Whether every model produced the same outcome set.
    pub fn all_agree(&self) -> bool {
        self.rows.windows(2).all(|w| w[0].outcome == w[1].outcome)
    }

    /// Group the models into [`AgreementClass`]es: each class is the list of
    /// model names that produced one distinct outcome set, in first-seen
    /// order. A defined-everywhere deterministic program yields one class;
    /// the DR260 example yields one class per semantic camp; a faulted model
    /// yields a singleton class with [`AgreementClass::faulted`] set.
    pub fn agreement_classes(&self) -> Vec<AgreementClass<'_>> {
        let mut classes: Vec<AgreementClass<'_>> = Vec::new();
        for row in &self.rows {
            match classes
                .iter_mut()
                .find(|class| *class.outcome == row.outcome)
            {
                Some(class) => class.models.push(row.model),
                None => classes.push(AgreementClass {
                    models: vec![row.model],
                    outcome: &row.outcome,
                    faulted: row.is_fault(),
                }),
            }
        }
        classes
    }

    /// The models whose outcome differs from the first row's (the
    /// "disagreements with the baseline model").
    pub fn disagreeing_models(&self) -> Vec<&'static str> {
        match self.rows.split_first() {
            Some((base, rest)) => rest
                .iter()
                .filter(|r| r.outcome != base.outcome)
                .map(|r| r.model)
                .collect(),
            None => Vec::new(),
        }
    }

    /// The models whose row is a contained engine fault, in row order.
    pub fn faulted_models(&self) -> Vec<&'static str> {
        self.rows
            .iter()
            .filter(|r| r.is_fault())
            .map(|r| r.model)
            .collect()
    }

    /// Whether any row is a contained engine fault.
    pub fn any_fault(&self) -> bool {
        self.rows.iter().any(ModelRun::is_fault)
    }
}

impl std::fmt::Display for OutcomeMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for row in &self.rows {
            let rendered: Vec<String> = row
                .outcome
                .outcomes
                .iter()
                .map(|o| o.result.to_string())
                .collect();
            writeln!(f, "{:<16} {}", row.model, rendered.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Session;
    use cerberus_ast::ub::UbKind;

    const DR260: &str = "#include <stdio.h>\n#include <string.h>\nint x = 1, y = 2;\nint main() {\n  int *p = &x + 1;\n  int *q = &y;\n  if (memcmp(&p, &q, sizeof(p)) == 0) {\n    *p = 11;\n    printf(\"x=%d y=%d *p=%d *q=%d\\n\", x, y, *p, *q);\n  }\n  return 0;\n}\n";

    #[test]
    fn one_artifact_many_models_no_reelaboration() {
        let program = Session::default().elaborate(DR260).unwrap();
        let shared_before = program.share();
        let matrix = DifferentialRunner::new(vec![
            ModelConfig::concrete(),
            ModelConfig::de_facto(),
            ModelConfig::gcc_like(),
        ])
        .run(&program);
        // The artifact was shared, not rebuilt: the Arc is untouched.
        assert!(std::sync::Arc::ptr_eq(&shared_before, &program.share()));
        assert_eq!(matrix.rows().len(), 3);
        assert!(!matrix.all_agree());
        assert_eq!(
            matrix.outcome_for("concrete").and_then(RunOutcome::stdout),
            Some("x=1 y=11 *p=11 *q=11\n")
        );
        assert_eq!(
            matrix.outcome_for("de-facto").unwrap().outcomes[0]
                .result
                .ub_kind(),
            Some(UbKind::OutOfBoundsAccess)
        );
        assert_eq!(
            matrix.outcome_for("gcc-like").and_then(RunOutcome::stdout),
            Some("x=1 y=2 *p=11 *q=2\n")
        );
        assert_eq!(matrix.agreement_classes().len(), 3);
        assert_eq!(matrix.disagreeing_models(), vec!["de-facto", "gcc-like"]);
    }

    #[test]
    fn defined_programs_agree_everywhere() {
        let program = Session::default()
            .elaborate("int main(void) { return 7; }")
            .unwrap();
        let matrix = DifferentialRunner::all_named().run(&program);
        assert_eq!(matrix.rows().len(), ModelConfig::all_named().len());
        assert!(matrix.all_agree());
        assert_eq!(matrix.agreement_classes().len(), 1);
        assert!(matrix.disagreeing_models().is_empty());
    }

    #[test]
    fn duplicate_model_names_resolve_to_the_first_row() {
        // Two rows named "de-facto" with different step limits: the first one
        // completes, the second times out. `outcome_for` must return the
        // first row (the documented duplicate contract), and both rows stay
        // visible in `rows`.
        let program = Session::default()
            .elaborate("int main(void) { for (int i = 0; i < 100; i++) ; return 5; }")
            .unwrap();
        let completing = DifferentialRunner::new(vec![ModelConfig::de_facto()]);
        let starving = completing
            .clone()
            .with_limits(ResourceLimits::with_steps(1));
        let mut rows = completing.run(&program).rows().to_vec();
        rows.extend(starving.run(&program).rows().to_vec());
        let matrix = OutcomeMatrix::new(rows);
        assert_eq!(matrix.rows().len(), 2);
        assert_eq!(
            matrix.outcome_for("de-facto").unwrap().exit_value(),
            Some(5)
        );
        assert_ne!(matrix.rows()[1].outcome.exit_value(), Some(5));
    }

    #[test]
    fn a_panicking_model_is_contained_to_its_row() {
        use cerberus_exec::driver::ExecResult;
        use cerberus_memory::fault::FAULT_MESSAGE;

        let program = Session::default().elaborate(DR260).unwrap();
        let with_fault = DifferentialRunner::new(vec![
            ModelConfig::concrete(),
            ModelConfig::panicking(),
            ModelConfig::de_facto(),
        ])
        .run(&program);
        // Exactly the injected model's row faulted...
        assert!(with_fault.any_fault());
        assert_eq!(with_fault.faulted_models(), vec!["panicking"]);
        let row = with_fault.outcome_for("panicking").unwrap();
        assert!(row.is_fault());
        match &row.outcomes[0].result {
            ExecResult::EngineFault { model, payload } => {
                assert_eq!(model, "panicking");
                assert_eq!(payload, FAULT_MESSAGE);
            }
            other => panic!("expected an engine fault, got {other}"),
        }
        // ...every other row is identical to a run without the faulty model
        // (on an artifact of its own, so no row is answered from the first
        // run's executions)...
        let without =
            DifferentialRunner::new(vec![ModelConfig::concrete(), ModelConfig::de_facto()])
                .run(&Session::default().elaborate(DR260).unwrap());
        assert_eq!(
            with_fault.outcome_for("concrete"),
            without.outcome_for("concrete")
        );
        assert_eq!(
            with_fault.outcome_for("de-facto"),
            without.outcome_for("de-facto")
        );
        // ...and the fault forms its own agreement class, flagged as such.
        let classes = with_fault.agreement_classes();
        let fault_classes: Vec<_> = classes.iter().filter(|c| c.faulted).collect();
        assert_eq!(fault_classes.len(), 1);
        assert_eq!(fault_classes[0].models, vec!["panicking"]);
    }

    #[test]
    fn the_symbolic_engine_joins_the_default_matrix() {
        let program = Session::default().elaborate(DR260).unwrap();
        let matrix = DifferentialRunner::all_named().run(&program);
        // The DR260 example splits concrete, de facto, GCC-like *and*
        // symbolic: under region placement the memcmp guard fails (the
        // one-past pointer is byte-distinguishable from &y), so nothing is
        // printed.
        assert_eq!(
            matrix.outcome_for("symbolic").and_then(RunOutcome::stdout),
            Some("")
        );
        assert_ne!(
            matrix.outcome_for("symbolic"),
            matrix.outcome_for("concrete")
        );
        assert_ne!(
            matrix.outcome_for("symbolic"),
            matrix.outcome_for("de-facto")
        );
    }
}
