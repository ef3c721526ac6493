//! Static undefined-behaviour analysis over elaborated Core programs.
//!
//! The dynamic pipeline decides de-facto definedness by *running* a program
//! under many memory object models (§5 of the paper). This crate is the static
//! companion pass: it inspects the elaborated Core once, without executing it,
//! and reports which undefined behaviours *must* or *may* occur. Two passes:
//!
//! 1. [`validate`] — a Core well-formedness lint over every `PExpr`/`Expr`
//!    node: binding discipline, pattern arity, call-target resolution and
//!    `MemAction` operand typing. The elaborator produces well-formed Core by
//!    construction, so any violation indicates a broken producer; the pass
//!    collects *all* violations per translation unit rather than stopping at
//!    the first, mirroring the desugaring stage's multi-diagnostic reporting.
//!
//! 2. [`interp`] — a path-sensitive abstract interpreter tracking pointer
//!    provenance (an allocation-id set lattice with byte offsets), allocation
//!    lifetime (live/dead/maybe-dead) and byte-initialisation, emitting
//!    [`StaticFinding`]s that reuse the dynamic oracle's [`UbKind`] catalogue
//!    and ISO clause citations. In the default [`AnalysisMode::PathSensitive`]
//!    mode each explored path carries a constraint set over symbolic
//!    allocation bases, integer offsets and provenance predicates, decided by
//!    the [`solver`] module; infeasible paths are pruned and every finding
//!    carries a [`Witness`]. [`AnalysisMode::FlowJoin`] keeps the older
//!    join-everything behaviour as a differential baseline.
//!
//! Two corpus contracts are checked at the workspace root:
//!
//! * **soundness** (`tests/analysis_soundness.rs`): for every golden fixture
//!   on which any named memory model dynamically reports UB of kind K, this
//!   analyzer reports a Must or May finding of kind K, or the pair is on the
//!   reviewed incompleteness allowlist;
//! * **precision** (`tests/analysis_precision.rs`): every `Must` finding on a
//!   golden fixture is realised dynamically by at least one named model, or
//!   the pair is on the reviewed over-claim allowlist.

use std::collections::BTreeSet;
use std::fmt;

use cerberus_ast::diag::ConstraintViolation;
use cerberus_ast::env::ImplEnv;
use cerberus_ast::loc::Span;
use cerberus_ast::ub::UbKind;
use cerberus_core::program::CoreProgram;

pub mod interp;
pub mod solver;
pub mod validate;

/// How certain the analyzer is that a finding fires.
///
/// `Must`: on every execution path that reaches the flagged operation, the
/// operation violates the cited rule (under the memory models that enforce
/// it). `May`: the abstract state cannot exclude a violating execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingSeverity {
    /// The violation happens on every path reaching the operation.
    Must,
    /// The violation happens on some abstract path; the analyzer cannot prove
    /// it away.
    May,
}

impl fmt::Display for FindingSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingSeverity::Must => "must",
            FindingSeverity::May => "may",
        })
    }
}

/// Evidence attached to a finding explaining *when* the UB fires, in terms of
/// the symbolic variables the interpreter minted for unknown run-time values
/// (allocation base addresses, unknown loads, pointer-comparison outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// A satisfying assignment of the path constraints under which the
    /// finding fired: one concrete layout/value choice realising the UB.
    /// Empty when the finding is unconditional (no constraints on the path).
    /// Attached to `Must` findings.
    Assignment(Vec<(String, i128)>),
    /// The residual constraint set (rendered atoms) under which the UB would
    /// fire; the solver could not produce a model or definiteness was lost at
    /// a join. Attached to `May` findings. Empty when the analyzer tracked no
    /// constraints for the path (e.g. flow-join mode).
    Residual(Vec<String>),
}

impl Witness {
    /// Whether the witness carries no information (unconditional finding or
    /// constraint-free residual).
    pub fn is_trivial(&self) -> bool {
        match self {
            Witness::Assignment(bindings) => bindings.is_empty(),
            Witness::Residual(atoms) => atoms.is_empty(),
        }
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::Assignment(bindings) if bindings.is_empty() => f.write_str("unconditional"),
            Witness::Assignment(bindings) => {
                let parts: Vec<String> =
                    bindings.iter().map(|(n, v)| format!("{n} = {v}")).collect();
                write!(f, "{}", parts.join(", "))
            }
            Witness::Residual(atoms) if atoms.is_empty() => f.write_str("-"),
            Witness::Residual(atoms) => write!(f, "if {}", atoms.join(" && ")),
        }
    }
}

/// One static diagnostic: an undefined behaviour the abstract interpretation
/// could not rule out, with the ISO C11 clause that makes it undefined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticFinding {
    /// The undefined behaviour, from the shared dynamic-oracle catalogue.
    pub ub: UbKind,
    /// Must (on every path) or May (on some abstract path).
    pub severity: FindingSeverity,
    /// Source span. Core carries no source locations, so this is the
    /// synthetic span; the procedure name in [`StaticFinding::proc`] anchors
    /// the finding instead.
    pub span: Span,
    /// The ISO clause (or committee document) violated.
    pub iso_clause: &'static str,
    /// The Core procedure the finding was detected in.
    pub proc: String,
    /// Human-readable explanation of what the abstract state proved.
    pub detail: String,
    /// When the UB fires: a satisfying assignment for `Must`, the residual
    /// path constraint for `May`.
    pub witness: Witness,
}

impl fmt::Display for StaticFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} in {} ({}): {}",
            self.severity,
            self.ub.core_name(),
            self.proc,
            self.iso_clause,
            self.detail
        )?;
        if !self.witness.is_trivial() {
            write!(f, " [{}]", self.witness)?;
        }
        Ok(())
    }
}

/// Which branch-handling discipline the abstract interpreter uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Bounded path sensitivity: branches on undecided conditions carry
    /// constraint atoms, the solver prunes infeasible arms, and findings gain
    /// witnesses. The default.
    #[default]
    PathSensitive,
    /// PR 7's join-everything flow sensitivity, kept as a differential
    /// baseline: no symbolic variables, no pruning, trivial witnesses. The
    /// refinement property (`tests/properties.rs`) checks path-sensitive
    /// results never report a UB kind this mode proves absent.
    FlowJoin,
}

/// Resource bounds for the abstract interpretation, keeping the pass total on
/// every input (including generated ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Maximum number of abstract evaluation steps across the whole program.
    pub step_budget: usize,
    /// Maximum call-inlining depth before a call is widened to an unknown
    /// result.
    pub call_depth: usize,
    /// Number of abstract iterations of a `save`/`run` loop before widening.
    pub loop_bound: usize,
    /// Branch-handling discipline (path-sensitive by default).
    pub mode: AnalysisMode,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            step_budget: 200_000,
            call_depth: 8,
            loop_bound: 3,
            mode: AnalysisMode::default(),
        }
    }
}

impl AnalysisConfig {
    /// A tight budget for property tests: still enough for every fixture, but
    /// quick to exhaust on adversarial generated programs.
    pub fn tight() -> Self {
        AnalysisConfig {
            step_budget: 20_000,
            call_depth: 4,
            loop_bound: 2,
            mode: AnalysisMode::default(),
        }
    }

    /// The same bounds with the flow-join baseline mode.
    pub fn flow_baseline(self) -> Self {
        AnalysisConfig {
            mode: AnalysisMode::FlowJoin,
            ..self
        }
    }
}

/// The combined result of the validator and the abstract interpreter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisReport {
    /// Core well-formedness violations (all of them, not just the first).
    pub violations: Vec<ConstraintViolation>,
    /// Abstract-interpretation findings, sorted by (procedure, UB kind).
    pub findings: Vec<StaticFinding>,
    /// Number of Core procedures analyzed.
    pub procs_analyzed: usize,
    /// Abstract steps consumed.
    pub steps_used: usize,
    /// Whether the step budget ran out (the findings are then a prefix of the
    /// full analysis, still sound for everything visited).
    pub budget_exhausted: bool,
    /// Set when the interpreter pass died on an internal error; the report
    /// then carries validator results only. The analyzer is expected to never
    /// set this (see the totality property in `tests/properties.rs`).
    pub aborted: Option<String>,
    /// Arms of undecided branches explored in path-sensitive mode. The
    /// flow-join baseline counts none, so it always reports 0.
    pub paths_explored: usize,
    /// Branch arms whose path constraints the solver proved unsatisfiable.
    pub paths_pruned: usize,
    /// Feasibility/witness queries issued to the constraint solver.
    pub solver_queries: u64,
    /// Of those, how many were answered from the solver's memo table.
    pub solver_memo_hits: u64,
}

impl AnalysisReport {
    /// Whether neither pass reported anything.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.findings.is_empty() && self.aborted.is_none()
    }

    /// The strongest severity at which `ub` is reported, if at all.
    pub fn reports(&self, ub: UbKind) -> Option<FindingSeverity> {
        self.findings
            .iter()
            .filter(|f| f.ub == ub)
            .map(|f| f.severity)
            .min()
    }

    /// The set of UB kinds reported at any severity.
    pub fn ub_kinds(&self) -> BTreeSet<UbKind> {
        self.findings.iter().map(|f| f.ub).collect()
    }
}

/// Run both passes with the default budget.
pub fn analyze(program: &CoreProgram, env: &ImplEnv) -> AnalysisReport {
    analyze_with(program, env, AnalysisConfig::default())
}

/// Run both passes under an explicit budget, with a private solver (no memo
/// sharing across calls). Total: the interpreter is step-bounded and an
/// internal panic is downgraded to [`AnalysisReport::aborted`] rather than
/// unwinding into the caller.
pub fn analyze_with(
    program: &CoreProgram,
    env: &ImplEnv,
    config: AnalysisConfig,
) -> AnalysisReport {
    let solver = solver::Solver::default();
    analyze_with_solver(program, env, config, &solver)
}

/// Run both passes against a caller-owned [`solver::Solver`], so its memo
/// table persists across translation units — subgoals shared across fixtures
/// are decided once (the `Session` in `cerberus-lang` holds one solver for
/// its whole lifetime and surfaces the hit rate in its cache stats).
pub fn analyze_with_solver(
    program: &CoreProgram,
    env: &ImplEnv,
    config: AnalysisConfig,
    solver: &solver::Solver,
) -> AnalysisReport {
    let violations = validate::validate(program);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        interp::run(program, env, config, solver)
    }));
    match outcome {
        Ok(mut report) => {
            report.violations = violations;
            report
        }
        Err(payload) => AnalysisReport {
            violations,
            aborted: Some(cerberus_ast::panic_payload(&*payload)),
            ..AnalysisReport::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_must_before_may() {
        assert!(FindingSeverity::Must < FindingSeverity::May);
    }

    #[test]
    fn empty_program_is_clean() {
        let program = CoreProgram::default();
        let report = analyze(&program, &ImplEnv::default());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.procs_analyzed, 0);
    }

    #[test]
    fn finding_display_cites_the_clause() {
        let finding = StaticFinding {
            ub: UbKind::DivisionByZero,
            severity: FindingSeverity::Must,
            span: Span::synthetic(),
            iso_clause: UbKind::DivisionByZero.iso_reference(),
            proc: "main".into(),
            detail: "divisor is the constant zero".into(),
            witness: Witness::Assignment(vec![]),
        };
        let text = finding.to_string();
        assert!(text.contains("6.5.5p5"), "{text}");
        assert!(text.contains("must"), "{text}");
    }

    #[test]
    fn witness_display_renders_assignments_and_residuals() {
        let w = Witness::Assignment(vec![("base(x)".into(), 16), ("load(n)".into(), 0)]);
        assert_eq!(w.to_string(), "base(x) = 16, load(n) = 0");
        assert!(!w.is_trivial());
        let w = Witness::Assignment(vec![]);
        assert_eq!(w.to_string(), "unconditional");
        assert!(w.is_trivial());
        let w = Witness::Residual(vec!["load(n) != 0".into(), "live(a)".into()]);
        assert_eq!(w.to_string(), "if load(n) != 0 && live(a)");
        let w = Witness::Residual(vec![]);
        assert!(w.is_trivial());
    }
}
