//! The staged pipeline: parse → desugar/type-check → elaborate → execute.
//!
//! The stages are exposed as a **session API** so that front-end work is done
//! once and its artifacts reused: [`Session::parse`] produces a [`Parsed`]
//! translation unit, [`Parsed::desugar`] a type-annotated [`Desugared`]
//! program, and [`Desugared::elaborate`] an [`Elaborated`] Core program — a
//! cheaply clonable, shareable (`Arc`) value that can be executed any number
//! of times under different memory models and exploration bounds without
//! re-running the front end. The session additionally **memoises**
//! elaboration: a source seen before resolves to its cached artifact by hash
//! lookup ([`Session::elaborate`] vs [`Session::elaborate_uncached`]).
//! Front-end failures are reported as a typed [`PipelineError`] carrying the
//! structured diagnostic (kind, message, ISO clause, source span) rather than
//! a flattened string.
//!
//! ```
//! use cerberus::pipeline::Session;
//! use cerberus::memory::config::ModelConfig;
//!
//! let program = Session::default()
//!     .elaborate("int main(void) { int x = 20; return x + 22; }")
//!     .unwrap();
//! // One elaboration, many executions:
//! for model in [ModelConfig::concrete(), ModelConfig::de_facto()] {
//!     assert_eq!(program.run_under(&model).exit_value(), Some(42));
//! }
//! ```
//!
//! For running one artifact across a whole *set* of models and comparing the
//! outcomes, see [`crate::differential::DifferentialRunner`].

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cerberus_ail::ail::AilProgram;
use cerberus_ail::desugar::desugar_translation_unit_all;
use cerberus_analysis::solver::Solver;
use cerberus_analysis::{AnalysisConfig, AnalysisReport};
use cerberus_ast::diag::{ConstraintViolation, Diagnostic};
use cerberus_ast::env::ImplEnv;
use cerberus_ast::loc::Span;
use cerberus_ast::memo::Memo;
use cerberus_core::program::CoreProgram;
use cerberus_elab::elaborate_program;
use cerberus_exec::driver::{Driver, ExecMode, ExecResult, ProgramOutcome};
use cerberus_memory::config::{FieldSet, ModelConfig};
use cerberus_memory::limits::{ResourceKind, ResourceLimits, TimeoutKind};
use cerberus_memory::model::ConcreteEngine;
use cerberus_parser::cabs::TranslationUnit;
use cerberus_parser::parse_translation_unit;
use cerberus_parser::parser::ParseError;

pub use cerberus_ast::memo::CacheStats;

/// Pipeline configuration: the memory object model, the
/// implementation-defined environment, the exploration bound, and the
/// per-execution resource budget.
#[derive(Debug, Clone)]
pub struct Config {
    /// The memory object model configuration (default: the candidate de facto
    /// model of §5.9).
    pub model: ModelConfig,
    /// The implementation-defined environment (default: LP64).
    pub impl_env: ImplEnv,
    /// How many executions the search over evaluation orders may run
    /// (default: one, the leftmost sibling at every choice).
    pub mode: ExecMode,
    /// The per-execution resource budget: steps, optional wall-clock
    /// watchdog, optional allocation bounds, call depth.
    pub limits: ResourceLimits,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            model: ModelConfig::de_facto(),
            impl_env: ImplEnv::lp64(),
            mode: ExecMode::default(),
            limits: ResourceLimits::default(),
        }
    }
}

impl Config {
    /// A configuration using the given memory model and the defaults for
    /// everything else.
    pub fn with_model(model: ModelConfig) -> Self {
        Config {
            model,
            ..Config::default()
        }
    }

    /// Search the evaluation orders up to the given execution bound.
    pub fn exhaustive(mut self, max_executions: usize) -> Self {
        self.mode = ExecMode { max_executions };
        self
    }

    /// Replace the per-execution resource budget.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// What kind of front-end failure a [`PipelineError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineErrorKind {
    /// A syntax (or lexical/preprocessing) error.
    Syntax,
    /// A constraint violation diagnosed by the desugaring/type checker.
    Constraint,
}

/// A typed front-end error carrying the structured diagnostics, not just a
/// rendered string: the kind, the messages, the source spans, and (for
/// constraint violations) the ISO C11 clauses that were violated.
///
/// The constraint variant carries **every** violation the desugaring pass
/// could independently diagnose (one per broken external declaration, in
/// source order) — the first is the *primary* one reported by the scalar
/// accessors ([`PipelineError::span`], [`PipelineError::message`],
/// [`PipelineError::diagnostic`]); [`PipelineError::diagnostics`] renders
/// them all.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A syntax error from the preprocessor, lexer or parser.
    Syntax(ParseError),
    /// The constraint violations from the desugaring/type-checking pass
    /// (non-empty; the first is the primary one).
    Constraint(Vec<ConstraintViolation>),
}

impl PipelineError {
    /// Which stage rejected the program.
    pub fn kind(&self) -> PipelineErrorKind {
        match self {
            PipelineError::Syntax(_) => PipelineErrorKind::Syntax,
            PipelineError::Constraint(_) => PipelineErrorKind::Constraint,
        }
    }

    /// For a constraint error, the primary (first-in-source) violation.
    fn primary(violations: &[ConstraintViolation]) -> &ConstraintViolation {
        violations
            .first()
            .expect("a constraint PipelineError carries at least one violation")
    }

    /// The source span the (primary) error points at.
    pub fn span(&self) -> Span {
        match self {
            PipelineError::Syntax(e) => e.span,
            PipelineError::Constraint(es) => Self::primary(es).diagnostic.span,
        }
    }

    /// The 1-based source line of the error, when the span is not synthetic.
    pub fn line(&self) -> Option<u32> {
        let span = self.span();
        (span != Span::synthetic()).then_some(span.start.line)
    }

    /// The human-readable message of the primary error (without location or
    /// clause decoration).
    pub fn message(&self) -> &str {
        match self {
            PipelineError::Syntax(e) => &e.message,
            PipelineError::Constraint(es) => Self::primary(es).message(),
        }
    }

    /// How many distinct problems this error reports (1 for syntax errors,
    /// the violation count for constraint errors).
    pub fn diagnostic_count(&self) -> usize {
        match self {
            PipelineError::Syntax(_) => 1,
            PipelineError::Constraint(es) => es.len(),
        }
    }

    /// The primary error as a [`Diagnostic`]; syntax errors are given the
    /// standard's general syntax clause.
    pub fn diagnostic(&self) -> Diagnostic {
        self.diagnostics()
            .into_iter()
            .next()
            .expect("diagnostics() is non-empty")
    }

    /// Every diagnosed problem as a [`Diagnostic`], in source order. Always
    /// non-empty; a syntax error yields exactly one entry.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        match self {
            PipelineError::Syntax(e) => {
                vec![Diagnostic::error(
                    e.message.clone(),
                    "6.7-6.9 (syntax)",
                    e.span,
                )]
            }
            PipelineError::Constraint(es) => es.iter().map(|e| e.diagnostic.clone()).collect(),
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Syntax(e) => write!(f, "{e}"),
            PipelineError::Constraint(es) => {
                write!(f, "{}", Self::primary(es))?;
                if es.len() > 1 {
                    let more = es.len() - 1;
                    let plural = if more == 1 { "" } else { "s" };
                    write!(f, " (and {more} more constraint violation{plural})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Syntax(e)
    }
}

impl From<ConstraintViolation> for PipelineError {
    fn from(e: ConstraintViolation) -> Self {
        PipelineError::Constraint(vec![e])
    }
}

impl From<Vec<ConstraintViolation>> for PipelineError {
    fn from(es: Vec<ConstraintViolation>) -> Self {
        debug_assert!(!es.is_empty(), "an empty violation list is not an error");
        PipelineError::Constraint(es)
    }
}

/// The result of running a program: every distinct observable outcome the
/// search over evaluation orders reached, sorted (exactly one at the default
/// bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Distinct outcomes.
    pub outcomes: Vec<ProgramOutcome>,
}

impl RunOutcome {
    /// The single outcome, when only one was produced or all agree.
    pub fn unique(&self) -> Option<&ProgramOutcome> {
        match self.outcomes.as_slice() {
            [single] => Some(single),
            _ => None,
        }
    }

    /// The exit value of `main` when the run produced exactly one outcome
    /// that terminated normally.
    pub fn exit_value(&self) -> Option<i128> {
        self.unique()
            .and_then(cerberus_exec::driver::main_return_value)
    }

    /// Captured standard output of the unique outcome.
    pub fn stdout(&self) -> Option<&str> {
        self.unique().map(|o| o.stdout.as_str())
    }

    /// Whether *any* allowed execution reached undefined behaviour (the
    /// daemonic reading: the program is then erroneous, §2.1).
    pub fn any_undef(&self) -> bool {
        self.outcomes.iter().any(ProgramOutcome::is_undef)
    }

    /// Whether any outcome is a contained engine panic
    /// ([`cerberus_exec::driver::ExecResult::EngineFault`]) — a defect in the
    /// memory model, not a verdict about the program.
    pub fn is_fault(&self) -> bool {
        self.outcomes.iter().any(|o| o.result.is_fault())
    }

    /// Whether any outcome ran out of a time or resource budget rather than
    /// reaching a verdict about the program.
    pub fn any_budget_exhaustion(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| o.result.is_budget_exhaustion())
    }
}

// ----- the staged session ----------------------------------------------------

/// The counters of a [`Session`]'s three memos, each in the one
/// [`CacheStats`] shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// The (source → [`Elaborated`]) memo of [`Session::elaborate`]. A miss
    /// ran the front end, including lookups whose elaboration then failed,
    /// since failures are not memoised.
    pub elaboration: CacheStats,
    /// The (source → report) memo of [`Session::analyze`].
    pub analysis: CacheStats,
    /// The constraint solver's memo table, shared by every analysis.
    pub solver: CacheStats,
}

/// The most elaborated artifacts a session memoises. An artifact holds
/// about 130 KB of heap for a `GenConfig::small()` program and 290 KB for a
/// `large()` one, so this memo is most of a long-running session's memory,
/// while most of its hits come within milliseconds of the miss (the
/// service's acknowledgement, worker and analysis look a fresh source up in
/// turn).
const ARTIFACT_CAPACITY: usize = 128;

/// The most analysis reports a session memoises.
const ANALYSIS_CAPACITY: usize = 512;

/// A pipeline session: fixes the configuration, exposes the front end as
/// explicit stages producing reusable artifacts, and memoises elaboration.
///
/// The session keeps an internal source → [`Elaborated`] cache, so repeated
/// elaboration of identical sources (same seed re-run, a benchmark loop, the
/// same litmus test under many models) is a hash lookup instead of a
/// parse/desugar/elaborate pass. The cache is shared by clones of the session
/// and is thread-safe, which is what lets `cerberus-gen` batch seeds across
/// threads over one session.
///
/// ```
/// use cerberus::pipeline::Session;
///
/// let session = Session::default();
/// let first = session.elaborate("int main(void) { return 42; }").unwrap();
/// let second = session.elaborate("int main(void) { return 42; }").unwrap();
/// // The second call hit the cache: both artifacts share one Core program.
/// assert!(std::sync::Arc::ptr_eq(&first.share(), &second.share()));
/// assert_eq!(session.cache_stats().elaboration.entries, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    config: Config,
    artifacts: Arc<Memo<String, Elaborated>>,
    analyses: Arc<Memo<String, Arc<AnalysisReport>>>,
    solver: Arc<Solver>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(Config::default())
    }
}

impl Session {
    /// A session with the given configuration.
    pub fn new(config: Config) -> Self {
        Session {
            config,
            artifacts: Arc::new(Memo::new(ARTIFACT_CAPACITY)),
            analyses: Arc::new(Memo::new(ANALYSIS_CAPACITY)),
            solver: Arc::default(),
        }
    }

    /// A session whose default execution model is `model`.
    pub fn with_model(model: ModelConfig) -> Self {
        Session::new(Config::with_model(model))
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Stage 1: preprocess, lex and parse into the Cabs AST.
    pub fn parse(&self, source: &str) -> Result<Parsed, PipelineError> {
        let tu = parse_translation_unit(source)?;
        Ok(Parsed {
            tu,
            impl_env: self.config.impl_env.clone(),
        })
    }

    /// Stages 1–2: parse, then desugar and type-check into Ail.
    pub fn desugar(&self, source: &str) -> Result<Desugared, PipelineError> {
        self.parse(source)?.desugar()
    }

    /// Stages 1–3: parse, desugar/type-check and elaborate into Core. The
    /// returned [`Elaborated`] artifact can be executed repeatedly without
    /// re-running any front-end stage.
    ///
    /// Results are memoised per source: elaborating the same source again
    /// returns a clone of the cached artifact (cheap — the Core program is
    /// behind an `Arc`). Front-end failures are not cached. The memo is a
    /// bounded [`Memo`]: a stream of distinct sources — e.g. a long fuzz run
    /// over fresh seeds — rolls its oldest generation out instead of
    /// retaining every artifact for the run's lifetime. Artifacts held by
    /// callers stay alive regardless.
    pub fn elaborate(&self, source: &str) -> Result<Elaborated, PipelineError> {
        if let Some(hit) = self.artifacts.get(source) {
            return Ok(hit);
        }
        let program = self.elaborate_uncached(source)?;
        self.artifacts.insert(source.to_owned(), program.clone());
        Ok(program)
    }

    /// Stages 1–3 bypassing (and not populating) the artifact cache — the
    /// pre-memoisation behaviour, kept as the benchmark baseline.
    pub fn elaborate_uncached(&self, source: &str) -> Result<Elaborated, PipelineError> {
        Ok(self.desugar(source)?.elaborate())
    }

    /// The counters of the elaboration, analysis and solver memos. They are
    /// shared by clones of the session, like the memos themselves, and
    /// survive [`Session::clear_cache`] (which resets only `entries`).
    /// [`Session::elaborate_uncached`] and analyses under a non-default
    /// budget bypass the memos *and* the counters.
    pub fn cache_stats(&self) -> SessionStats {
        SessionStats {
            elaboration: self.artifacts.stats(),
            analysis: self.analyses.stats(),
            solver: self.solver.stats(),
        }
    }

    /// Drop every memoised artifact and analysis report (the artifacts
    /// themselves stay alive as long as callers hold clones).
    pub fn clear_cache(&self) {
        self.artifacts.clear();
        self.analyses.clear();
    }

    /// Run the static UB analyzer (the Core well-formedness validator plus
    /// the path-sensitive abstract interpreter of `cerberus-analysis`) on a
    /// source, memoising per-source analysis summaries alongside the
    /// elaboration artifacts. The session owns one constraint solver whose
    /// memo table persists across all `analyze` calls, so constraint subgoals
    /// shared across sources (the corpus) are decided once; the hit rate is
    /// surfaced in [`Session::cache_stats`].
    ///
    /// Like [`Session::elaborate`], results are cached by source text (the
    /// report is behind an `Arc`, so cache hits are cheap) with the same
    /// generational eviction bound; front-end failures are not cached.
    pub fn analyze(&self, source: &str) -> Result<Arc<AnalysisReport>, PipelineError> {
        self.analyze_with(source, AnalysisConfig::default())
    }

    /// [`Session::analyze`] under an explicit analysis budget. Only
    /// default-budget reports are memoised.
    pub fn analyze_with(
        &self,
        source: &str,
        config: AnalysisConfig,
    ) -> Result<Arc<AnalysisReport>, PipelineError> {
        let default_budget = config == AnalysisConfig::default();
        if default_budget {
            if let Some(hit) = self.analyses.get(source) {
                return Ok(hit);
            }
        }
        let program = self.elaborate(source)?;
        let report = Arc::new(cerberus_analysis::analyze_with_solver(
            program.core(),
            program.impl_env(),
            config,
            &self.solver,
        ));
        if default_budget {
            self.analyses.insert(source.to_owned(), Arc::clone(&report));
        }
        Ok(report)
    }

    /// Run a program from source, returning the distinct observable outcomes.
    pub fn run_source(&self, source: &str) -> Result<RunOutcome, PipelineError> {
        let program = self.elaborate(source)?;
        Ok(program.execute_bounded(&self.config.model, self.config.mode, &self.config.limits))
    }
}

/// Stage-1 artifact: the parsed translation unit.
#[derive(Debug, Clone)]
pub struct Parsed {
    tu: TranslationUnit,
    impl_env: ImplEnv,
}

impl Parsed {
    /// Stage 2: desugar and type-check into Ail. On failure the error
    /// carries **all** independently diagnosable constraint violations, not
    /// just the first (see [`PipelineError::diagnostics`]).
    pub fn desugar(&self) -> Result<Desugared, PipelineError> {
        let ail = desugar_translation_unit_all(&self.tu, &self.impl_env)?;
        Ok(Desugared {
            ail,
            impl_env: self.impl_env.clone(),
        })
    }
}

/// Stage-2 artifact: the desugared, type-annotated Ail program.
#[derive(Debug, Clone)]
pub struct Desugared {
    ail: AilProgram,
    impl_env: ImplEnv,
}

impl Desugared {
    /// The Ail program.
    pub fn ail(&self) -> &AilProgram {
        &self.ail
    }

    /// Stage 3: elaborate into Core (total on well-typed Ail).
    pub fn elaborate(&self) -> Elaborated {
        let core = elaborate_program(&self.ail, &self.impl_env);
        Elaborated {
            core: Arc::new(core),
            impl_env: self.impl_env.clone(),
            executions: Arc::default(),
        }
    }
}

/// Stage-3 artifact: the elaborated Core program, shareable and reusable.
///
/// Cloning an `Elaborated` is cheap (the Core program is behind an `Arc`), so
/// one elaboration can back many concurrent or sequential executions under
/// different memory models — the shape of the paper's §3 tool comparison and
/// of differential testing generally.
///
/// The artifact also tables its executions, and clones share the table:
/// [`Elaborated::execute_bounded`] answers a configuration that agrees with
/// a tabled run on every field that run consulted from the table. So the
/// rows of a matrix whose configurations differ only in fields an execution
/// never consulted cost that one execution, and a repeated row costs none
/// ([`Elaborated::execution_stats`] counts them).
#[derive(Debug, Clone)]
pub struct Elaborated {
    core: Arc<CoreProgram>,
    impl_env: ImplEnv,
    executions: Arc<Mutex<ExecutionTable>>,
}

/// The executions of one artifact under one search bound and resource
/// budget, with the counters of [`Elaborated::execution_stats`].
#[derive(Debug, Default)]
struct ExecutionTable {
    /// The bound and budget of every tabled run.
    key: Option<(ExecMode, ResourceLimits)>,
    runs: Vec<TabledRun>,
    hits: u64,
    misses: u64,
}

/// One search under `config` that consulted only `consulted`.
#[derive(Debug)]
struct TabledRun {
    config: ModelConfig,
    consulted: FieldSet,
    outcomes: Vec<ProgramOutcome>,
}

impl ExecutionTable {
    /// The runs tabled under `mode` and `limits`; a different key empties
    /// the table first.
    fn runs_under(&mut self, mode: ExecMode, limits: &ResourceLimits) -> &mut Vec<TabledRun> {
        let key = (mode, limits.clone());
        if self.key.as_ref() != Some(&key) {
            self.runs.clear();
            self.key = Some(key);
        }
        &mut self.runs
    }

    /// The outcomes of a tabled run `model` agrees with, counting the lookup
    /// as a hit or, since the caller then executes, a miss.
    /// [`ModelConfig::agrees_on`] compares engines, so a run answers only
    /// configurations of its own engine.
    fn lookup(
        &mut self,
        model: &ModelConfig,
        mode: ExecMode,
        limits: &ResourceLimits,
    ) -> Option<Vec<ProgramOutcome>> {
        let hit = self
            .runs_under(mode, limits)
            .iter()
            .find(|run| model.agrees_on(&run.config, run.consulted))
            .map(|run| run.outcomes.clone());
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }
}

impl Elaborated {
    /// The elaborated Core program.
    pub fn core(&self) -> &CoreProgram {
        &self.core
    }

    /// A shared handle to the Core program.
    pub fn share(&self) -> Arc<CoreProgram> {
        Arc::clone(&self.core)
    }

    /// The implementation-defined environment the program was elaborated
    /// under (type layout decisions are already folded into the Core, so
    /// execution must use the same environment).
    pub fn impl_env(&self) -> &ImplEnv {
        &self.impl_env
    }

    /// Run the Core well-formedness validator over the elaborated program,
    /// returning **every** violation (the elaboration-stage counterpart of
    /// the desugaring pass's collect-all constraint reporting). The
    /// elaborator produces well-formed Core by construction, so any violation
    /// indicates a broken producer; an empty list is the expected outcome.
    pub fn validate(&self) -> Vec<ConstraintViolation> {
        cerberus_analysis::validate::validate(self.core())
    }

    /// A driver executing this program on the engine configured by `model`.
    /// A model built outside this workspace runs through
    /// `Driver::new(program.share(), model)`.
    pub fn driver(&self, model: &ModelConfig) -> Driver<ConcreteEngine> {
        let engine = model.instantiate(self.impl_env.clone(), self.core.tags.clone());
        Driver::new(self.share(), engine)
    }

    /// Execute under `model` with an explicit search bound and full resource
    /// budget (steps, wall-clock watchdog, allocation bounds, call depth).
    ///
    /// The outcomes are those of `self.driver(model).with_limits(limits)
    /// .run(mode)`, but a run is shared. The artifact tables each search
    /// with the configuration fields it consulted ([`Driver::run_logged`]),
    /// and a later call under the same `mode` and `limits` whose `model`
    /// agrees with a tabled run on every one of those fields returns that
    /// run's outcomes without executing: it would read the same answers at
    /// every step, so it is the same run. A run with an outcome the
    /// wall-clock watchdog stopped is never tabled, since the watchdog is
    /// not part of the program, and the table keeps the runs of one `mode`
    /// and `limits` only.
    ///
    /// The execution runs on the caller's thread, which needs about 2 MiB of
    /// free stack, what a default Rust thread has. That run caps the call
    /// depth at 8, so the interpreter's stack guard holds it to 1 MiB. An
    /// execution that exhausts the capped depth while `limits` allows more
    /// reruns once, under `limits`, on a thread spawned with
    /// [`ResourceLimits::host_stack_bytes`] of stack. Executions are
    /// deterministic, so the rerun gives the outcome a single run would, but
    /// the wall-clock watchdog can fire in each of the two runs. An engine
    /// panic unwinds to the caller with its original payload, and its row
    /// is not tabled.
    pub fn execute_bounded(
        &self,
        model: &ModelConfig,
        mode: ExecMode,
        limits: &ResourceLimits,
    ) -> RunOutcome {
        if let Some(outcomes) = self.table().lookup(model, mode, limits) {
            return RunOutcome { outcomes };
        }
        let (outcomes, consulted) = self.execute_logged(model, mode, limits);
        let stopped = outcomes
            .iter()
            .any(|outcome| outcome.result == ExecResult::Timeout(TimeoutKind::WallClock));
        if !stopped {
            self.table().runs_under(mode, limits).push(TabledRun {
                config: model.clone(),
                consulted,
                outcomes: outcomes.clone(),
            });
        }
        RunOutcome { outcomes }
    }

    /// How [`Elaborated::execute_bounded`] fared on this artifact and its
    /// clones, in the one [`CacheStats`] shape: `hits` counts rows answered
    /// from a tabled run, `misses` rows executed, and `entries` the runs
    /// tabled under the latest search bound and budget.
    pub fn execution_stats(&self) -> CacheStats {
        let table = self.table();
        CacheStats {
            hits: table.hits,
            misses: table.misses,
            entries: table.runs.len(),
        }
    }

    fn table(&self) -> MutexGuard<'_, ExecutionTable> {
        // No execution runs under the lock, and every update leaves the
        // table whole, so a poisoned lock still guards a usable table.
        self.executions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The unshared search behind [`Elaborated::execute_bounded`], with the
    /// fields it consulted: those of the rerun on a larger stack, if any,
    /// joined to those of the run on the caller's thread.
    fn execute_logged(
        &self,
        model: &ModelConfig,
        mode: ExecMode,
        limits: &ResourceLimits,
    ) -> (Vec<ProgramOutcome>, FieldSet) {
        /// The call depth an execution gets on the caller's thread: its
        /// `host_stack_bytes()` is 1.5 MiB, of which the stack guard allows
        /// 1 MiB, half of a default Rust thread's stack.
        const INLINE_CALL_DEPTH: usize = 8;
        let shallow = limits
            .clone()
            .with_call_depth(limits.call_depth.min(INLINE_CALL_DEPTH));
        let (outcomes, consulted) = self.driver(model).with_limits(shallow).run_logged(mode);
        let too_deep = outcomes.iter().any(|outcome| {
            outcome.result == ExecResult::ResourceExhausted(ResourceKind::CallDepth)
        });
        if !too_deep || limits.call_depth <= INLINE_CALL_DEPTH {
            return (outcomes, consulted);
        }
        // Rerun on a thread sized for the whole budget. An engine panic
        // unwinds the worker; rethrow it here so fault-isolating callers
        // (the differential runner, the litmus suite) observe the original
        // payload.
        let result = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name(format!("cerberus-exec-{}", model.name))
                .stack_size(limits.host_stack_bytes())
                .spawn_scoped(scope, || {
                    self.driver(model)
                        .with_limits(limits.clone())
                        .run_logged(mode)
                })
                .expect("spawning an execution worker thread")
                .join()
        });
        match result {
            Ok((outcomes, deep)) => (outcomes, consulted | deep),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Execute under `model` with the default bound (one execution) and
    /// resource budget.
    ///
    /// One elaboration serves any number of executions — including under
    /// `symbolic`, whose configuration is named like any other:
    ///
    /// ```
    /// use cerberus::memory::config::ModelConfig;
    /// use cerberus::pipeline::Session;
    ///
    /// let program = Session::default()
    ///     .elaborate("int main(void) { int x = 40; int *p = &x; return *p + 2; }")
    ///     .unwrap();
    /// assert_eq!(program.run_under(&ModelConfig::de_facto()).exit_value(), Some(42));
    /// assert_eq!(program.run_under(&ModelConfig::symbolic()).exit_value(), Some(42));
    /// ```
    pub fn run_under(&self, model: &ModelConfig) -> RunOutcome {
        let defaults = Config::default();
        self.execute_bounded(model, defaults.mode, &defaults.limits)
    }
}

/// Convenience: run `source` under the default (de facto) configuration.
pub fn run(source: &str) -> Result<RunOutcome, PipelineError> {
    Session::default().run_source(source)
}

/// Convenience: run `source` under a specific memory model.
pub fn run_with_model(source: &str, model: ModelConfig) -> Result<RunOutcome, PipelineError> {
    Session::with_model(model).run_source(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ub::UbKind;
    use cerberus_exec::driver::ExecResult;

    fn exit_of(src: &str) -> i128 {
        let out = run(src).unwrap();
        match &out.outcomes[0].result {
            ExecResult::Return(v) | ExecResult::Exit(v) => *v,
            other => panic!(
                "expected a normal result, got {other}: {:?}",
                out.outcomes[0]
            ),
        }
    }

    fn stdout_of(src: &str) -> String {
        let out = run(src).unwrap();
        out.outcomes[0].stdout.clone()
    }

    fn ub_of(src: &str) -> UbKind {
        let out = run(src).unwrap();
        match &out.outcomes[0].result {
            ExecResult::Undef(ub, _) => *ub,
            other => panic!("expected undefined behaviour, got {other}"),
        }
    }

    #[test]
    fn arithmetic_and_locals() {
        assert_eq!(
            exit_of("int main(void) { int x = 20; int y = 22; return x + y; }"),
            42
        );
        assert_eq!(exit_of("int main(void) { return 7 * 6; }"), 42);
        assert_eq!(exit_of("int main(void) { return 100 / 2 - 8; }"), 42);
        assert_eq!(exit_of("int main(void) { return 45 % 7; }"), 3);
    }

    #[test]
    fn unsigned_comparison_surprise() {
        // The §5.5 example: -1 < (unsigned int)0 evaluates to 0.
        assert_eq!(
            exit_of("int main(void) { return -1 < (unsigned int)0; }"),
            0
        );
        assert_eq!(exit_of("int main(void) { return -1 < 0; }"), 1);
    }

    #[test]
    fn shifts_and_their_ub() {
        assert_eq!(exit_of("int main(void) { return 1 << 4; }"), 16);
        assert_eq!(
            exit_of("int main(void) { unsigned x = 1u << 31; return x != 0; }"),
            1
        );
        assert_eq!(
            ub_of("int main(void) { int n = 40; return 1 << n; }"),
            UbKind::ShiftTooLarge
        );
        assert_eq!(
            ub_of("int main(void) { int n = -1; return 1 << n; }"),
            UbKind::NegativeShift
        );
    }

    #[test]
    fn signed_overflow_is_ub() {
        assert_eq!(
            ub_of("int main(void) { int x = 2147483647; return x + 1; }"),
            UbKind::ExceptionalCondition
        );
        assert_eq!(
            ub_of("int main(void) { int x = 0; return 1 / x; }"),
            UbKind::DivisionByZero
        );
    }

    #[test]
    fn unsigned_arithmetic_wraps() {
        assert_eq!(
            exit_of("int main(void) { unsigned x = 4294967295u; x = x + 1u; return x == 0u; }"),
            1
        );
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            exit_of("int main(void) { int acc = 0; for (int i = 1; i <= 10; i++) acc += i; return acc; }"),
            55
        );
        assert_eq!(
            exit_of("int main(void) { int i = 0; while (i < 5) { i++; } return i; }"),
            5
        );
        assert_eq!(
            exit_of("int main(void) { int i = 0; do { i++; } while (i < 3); return i; }"),
            3
        );
        assert_eq!(
            exit_of(
                "int main(void) { int acc = 0; for (int i = 0; i < 10; i++) { if (i == 5) break; if (i % 2) continue; acc += i; } return acc; }"
            ),
            6
        );
    }

    #[test]
    fn switch_statement() {
        let src = "int classify(int x) {\n\
                     switch (x) {\n\
                       case 0: return 10;\n\
                       case 1: case 2: return 20;\n\
                       case 3: break;\n\
                       default: return 40;\n\
                     }\n\
                     return 30;\n\
                   }\n\
                   int main(void) { return classify(0) + classify(1) + classify(2) + classify(3) + classify(9); }";
        assert_eq!(exit_of(src), 10 + 20 + 20 + 30 + 40);
    }

    #[test]
    fn switch_fallthrough() {
        let src = "int main(void) { int acc = 0; int x = 1;\n\
                   switch (x) { case 1: acc += 1; case 2: acc += 2; break; case 3: acc += 100; }\n\
                   return acc; }";
        assert_eq!(exit_of(src), 3);
    }

    #[test]
    fn goto_forward_and_backward() {
        assert_eq!(
            exit_of("int main(void) { int x = 0; goto done; x = 100; done: return x + 1; }"),
            1
        );
        assert_eq!(
            exit_of("int main(void) { int i = 0; again: i++; if (i < 4) goto again; return i; }"),
            4
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            exit_of("int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); } int main(void) { return fact(5); }"),
            120
        );
        assert_eq!(
            exit_of(
                "int add(int a, int b) { return a + b; } int main(void) { return add(40, 2); }"
            ),
            42
        );
    }

    #[test]
    fn function_pointers() {
        assert_eq!(
            exit_of(
                "int twice(int x) { return 2 * x; }\n\
                 int apply(int (*f)(int), int v) { return f(v); }\n\
                 int main(void) { int (*g)(int) = twice; return apply(g, 21); }"
            ),
            42
        );
    }

    #[test]
    fn pointers_and_addresses() {
        assert_eq!(
            exit_of("int main(void) { int x = 1; int *p = &x; *p = 41; return x + 1; }"),
            42
        );
        assert_eq!(
            exit_of(
                "int main(void) { int x = 5; int *p = &x; int **pp = &p; **pp = 9; return x; }"
            ),
            9
        );
    }

    #[test]
    fn arrays_and_subscripts() {
        assert_eq!(
            exit_of(
                "int main(void) { int a[5]; for (int i = 0; i < 5; i++) a[i] = i * i; return a[4] + a[3]; }"
            ),
            25
        );
        assert_eq!(
            exit_of("int main(void) { int a[3] = {1, 2, 3}; int *p = a; return *(p + 2); }"),
            3
        );
    }

    #[test]
    fn structs_and_members() {
        assert_eq!(
            exit_of(
                "struct point { int x; int y; };\n\
                 int main(void) { struct point p; p.x = 20; p.y = 22; return p.x + p.y; }"
            ),
            42
        );
        assert_eq!(
            exit_of(
                "struct point { int x; int y; };\n\
                 int sum(struct point *p) { return p->x + p->y; }\n\
                 int main(void) { struct point p = { 40, 2 }; return sum(&p); }"
            ),
            42
        );
    }

    #[test]
    fn globals_and_statics() {
        assert_eq!(
            exit_of("int counter = 40; int bump(void) { counter = counter + 1; return counter; } int main(void) { bump(); return bump(); }"),
            42
        );
        assert_eq!(
            exit_of("int next(void) { static int n = 0; n++; return n; } int main(void) { next(); next(); return next(); }"),
            3
        );
        // Globals without initialisers are zero-initialised (6.7.9p10).
        assert_eq!(exit_of("int z; int main(void) { return z; }"), 0);
    }

    #[test]
    fn printf_output() {
        assert_eq!(
            stdout_of("#include <stdio.h>\nint main(void) { printf(\"x=%d y=%u s=%s\\n\", -3, 7u, \"hi\"); return 0; }"),
            "x=-3 y=7 s=hi\n"
        );
        assert_eq!(
            stdout_of("#include <stdio.h>\nint main(void) { for (int i = 0; i < 3; i++) printf(\"%d \", i); return 0; }"),
            "0 1 2 "
        );
    }

    #[test]
    fn malloc_free_roundtrip() {
        assert_eq!(
            exit_of(
                "#include <stdlib.h>\n\
                 int main(void) { int *p = malloc(4 * sizeof(int)); for (int i = 0; i < 4; i++) p[i] = i + 10; int s = p[0] + p[3]; free(p); return s; }"
            ),
            23
        );
    }

    #[test]
    fn memcpy_and_memcmp() {
        assert_eq!(
            exit_of(
                "#include <string.h>\n\
                 int main(void) { int a[2] = {1, 2}; int b[2]; memcpy(b, a, sizeof(a)); return memcmp(a, b, sizeof(a)) == 0; }"
            ),
            1
        );
        assert_eq!(
            exit_of("#include <string.h>\nint main(void) { return (int)strlen(\"hello\"); }"),
            5
        );
    }

    #[test]
    fn sizeof_values() {
        assert_eq!(exit_of("int main(void) { return (int)sizeof(int); }"), 4);
        assert_eq!(exit_of("int main(void) { return (int)sizeof(long); }"), 8);
        assert_eq!(
            exit_of("int main(void) { int a[7]; return (int)sizeof a; }"),
            28
        );
        assert_eq!(
            exit_of(
                "struct s { char c; int i; }; int main(void) { return (int)sizeof(struct s); }"
            ),
            8
        );
    }

    #[test]
    fn enums_and_typedefs() {
        assert_eq!(
            exit_of("enum e { A, B = 10, C }; typedef int myint; int main(void) { myint x = C; return x + A + B; }"),
            21
        );
    }

    #[test]
    fn unions_type_pun_bytes() {
        assert_eq!(
            exit_of(
                "union u { unsigned int i; unsigned char bytes[4]; };\n\
                 int main(void) { union u v; v.i = 0x01020304u; return v.bytes[0]; }"
            ),
            4 // little-endian LP64
        );
    }

    #[test]
    fn null_pointer_dereference_is_ub() {
        assert_eq!(
            ub_of("int main(void) { int *p = 0; return *p; }"),
            UbKind::NullPointerDeref
        );
    }

    #[test]
    fn out_of_bounds_access_is_ub() {
        assert_eq!(
            ub_of("int main(void) { int a[2]; a[0] = 1; a[1] = 2; int *p = a; return *(p + 5); }"),
            UbKind::OutOfBoundsAccess
        );
    }

    #[test]
    fn use_after_free_is_ub() {
        let ub = ub_of(
            "#include <stdlib.h>\nint main(void) { int *p = malloc(sizeof(int)); *p = 3; free(p); return *p; }",
        );
        assert_eq!(ub, UbKind::AccessOutsideLifetime);
    }

    #[test]
    fn uninitialised_read_follows_model() {
        // Under the (default) de facto model an uninitialised read gives an
        // unspecified value; branching on it is then daemonic UB.
        let ub = ub_of("int main(void) { int x; if (x) return 1; return 0; }");
        assert_eq!(ub, UbKind::IndeterminateValueUse);
        // Under the strict-ISO model the read itself is already UB.
        let out = run_with_model(
            "int main(void) { int x; return x; }",
            ModelConfig::strict_iso(),
        )
        .unwrap();
        assert_eq!(
            out.outcomes[0].result.ub_kind(),
            Some(UbKind::IndeterminateValueUse)
        );
    }

    #[test]
    fn unsequenced_race_is_detected() {
        // i = i++ + 1: the store of the assignment and the increment's store
        // are unsequenced (6.5p2).
        let out = run("int main(void) { int i = 0; i = i++ + 1; return i; }").unwrap();
        assert!(
            out.outcomes[0].result.ub_kind() == Some(UbKind::UnsequencedRace),
            "expected an unsequenced race, got {:?}",
            out.outcomes[0]
        );
    }

    #[test]
    fn exhaustive_mode_explores_argument_orders() {
        // Calling two functions with side effects in one expression: the
        // order is unspecified, so both results are allowed behaviours.
        let src = "int trace = 0;\n\
                   int f(void) { trace = trace * 10 + 1; return 0; }\n\
                   int g(void) { trace = trace * 10 + 2; return 0; }\n\
                   int add(int a, int b) { return trace; }\n\
                   int main(void) { return add(f(), g()); }";
        let out = Session::new(Config::default().exhaustive(64))
            .run_source(src)
            .unwrap();
        let values: Vec<i128> = out
            .outcomes
            .iter()
            .filter_map(cerberus_exec::driver::main_return_value)
            .collect();
        assert!(
            values.contains(&12) && values.contains(&21),
            "outcomes: {values:?}"
        );
        // Three calls and a read of `trace`, all unsequenced: the search is
        // breadth-first, so each bound explores the orders that differ at the
        // earliest choices first. The first path runs left to right.
        let src = "int trace = 0;\n\
                   int f(void) { trace = trace * 10 + 1; return 1; }\n\
                   int g(void) { trace = trace * 10 + 2; return 2; }\n\
                   int h(void) { trace = trace * 10 + 3; return 3; }\n\
                   int sum(int a, int b, int c) { return a + b + c; }\n\
                   int main(void) { return sum(f(), g(), h()) + trace; }";
        let program = Session::default().elaborate(src).unwrap();
        let expected: [(usize, &[i128]); 6] = [
            (1, &[129]),
            (2, &[6, 129]),
            (4, &[6, 129, 219]),
            (8, &[6, 129, 219, 318]),
            (16, &[6, 129, 138, 219, 318]),
            (64, &[6, 129, 138, 219, 237, 318]),
        ];
        for model in [ModelConfig::de_facto(), ModelConfig::symbolic()] {
            for (max_executions, values) in expected {
                let out = program.execute_bounded(
                    &model,
                    ExecMode { max_executions },
                    &ResourceLimits::default(),
                );
                let found: Vec<i128> = out
                    .outcomes
                    .iter()
                    .filter_map(cerberus_exec::driver::main_return_value)
                    .collect();
                assert_eq!(found, values, "{} at bound {max_executions}", model.name);
            }
        }
    }

    #[test]
    fn provenance_example_differs_across_models() {
        // The §2.1 DR260 example (globals declared so the one-past pointer of
        // x aliases y under adjacent allocation).
        let src = "#include <stdio.h>\n\
                   #include <string.h>\n\
                   int x = 1, y = 2;\n\
                   int main() {\n\
                     int *p = &x + 1;\n\
                     int *q = &y;\n\
                     if (memcmp(&p, &q, sizeof(p)) == 0) {\n\
                       *p = 11;\n\
                       printf(\"x=%d y=%d *p=%d *q=%d\\n\", x, y, *p, *q);\n\
                     }\n\
                     return 0;\n\
                   }";
        // Concrete semantics: the store hits y.
        let concrete = run_with_model(src, ModelConfig::concrete()).unwrap();
        assert_eq!(concrete.outcomes[0].stdout, "x=1 y=11 *p=11 *q=11\n");
        // Candidate de facto model: the access is undefined behaviour.
        let de_facto = run_with_model(src, ModelConfig::de_facto()).unwrap();
        assert_eq!(
            de_facto.outcomes[0].result.ub_kind(),
            Some(UbKind::OutOfBoundsAccess)
        );
        // GCC-like provenance-optimising semantics: y keeps its value.
        let gcc = run_with_model(src, ModelConfig::gcc_like()).unwrap();
        assert_eq!(gcc.outcomes[0].stdout, "x=1 y=2 *p=11 *q=2\n");
    }

    #[test]
    fn relational_comparison_across_objects_follows_model() {
        let src = "int a, b;\nint main(void) { return &a < &b || &a > &b; }";
        assert_eq!(exit_of(src), 1);
        let iso = run_with_model(src, ModelConfig::strict_iso()).unwrap();
        assert_eq!(
            iso.outcomes[0].result.ub_kind(),
            Some(UbKind::RelationalCompareDifferentObjects)
        );
    }

    #[test]
    fn pointer_int_round_trip() {
        let src = "int main(void) { int x = 7; unsigned long a = (unsigned long)&x; int *p = (int*)a; return *p; }";
        assert_eq!(exit_of(src), 7);
        // Under the block model the round-tripped pointer is unusable.
        let blk = run_with_model(src, ModelConfig::block()).unwrap();
        assert!(blk.outcomes[0].result.is_undef());
    }

    #[test]
    fn logical_operators_short_circuit() {
        assert_eq!(
            exit_of(
                "int calls = 0; int boom(void) { calls++; return 1; }\n\
                 int main(void) { int r = 0 && boom(); return calls * 10 + r; }"
            ),
            0
        );
        assert_eq!(
            exit_of(
                "int calls = 0; int boom(void) { calls++; return 0; }\n\
                 int main(void) { int r = 1 || boom(); return calls * 10 + r; }"
            ),
            1
        );
    }

    #[test]
    fn conditional_expression() {
        assert_eq!(
            exit_of("int main(void) { int x = 5; return x > 3 ? 42 : 7; }"),
            42
        );
        assert_eq!(
            exit_of("int main(void) { int x = 1; return x > 3 ? 42 : 7; }"),
            7
        );
    }

    #[test]
    fn compound_assignment_and_increments() {
        assert_eq!(
            exit_of("int main(void) { int x = 10; x += 5; x *= 2; x -= 4; x /= 2; return x; }"),
            13
        );
        assert_eq!(
            exit_of("int main(void) { int i = 5; int a = i++; int b = ++i; return a * 10 + b; }"),
            57
        );
    }

    #[test]
    fn string_literals_are_readable_and_immutable() {
        assert_eq!(
            exit_of("int main(void) { char *s = \"AB\"; return s[0] + s[1]; }"),
            131
        );
        let out = run("int main(void) { char *s = \"AB\"; s[0] = 'x'; return 0; }").unwrap();
        assert_eq!(
            out.outcomes[0].result.ub_kind(),
            Some(UbKind::StringLiteralModification)
        );
    }

    #[test]
    fn frontend_errors_are_reported_with_their_kind() {
        let constraint = run("int main(void) { return zz; }").unwrap_err();
        assert_eq!(constraint.kind(), PipelineErrorKind::Constraint);
        let syntax = run("int main(void) { return 0 }").unwrap_err();
        assert_eq!(syntax.kind(), PipelineErrorKind::Syntax);
    }

    #[test]
    fn constraint_errors_collect_every_violation() {
        let err = run("int f(void) { return aa; }\n\
                       int g(void) { return bb; }\n\
                       int main(void) { return 0; }")
        .unwrap_err();
        assert_eq!(err.kind(), PipelineErrorKind::Constraint);
        assert_eq!(err.diagnostic_count(), 2);
        let diags = err.diagnostics();
        assert_eq!(diags.len(), 2);
        // The scalar accessors report the primary (first) violation...
        assert!(err.message().contains("aa"), "message: {}", err.message());
        assert_eq!(err.diagnostic().span, diags[0].span);
        // ...and Display mentions the rest.
        assert!(err.to_string().contains("and 1 more"), "display: {err}");
        // A single violation renders without the suffix.
        let single = run("int main(void) { return zz; }").unwrap_err();
        assert_eq!(single.diagnostic_count(), 1);
        assert!(!single.to_string().contains("more constraint"));
    }

    #[test]
    fn sessions_carry_a_full_resource_budget() {
        use cerberus_memory::limits::{ResourceKind, TimeoutKind};

        // A steps-only budget still surfaces as the §6-style timeout.
        let session = Session::new(Config::default().with_limits(ResourceLimits::with_steps(64)));
        let out = session
            .run_source("int main(void) { int i = 0; while (i < 100000) i++; return 0; }")
            .unwrap();
        assert_eq!(
            out.outcomes[0].result,
            ExecResult::Timeout(TimeoutKind::StepBudget)
        );
        assert!(out.any_budget_exhaustion());
        assert!(!out.is_fault());
        // A heap-bytes budget stops allocation-heavy programs with a
        // structured resource verdict.
        let limits = ResourceLimits::default().with_heap_bytes(1024);
        let session = Session::new(Config::default().with_limits(limits));
        let out = session
            .run_source(
                "#include <stdlib.h>\n\
                 int main(void) { for (int i = 0; i < 100; i++) malloc(64); return 0; }",
            )
            .unwrap();
        assert_eq!(
            out.outcomes[0].result,
            ExecResult::ResourceExhausted(ResourceKind::HeapBytes)
        );
    }

    #[test]
    fn one_elaboration_serves_many_models() {
        let program = Session::default()
            .elaborate("int main(void) { int x = 3; int *p = &x; return *p + 39; }")
            .unwrap();
        for model in ModelConfig::all_named() {
            assert_eq!(
                program.run_under(&model).exit_value(),
                Some(42),
                "model {}",
                model.name
            );
        }
    }

    #[test]
    fn elaboration_is_memoised_per_source() {
        let session = Session::default();
        let src_a = "int main(void) { return 1; }";
        let src_b = "int main(void) { return 2; }";
        let first = session.elaborate(src_a).unwrap();
        let again = session.elaborate(src_a).unwrap();
        assert!(std::sync::Arc::ptr_eq(&first.share(), &again.share()));
        let other = session.elaborate(src_b).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&first.share(), &other.share()));
        assert_eq!(session.cache_stats().elaboration.entries, 2);
        // Clones share the cache; clearing empties it for both.
        let clone = session.clone();
        assert_eq!(clone.cache_stats().elaboration.entries, 2);
        clone.clear_cache();
        assert_eq!(session.cache_stats().elaboration.entries, 0);
    }

    #[test]
    fn uncached_elaboration_bypasses_the_memo() {
        let session = Session::default();
        let src = "int main(void) { return 3; }";
        let a = session.elaborate_uncached(src).unwrap();
        let b = session.elaborate_uncached(src).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&a.share(), &b.share()));
        assert_eq!(session.cache_stats().elaboration.entries, 0);
        // Both artifacts nonetheless behave identically.
        assert_eq!(
            a.run_under(&ModelConfig::de_facto()).exit_value(),
            b.run_under(&ModelConfig::de_facto()).exit_value()
        );
    }

    #[test]
    fn the_memo_cache_is_bounded() {
        // A stream of distinct sources (the fuzzing shape) must roll the
        // cache over instead of growing it without bound.
        let session = Session::default();
        for i in 0..ARTIFACT_CAPACITY + 3 {
            let source = format!("int main(void) {{ return {i} % 128; }}");
            session.elaborate(&source).unwrap();
            assert!(
                session.cache_stats().elaboration.entries <= ARTIFACT_CAPACITY,
                "cache exceeded its bound at iteration {i}"
            );
        }
        // The oldest generation rolled out; the newest full generation and
        // the three sources after it remain.
        assert_eq!(
            session.cache_stats().elaboration.entries,
            ARTIFACT_CAPACITY / 2 + 3
        );
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let session = Session::default();
        assert_eq!(session.cache_stats(), SessionStats::default());
        let src = "int main(void) { return 4; }";
        session.elaborate(src).unwrap();
        session.elaborate(src).unwrap();
        session.elaborate("int main(void) { return 5; }").unwrap();
        let stats = session.cache_stats().elaboration;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert_eq!(stats.lookups(), 3);
        // A failed elaboration is a miss but never an entry.
        assert!(session.elaborate("int main(void) { return 0 }").is_err());
        assert_eq!(session.cache_stats().elaboration.misses, 3);
        assert_eq!(session.cache_stats().elaboration.entries, 2);
        // Clones share the counters; clearing the cache resets only entries.
        let clone = session.clone();
        clone.clear_cache();
        let stats = session.cache_stats().elaboration;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 0));
        // The uncached path bypasses cache and counters alike.
        session.elaborate_uncached(src).unwrap();
        assert_eq!(session.cache_stats().elaboration.misses, 3);
    }

    #[test]
    fn front_end_failures_are_not_cached() {
        let session = Session::default();
        let bad = "int main(void) { return 0 }";
        assert!(session.elaborate(bad).is_err());
        assert_eq!(session.cache_stats().elaboration.entries, 0);
    }

    #[test]
    fn elaborated_artifacts_share_the_core_program() {
        let program = Session::default()
            .elaborate("int main(void) { return 0; }")
            .unwrap();
        let clone = program.clone();
        assert!(std::sync::Arc::ptr_eq(&program.share(), &clone.share()));
    }

    #[test]
    fn stages_compose_explicitly() {
        let session = Session::default();
        let parsed = session.parse("int main(void) { return 40 + 2; }").unwrap();
        let desugared = parsed.desugar().unwrap();
        assert_eq!(desugared.ail().functions.len(), 1);
        let program = desugared.elaborate();
        assert!(program.core().main.is_some());
        assert_eq!(
            program.run_under(&ModelConfig::de_facto()).exit_value(),
            Some(42)
        );
    }

    #[test]
    fn analysis_is_memoised_per_source() {
        use cerberus_analysis::FindingSeverity;

        let session = Session::default();
        let src = "int main(void) { int *p = 0; return *p; }";
        let first = session.analyze(src).unwrap();
        assert_eq!(
            first.reports(UbKind::NullPointerDeref),
            Some(FindingSeverity::Must),
            "findings: {:?}",
            first.findings
        );
        let again = session.analyze(src).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let stats = session.cache_stats().analysis;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        session.clear_cache();
        assert_eq!(session.cache_stats().analysis.entries, 0);
        // Front-end failures surface as pipeline errors, not reports: a miss
        // but never an entry.
        assert!(session.analyze("int main(void) { return 0 }").is_err());
        let stats = session.cache_stats().analysis;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 0));
        // A report depends on its source alone: elaborating the source again
        // mints fresh symbols, and none of them may reach a finding's text.
        let literal = "int main(void) { char *s = \"ab\"; s[0] = 'x'; return 0; }";
        let before = session.analyze(literal).unwrap();
        assert_eq!(
            before.reports(UbKind::StringLiteralModification),
            Some(FindingSeverity::Must)
        );
        session.clear_cache();
        assert_eq!(before, session.analyze(literal).unwrap());
    }

    #[test]
    fn analysis_of_a_clean_program_is_clean() {
        let report = Session::default()
            .analyze("int main(void) { int x = 40; return x + 2; }")
            .unwrap();
        assert!(report.is_clean(), "{:?}", report);
    }

    #[test]
    fn elaborated_core_passes_the_validator() {
        let program = Session::default()
            .elaborate(
                "int add(int a, int b) { return a + b; }\n\
                 int main(void) { int t[2] = {1, 2}; return add(t[0], t[1]); }",
            )
            .unwrap();
        assert!(program.validate().is_empty());
    }

    #[test]
    fn exit_builtin() {
        let out = run("#include <stdlib.h>\nint main(void) { exit(3); return 0; }").unwrap();
        assert_eq!(out.outcomes[0].result, ExecResult::Exit(3));
    }
}
