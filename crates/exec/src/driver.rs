//! The execution driver: a bounded breadth-first search over the evaluation
//! orders C leaves unspecified, returning every distinct behaviour it
//! reaches (§5.1, §6).
//!
//! The only choice points are the evaluation orders of `unseq` siblings
//! (there is no `nd` branch), and every one is routed through a
//! [`ReplayOracle`]. The search replays choice prefixes: each execution
//! follows its prefix, then takes the leftmost remaining sibling at every
//! later choice, and every alternative it passes becomes a new prefix. Its
//! first execution takes the leftmost sibling everywhere, the order the
//! static analyzer walks; at the default bound of one execution that path is
//! the verdict. A larger bound gives the paper's "test oracle" usage: the set
//! of all allowed behaviours of a small test case.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use cerberus_ast::ub::UbKind;
use cerberus_core::program::CoreProgram;
use cerberus_memory::config::FieldSet;
use cerberus_memory::limits::{ResourceKind, ResourceLimits, TimeoutKind};
use cerberus_memory::model::MemoryModel;

use crate::eval::{Interp, Stop};

/// The scheduling decisions of one execution: follows a forced prefix of
/// choices, takes the first alternative beyond it, and records every
/// decision point it encounters.
#[derive(Debug, Default)]
pub struct ReplayOracle {
    prefix: Vec<usize>,
    position: usize,
    /// `(chosen, arity)` for every decision point, in order.
    pub recorded: Vec<(usize, usize)>,
}

impl ReplayOracle {
    /// An oracle that replays `prefix` then defaults to the first choice.
    pub fn new(prefix: Vec<usize>) -> Self {
        ReplayOracle {
            prefix,
            position: 0,
            recorded: Vec::new(),
        }
    }

    /// Choose which of `n` remaining `unseq` siblings runs next (`n >= 2`).
    pub(crate) fn choose(&mut self, n: usize) -> usize {
        let chosen = self.prefix.get(self.position).map_or(0, |&c| c.min(n - 1));
        self.position += 1;
        self.recorded.push((chosen, n));
        chosen
    }
}

/// The final result of one execution.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExecResult {
    /// `main` returned this value.
    Return(i128),
    /// The program called `exit`.
    Exit(i128),
    /// Undefined behaviour was detected (with its kind and explanation).
    Undef(UbKind, String),
    /// A dynamic error (unsupported construct, failed assertion, `abort`).
    Error(String),
    /// A time budget was exhausted: the deterministic step budget (treated as
    /// a timeout in §6's validation) or the wall-clock watchdog.
    Timeout(TimeoutKind),
    /// An allocation, recursion or output budget was exhausted.
    ResourceExhausted(ResourceKind),
    /// The memory model panicked; the panic was contained by the harness and
    /// the payload captured. Produced only by fault-isolating runners (the
    /// differential and fuzz harnesses), never by [`Driver`] itself.
    EngineFault {
        /// The name of the model whose engine faulted.
        model: String,
        /// The panic payload, rendered as text.
        payload: String,
    },
}

impl ExecResult {
    /// Whether the execution reached undefined behaviour.
    pub fn is_undef(&self) -> bool {
        matches!(self, ExecResult::Undef(..))
    }

    /// The undefined behaviour kind, if any.
    pub fn ub_kind(&self) -> Option<UbKind> {
        match self {
            ExecResult::Undef(ub, _) => Some(*ub),
            _ => None,
        }
    }

    /// Whether the execution ended in a contained engine panic.
    pub fn is_fault(&self) -> bool {
        matches!(self, ExecResult::EngineFault { .. })
    }

    /// Whether the execution ran out of a budget (time or resource) rather
    /// than reaching a verdict about the program.
    pub fn is_budget_exhaustion(&self) -> bool {
        matches!(
            self,
            ExecResult::Timeout(_) | ExecResult::ResourceExhausted(_)
        )
    }
}

impl std::fmt::Display for ExecResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecResult::Return(v) => write!(f, "return {v}"),
            ExecResult::Exit(v) => write!(f, "exit({v})"),
            ExecResult::Undef(ub, detail) => write!(f, "undefined behaviour: {ub} ({detail})"),
            ExecResult::Error(msg) => write!(f, "error: {msg}"),
            ExecResult::Timeout(kind) => write!(f, "timeout ({kind})"),
            ExecResult::ResourceExhausted(kind) => write!(f, "resource exhausted ({kind})"),
            ExecResult::EngineFault { model, payload } => {
                write!(f, "engine fault in {model}: {payload}")
            }
        }
    }
}

/// The observable outcome of one execution: the result and everything the
/// program printed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProgramOutcome {
    /// How the execution ended.
    pub result: ExecResult,
    /// Captured standard output.
    pub stdout: String,
}

impl ProgramOutcome {
    /// Whether the execution reached undefined behaviour.
    pub fn is_undef(&self) -> bool {
        self.result.is_undef()
    }
}

/// The search bound: how many executions [`Driver::run`] may explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecMode {
    /// The most executions to run. A bound of 0 still runs one.
    pub max_executions: usize,
}

impl Default for ExecMode {
    /// One execution: the leftmost sibling at every choice.
    fn default() -> Self {
        ExecMode { max_executions: 1 }
    }
}

/// An execution driver for one elaborated program under one memory model.
///
/// The driver is generic over the [`MemoryModel`] it links the Core
/// operational semantics against; it holds one configured model instance as
/// a prototype and obtains a pristine state per explored execution via
/// [`MemoryModel::fresh`]. The program is shared by `Arc`, so many drivers
/// (e.g. one per model in a differential run) can execute the same
/// elaborated artifact without copying it.
#[derive(Debug, Clone)]
pub struct Driver<M: MemoryModel> {
    program: Arc<CoreProgram>,
    model: M,
    limits: ResourceLimits,
}

impl<M: MemoryModel> Driver<M> {
    /// Build a driver executing `program` against `model`, with the default
    /// resource budget.
    pub fn new(program: Arc<CoreProgram>, model: M) -> Self {
        Driver {
            program,
            model,
            limits: ResourceLimits::default(),
        }
    }

    /// Override the whole resource budget (steps, wall clock, allocation
    /// bounds, call depth).
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// One execution: its outcome and the fields its engine consulted.
    fn execute(&self, oracle: &mut ReplayOracle) -> (ProgramOutcome, FieldSet) {
        let mem = self.model.fresh();
        let mut interp = Interp::new(&self.program, mem, oracle, self.limits.clone());
        let result = (|| -> Result<i128, Stop> {
            interp.setup()?;
            if self.program.main.is_none() {
                return Err(Stop::Error("program has no main function".into()));
            }
            let ret = interp.call_named("main", Vec::new())?;
            Ok(ret.as_int().unwrap_or(0))
        })();
        let stdout = String::from_utf8_lossy(&interp.stdout).into_owned();
        let result = match result {
            Ok(v) => ExecResult::Return(v),
            Err(Stop::Exit(code)) => ExecResult::Exit(code),
            Err(Stop::Undef { ub, detail }) => ExecResult::Undef(ub, detail),
            Err(Stop::Error(msg)) => ExecResult::Error(msg),
            Err(Stop::Limit(kind)) => ExecResult::Timeout(kind),
            Err(Stop::Resource(kind)) => ExecResult::ResourceExhausted(kind),
        };
        (ProgramOutcome { result, stdout }, interp.mem.consulted())
    }

    /// Search the allowed executions breadth-first, up to `mode`'s bound,
    /// returning the distinct observable outcomes in sorted order.
    ///
    /// Breadth-first order explores the earliest decision points (which
    /// typically select among semantically different schedules) before deep
    /// combinations of later ones. Every queued prefix ends in a nonzero
    /// choice, and its parent is that prefix without its last choice and the
    /// zeros before it, so no prefix is queued twice. Prefixes beyond the
    /// bound would never run, so none is built: the search holds at most
    /// `max_executions` prefixes, each no longer than the path it came from.
    pub fn run(&self, mode: ExecMode) -> Vec<ProgramOutcome> {
        self.run_logged(mode).0
    }

    /// [`Driver::run`], also returning the union of the fields every
    /// execution of the search consulted
    /// ([`MemoryModel::consulted`]): the fields the outcomes depend on.
    pub fn run_logged(&self, mode: ExecMode) -> (Vec<ProgramOutcome>, FieldSet) {
        let bound = mode.max_executions.max(1);
        let mut outcomes: BTreeSet<ProgramOutcome> = BTreeSet::new();
        let mut consulted = FieldSet::EMPTY;
        let mut pending: VecDeque<Vec<usize>> = VecDeque::from([Vec::new()]);
        let mut queued = 1;
        while let Some(prefix) = pending.pop_front() {
            let forced = prefix.len();
            let mut oracle = ReplayOracle::new(prefix);
            let (outcome, fields) = self.execute(&mut oracle);
            consulted = consulted | fields;
            outcomes.insert(outcome);
            let recorded = &oracle.recorded;
            'schedule: for (i, &(chosen, arity)) in recorded.iter().enumerate().skip(forced) {
                for alternative in chosen + 1..arity {
                    if queued == bound {
                        break 'schedule;
                    }
                    let mut next: Vec<usize> = recorded[..i].iter().map(|&(c, _)| c).collect();
                    next.push(alternative);
                    pending.push_back(next);
                    queued += 1;
                }
            }
        }
        (outcomes.into_iter().collect(), consulted)
    }
}

/// A convenience wrapper: the loaded integer value `main` returned, for tests
/// that only care about the exit status.
pub fn main_return_value(outcome: &ProgramOutcome) -> Option<i128> {
    match outcome.result {
        ExecResult::Return(v) | ExecResult::Exit(v) => Some(v),
        _ => None,
    }
}
