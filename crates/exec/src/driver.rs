//! Execution drivers: pseudorandom single-path exploration and exhaustive
//! enumeration of all allowed behaviours (§5.1, §6).
//!
//! Every source of semantic looseness is routed through a [`ChoiceOracle`],
//! and the only choice points are the evaluation orders of `unseq` siblings
//! (there is no `nd` branch). The random driver samples one schedule; the
//! exhaustive driver enumerates choice sequences by depth-first search with
//! replay, exactly the "test oracle" usage of the paper (compute the set of
//! all allowed behaviours of a small test case).

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cerberus_ast::ub::UbKind;
use cerberus_core::program::CoreProgram;
use cerberus_memory::limits::{ResourceKind, ResourceLimits, TimeoutKind};
use cerberus_memory::model::MemoryModel;

use crate::eval::{Interp, Stop};

/// A source of scheduling decisions: which `unseq` sibling runs next.
pub trait ChoiceOracle {
    /// Choose one of `n` alternatives (`n >= 2`).
    fn choose(&mut self, n: usize) -> usize;
}

/// A pseudorandom oracle (single-path exploration).
#[derive(Debug)]
pub struct RandomOracle {
    rng: StdRng,
}

impl RandomOracle {
    /// A seeded random oracle.
    pub fn new(seed: u64) -> Self {
        RandomOracle {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ChoiceOracle for RandomOracle {
    fn choose(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// A replaying oracle used by the exhaustive driver: follows a forced prefix
/// of choices, takes the first alternative beyond it, and records every
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
}

impl ChoiceOracle for ReplayOracle {
    fn choose(&mut self, n: usize) -> usize {
        let chosen = if self.position < self.prefix.len() {
            self.prefix[self.position].min(n - 1)
        } else {
            0
        };
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

/// The exploration mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Pseudorandomly explore a single execution path.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Exhaustively enumerate allowed executions, up to a bound.
    Exhaustive {
        /// Maximum number of executions to enumerate.
        max_executions: usize,
    },
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

    /// The resource budget every execution runs under.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// The elaborated program.
    pub fn program(&self) -> &CoreProgram {
        &self.program
    }

    /// The memory model prototype this driver executes against.
    pub fn model(&self) -> &M {
        &self.model
    }

    fn run_with(&self, oracle: &mut dyn ChoiceOracle) -> ProgramOutcome {
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
        ProgramOutcome { result, stdout }
    }

    /// Explore a single pseudorandom execution path.
    pub fn run_random(&self, seed: u64) -> ProgramOutcome {
        let mut oracle = RandomOracle::new(seed);
        self.run_with(&mut oracle)
    }

    /// Exhaustively enumerate the allowed executions (up to
    /// `max_executions`), returning the distinct observable outcomes.
    pub fn run_exhaustive(&self, max_executions: usize) -> Vec<ProgramOutcome> {
        let mut outcomes: BTreeSet<ProgramOutcome> = BTreeSet::new();
        // Breadth-first over choice prefixes so the earliest decision points
        // (which typically select among semantically different schedules) are
        // explored before deep combinations of later ones.
        let mut pending: VecDeque<Vec<usize>> = VecDeque::from([Vec::new()]);
        let mut seen_prefixes: BTreeSet<Vec<usize>> = BTreeSet::new();
        let mut executions = 0usize;
        while let Some(prefix) = pending.pop_front() {
            if executions >= max_executions {
                break;
            }
            executions += 1;
            let mut oracle = ReplayOracle::new(prefix.clone());
            let outcome = self.run_with(&mut oracle);
            let recorded = oracle.recorded;
            outcomes.insert(outcome);
            // Schedule unexplored alternatives at every decision point at or
            // beyond the forced prefix.
            for i in prefix.len()..recorded.len() {
                let (chosen, arity) = recorded[i];
                for alternative in (chosen + 1)..arity {
                    let mut new_prefix: Vec<usize> =
                        recorded[..i].iter().map(|(c, _)| *c).collect();
                    new_prefix.push(alternative);
                    if seen_prefixes.insert(new_prefix.clone()) {
                        pending.push_back(new_prefix);
                    }
                }
            }
        }
        outcomes.into_iter().collect()
    }

    /// Run according to the given mode, returning all distinct outcomes (a
    /// single one in random mode).
    pub fn run(&self, mode: ExecMode) -> Vec<ProgramOutcome> {
        match mode {
            ExecMode::Random { seed } => vec![self.run_random(seed)],
            ExecMode::Exhaustive { max_executions } => self.run_exhaustive(max_executions),
        }
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
