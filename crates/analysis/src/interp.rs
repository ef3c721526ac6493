//! Path-sensitive abstract interpretation of Core programs.
//!
//! The abstract domain mirrors what the dynamic memory object models track
//! concretely: which allocation a pointer refers to (a finite points-to set
//! over abstract allocation ids, plus an "unknown provenance" element for
//! pointers forged from integers), the byte offset within that allocation,
//! whether the allocation is still live, and whether its bytes have been
//! initialised. Undefined behaviour surfaces in two ways:
//!
//! * **explicitly** — the elaboration compiles C-level UB into guarded
//!   [`PExpr::Undef`] nodes (arithmetic overflow, division by zero, shift
//!   ranges, unspecified-value `case` arms). The interpreter explores both
//!   branches of every condition it cannot decide, so a reachable `Undef`
//!   becomes a `May` finding and an unconditionally reachable one a `Must`
//!   finding;
//! * **implicitly** — memory actions are checked against the abstract state
//!   (null or dead targets, out-of-bounds offsets, stores to string literals,
//!   frees of non-heap or already-dead allocations, unsequenced conflicting
//!   accesses), the checks the models perform at runtime.
//!
//! In the default [`AnalysisMode::PathSensitive`] mode, unknown run-time
//! values (parameters, unknown loads, allocation base addresses, pointer
//! comparisons over distinct objects) are tracked as symbolic variables
//! ([`crate::solver::SymId`]). Branching on a condition involving such a
//! value pushes a constraint [`Atom`] onto the current path, and the
//! [`Solver`] decides feasibility: infeasible arms are pruned outright, a
//! fork whose other arm is infeasible keeps definiteness (the `May` → `Must`
//! flip), and findings that fire definitely in *every* feasible sibling stay
//! `Must` across the merge. Each finding records the path constraints active
//! when it fired: a `Must` finding turns them into a satisfying *witness*
//! assignment (a concrete layout/value choice realising the UB), a `May`
//! finding reports them as the residual constraint under which the UB fires.
//! The [`AnalysisMode::FlowJoin`] mode keeps the join-everything behaviour
//! as a differential baseline; path-sensitive results are a refinement of it
//! (checked by a property test at the workspace root).
//!
//! The walk borrows the program, as the concrete interpreter does: no
//! procedure body or global initialiser is copied, and environments, globals
//! and parked jump states are keyed by names borrowed from it. `let`,
//! sequencing, a decided `if` and a decided `case` bind names in place in the
//! procedure's environment; the elaborator gives every pattern a fresh
//! symbol, so a binding never shadows a name read later. A jump lands only in
//! a scope (`Interp::eval_scope`), so those are walked in a loop, not by
//! recursion. Every undecided `if` or `case`, pure or effectful, in either
//! mode, goes through one routine, `Interp::fork`, which holds everything
//! about a branch that differs between the modes.
//!
//! A fork copies nothing whose size grows with the program. Effectful arms
//! run on one environment: each binding an arm makes is logged on a trail
//! with the value it replaced and undone when the arm ends, as a logic
//! programming engine undoes bindings on backtracking. Allocation records
//! are reference-counted: an arm starts from the records the fork saw,
//! copies one only when it writes it, and the join of the arms' states
//! skips every record they still share. A `run` snapshot shares records
//! the same way.
//!
//! The pass is deliberately a *may*-analysis: when the state cannot exclude a
//! violation it reports `May` rather than staying silent, because the corpus
//! contract (see `tests/analysis_soundness.rs`) is one-directional — every
//! dynamically observed UB kind must be statically reported. Precision has
//! its own dual contract (`tests/analysis_precision.rs`): every `Must`
//! finding must be realised dynamically by at least one named model.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use cerberus_ast::ctype::{Ctype, IntegerType};
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout;
use cerberus_ast::loc::Span;
use cerberus_ast::ub::UbKind;
use cerberus_core::program::CoreProgram;
use cerberus_core::syntax::{Binop, BuiltinFn, Expr, MemAction, PExpr, Pattern, Polarity, PtrOp};

use crate::solver::{Atom, Model, Rel, Solver, SymId, Term, Verdict};
use crate::{
    AnalysisConfig, AnalysisMode, AnalysisReport, FindingSeverity, StaticFinding, Witness,
};

/// Index into [`State::allocs`].
type AllocId = usize;

/// Storage class of an abstract allocation, which decides which operations on
/// it are legal (stores to string literals, frees of non-heap objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StorageKind {
    /// An automatic-storage object (`create`).
    Stack,
    /// A dynamic allocation (`alloc` / `malloc` / `calloc`).
    Heap,
    /// A static-storage object.
    Static,
    /// A string-literal object (read-only by 6.4.5p7).
    StringLit,
}

/// Abstract lifetime of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifetime {
    Live,
    Dead,
    MaybeDead,
}

impl Lifetime {
    fn join(self, other: Lifetime) -> Lifetime {
        if self == other {
            self
        } else {
            Lifetime::MaybeDead
        }
    }
}

/// Abstract initialisation of an allocation's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitState {
    Uninit,
    Init,
    MaybeInit,
}

impl InitState {
    fn join(self, other: InitState) -> InitState {
        if self == other {
            self
        } else {
            InitState::MaybeInit
        }
    }

    /// Weakened by a store the analyzer cannot prove covers the whole object.
    fn touched(self) -> InitState {
        match self {
            InitState::Init => InitState::Init,
            _ => InitState::MaybeInit,
        }
    }
}

/// An abstract pointer: a points-to set with an offset, plus escape hatches
/// for null and for pointers whose provenance the analyzer lost.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct AbsPtr {
    /// Allocations the pointer may refer to.
    targets: BTreeSet<AllocId>,
    /// The pointer may refer to an allocation outside `targets` (unknown
    /// provenance).
    any: bool,
    /// The pointer may be null.
    null: bool,
    /// The pointer was (possibly) forged from an integer (`ptrFromInt` with
    /// no tracked provenance).
    from_int: bool,
    /// Byte offset into the target, when there is exactly one and it is
    /// known.
    offset: Option<i128>,
    /// A function designator, for `Ccall` through a pointer value.
    func: Option<String>,
}

impl AbsPtr {
    fn null_ptr() -> AbsPtr {
        AbsPtr {
            null: true,
            ..AbsPtr::default()
        }
    }

    fn wild() -> AbsPtr {
        AbsPtr {
            any: true,
            null: true,
            ..AbsPtr::default()
        }
    }

    fn to_target(id: AllocId) -> AbsPtr {
        AbsPtr {
            targets: BTreeSet::from([id]),
            offset: Some(0),
            ..AbsPtr::default()
        }
    }

    fn function(name: &Ident) -> AbsPtr {
        AbsPtr {
            func: Some(name.as_str().to_owned()),
            ..AbsPtr::default()
        }
    }

    /// Exactly one known target, nothing else possible.
    fn single(&self) -> Option<AllocId> {
        if self.targets.len() == 1 && !self.any && !self.null {
            self.targets.iter().next().copied()
        } else {
            None
        }
    }

    fn definitely_null(&self) -> bool {
        self.null && self.targets.is_empty() && !self.any && self.func.is_none()
    }

    fn join(&self, other: &AbsPtr) -> AbsPtr {
        AbsPtr {
            targets: self.targets.union(&other.targets).copied().collect(),
            any: self.any || other.any,
            null: self.null || other.null,
            from_int: self.from_int || other.from_int,
            offset: if self.offset == other.offset {
                self.offset
            } else {
                None
            },
            func: if self.func == other.func {
                self.func.clone()
            } else {
                None
            },
        }
    }

    fn with_offset(&self, offset: Option<i128>) -> AbsPtr {
        AbsPtr {
            offset,
            ..self.clone()
        }
    }
}

/// Abstract Core values. `Top` is "any value"; loaded values are wrapped in
/// `Spec`/`Unspec` exactly as the concrete interpreter wraps them in
/// `Specified`/`Unspecified`.
#[derive(Debug, Clone, PartialEq)]
enum AbsValue {
    Top,
    Unit,
    Bool {
        val: Option<bool>,
        /// The path-constraint atom this boolean decides, when the value is
        /// unknown but expressible over symbolic variables; branching on it
        /// pushes the atom (or its negation) onto the path.
        atom: Option<Box<Atom>>,
    },
    Int {
        val: Option<i128>,
        /// Symbolic handle: the (unknown) value is `sym + k` for the path
        /// constraint solver.
        sym: Option<(SymId, i128)>,
        /// Provenance carried through `intFromPtr` and arithmetic, so a
        /// round-tripped pointer keeps its points-to set.
        prov: Option<AbsPtr>,
    },
    Ctype(Ctype),
    Ptr(AbsPtr),
    Tuple(Vec<AbsValue>),
    Spec(Box<AbsValue>),
    Unspec(Option<Ctype>),
}

impl AbsValue {
    fn int(val: i128) -> AbsValue {
        AbsValue::Int {
            val: Some(val),
            sym: None,
            prov: None,
        }
    }

    fn unknown_int() -> AbsValue {
        AbsValue::Int {
            val: None,
            sym: None,
            prov: None,
        }
    }

    fn bool_known(val: Option<bool>) -> AbsValue {
        AbsValue::Bool { val, atom: None }
    }

    fn bool_atom(atom: Option<Atom>) -> AbsValue {
        AbsValue::Bool {
            val: None,
            atom: atom.map(Box::new),
        }
    }

    fn spec(v: AbsValue) -> AbsValue {
        AbsValue::Spec(Box::new(v))
    }

    fn join(&self, other: &AbsValue) -> AbsValue {
        use AbsValue::*;
        match (self, other) {
            (a, b) if a == b => a.clone(),
            (Spec(a), Spec(b)) => AbsValue::spec(a.join(b)),
            (Bool { .. }, Bool { .. }) => Bool {
                val: None,
                atom: None,
            },
            (
                Int {
                    val: v1,
                    sym: s1,
                    prov: p1,
                },
                Int {
                    val: v2,
                    sym: s2,
                    prov: p2,
                },
            ) => Int {
                val: if v1 == v2 { *v1 } else { None },
                sym: if s1 == s2 { *s1 } else { None },
                prov: match (p1, p2) {
                    (None, None) => None,
                    (Some(a), Some(b)) => Some(a.join(b)),
                    (Some(a), None) | (None, Some(a)) => Some(AbsPtr {
                        any: true,
                        ..a.clone()
                    }),
                },
            },
            (Ptr(a), Ptr(b)) => Ptr(a.join(b)),
            (Unspec(_), Unspec(_)) => Unspec(None),
            (Tuple(xs), Tuple(ys)) if xs.len() == ys.len() => {
                Tuple(xs.iter().zip(ys).map(|(x, y)| x.join(y)).collect())
            }
            _ => Top,
        }
    }
}

/// One abstract allocation.
#[derive(Debug, Clone, PartialEq)]
struct AllocInfo {
    kind: StorageKind,
    /// Declared C type, when the allocation came from `create` (heap
    /// allocations have none).
    ty: Option<Ctype>,
    /// Size in bytes, when known.
    size: Option<u64>,
    life: Lifetime,
    init: InitState,
    /// Whole-object value for strong updates; `Top` once imprecise.
    content: AbsValue,
    /// The C type of the last store, for effective-type checks on reads
    /// (union punning, reuse of heap memory at another type).
    last_store: Option<Ctype>,
    /// Display name for diagnostics.
    name: String,
}

impl AllocInfo {
    fn join_from(&mut self, other: &AllocInfo) {
        self.life = self.life.join(other.life);
        self.init = self.init.join(other.init);
        self.content = self.content.join(&other.content);
        if self.last_store != other.last_store {
            self.last_store = None;
        }
    }
}

/// The abstract memory state: allocations are identified by creation index,
/// which is deterministic because analysis order is deterministic. A copy of
/// the state (a fork arm's start, a `run` snapshot) copies pointers: a record
/// stays shared until one side writes it through [`State::alloc_mut`].
#[derive(Debug, Clone, PartialEq, Default)]
struct State {
    allocs: Vec<Rc<AllocInfo>>,
}

impl State {
    /// The one way to write a record: a record another state still shares
    /// is copied first.
    fn alloc_mut(&mut self, id: AllocId) -> &mut AllocInfo {
        Rc::make_mut(&mut self.allocs[id])
    }

    /// Join `other` into this state. A record both still share is its own
    /// join (x ⊔ x = x), so only records that either side wrote are joined.
    fn join_from(&mut self, other: &State) {
        let shared = self.allocs.len().min(other.allocs.len());
        for id in 0..shared {
            if !Rc::ptr_eq(&self.allocs[id], &other.allocs[id]) {
                self.alloc_mut(id).join_from(&other.allocs[id]);
            }
        }
        self.allocs.extend(other.allocs[shared..].iter().cloned());
    }
}

/// One recorded memory access, for unsequenced-race detection.
#[derive(Debug, Clone)]
struct AbsAccess {
    targets: BTreeSet<AllocId>,
    any: bool,
    write: bool,
    /// From a negative-polarity action (e.g. the store of a postfix
    /// increment), the only kind weak sequencing leaves unsequenced.
    negative: bool,
}

/// Abstract control flow, mirroring the concrete interpreter's `Flow`.
#[derive(Debug, Clone)]
enum AFlow<'a> {
    Val(AbsValue),
    Jump(&'a Ident),
    Ret,
}

/// The names bound in the procedure being analysed, borrowed from the
/// program. One environment serves every arm of an effectful fork: while an
/// arm runs, each binding is logged on the trail with the value it replaced,
/// and [`Env::in_arm`] undoes the log when the arm ends, so a sibling never
/// sees the arm's bindings.
#[derive(Default)]
struct Env<'a> {
    vars: HashMap<&'a str, AbsValue>,
    trail: Vec<(&'a str, Option<AbsValue>)>,
    /// How many effectful fork arms are running; bindings are logged only
    /// then, so the trail is empty outside every arm.
    arms: usize,
}

impl<'a> Env<'a> {
    fn get(&self, name: &str) -> Option<&AbsValue> {
        self.vars.get(name)
    }

    fn insert(&mut self, name: &'a str, v: AbsValue) {
        let replaced = self.vars.insert(name, v);
        if self.arms > 0 {
            self.trail.push((name, replaced));
        }
    }

    fn extend(&mut self, bindings: Bindings<'a>) {
        for (name, v) in bindings {
            self.insert(name, v);
        }
    }

    /// Run one fork arm, then undo every binding it made.
    fn in_arm<R>(&mut self, arm: impl FnOnce(&mut Self) -> R) -> R {
        let mark = self.trail.len();
        self.arms += 1;
        let result = arm(self);
        self.arms -= 1;
        for (name, replaced) in self.trail.drain(mark..).rev() {
            match replaced {
                Some(v) => self.vars.insert(name, v),
                None => self.vars.remove(name),
            };
        }
        result
    }
}

/// The names a pattern match introduces, in binding order.
type Bindings<'a> = Vec<(&'a str, AbsValue)>;

/// One arm of an undecided branch: the path constraint it runs under (an
/// `if` arm's condition, `None` for a `case` arm), the names it binds, and
/// its body.
type Arm<'a, E> = (Option<Atom>, Bindings<'a>, &'a E);

/// Result of matching a pattern against an abstract value.
enum MatchQ<'a> {
    Yes(Bindings<'a>),
    Maybe(Bindings<'a>),
    No,
}

/// One finding as recorded during exploration; severity and witness are
/// derived when the run finishes.
#[derive(Debug, Clone)]
struct LocalFinding {
    /// Fires on every path through its innermost fork (relative certainty;
    /// absolute `Must` additionally needs every enclosing fork to agree).
    definite: bool,
    detail: String,
    /// Path constraints active when the finding fired, plus any predicate
    /// enrichment (`from_int(p)`, `live(a)`); the witness/residual source.
    path: Vec<Atom>,
}

/// Findings of one fork branch, merged into the parent when siblings join.
type Frame<'a> = BTreeMap<(&'a str, UbKind), LocalFinding>;

struct Interp<'a> {
    program: &'a CoreProgram,
    ienv: &'a ImplEnv,
    config: AnalysisConfig,
    solver: &'a Solver,
    state: State,
    globals: HashMap<&'a str, AbsValue>,
    /// Fork-scoped finding frames; the bottom frame survives the whole run
    /// and is flushed into [`StaticFinding`]s at the end.
    finding_frames: Vec<Frame<'a>>,
    steps: usize,
    budget_exhausted: bool,
    cur_proc: &'a str,
    call_stack: Vec<&'a str>,
    /// False once evaluation is under an imprecision the fork machinery does
    /// not model (loop widening, exit joins); findings are then `May` at
    /// best. In flow mode this also covers every undecided branch.
    definite: bool,
    /// State snapshots registered at `run l` sites, consumed by the matching
    /// `save`/`exit`.
    jump_states: HashMap<&'a Ident, State>,
    /// Footprint frames for unsequenced-race detection.
    fp_stack: Vec<Vec<AbsAccess>>,
    /// Accumulated return values of the call being analyzed.
    ret_stack: Vec<Option<AbsValue>>,
    /// Display names of minted symbolic variables, indexed by [`SymId`].
    sym_names: Vec<String>,
    /// Lazily minted base-address variables per allocation.
    base_syms: HashMap<AllocId, SymId>,
    /// Boolean-valued symbols linked to a pointer atom: the symbol is 1
    /// exactly when the atom holds, so integer tests on it recover the atom.
    linked_syms: HashMap<u32, Atom>,
    /// Constraints of the path currently being explored.
    path: Vec<Atom>,
    paths_explored: usize,
    paths_pruned: usize,
    solver_queries: u64,
    solver_memo_hits: u64,
}

/// Run the abstract interpreter over every procedure of `program`.
pub(crate) fn run(
    program: &CoreProgram,
    env: &ImplEnv,
    config: AnalysisConfig,
    solver: &Solver,
) -> AnalysisReport {
    let mut it = Interp::new(program, env, config, solver);
    it.setup_globals();
    let base_state = it.state.clone();
    let mut names: Vec<&String> = program.procs.keys().collect();
    names.sort();
    let entry = program.main.as_ref().map(Ident::as_str);
    for name in &names {
        it.state = base_state.clone();
        it.jump_states.clear();
        it.path.clear();
        // Allocation ids restart from the base state, so base-address
        // symbols minted for another procedure would name its allocations.
        it.base_syms.clear();
        // A Must finding claims every execution hits the UB. For procedures
        // other than the entry point, the standalone analysis does not know
        // the call context (or whether the procedure runs at all), so its
        // findings cap at May in path mode; calls inlined from `main` still
        // produce Must findings for the same procedure, and the strongest
        // severity per (proc, kind) wins. Flow mode keeps the historical
        // everything-definite-at-top behaviour.
        it.definite = match it.config.mode {
            AnalysisMode::FlowJoin => true,
            AnalysisMode::PathSensitive => match entry {
                Some(main) => main == name.as_str(),
                None => true,
            },
        };
        it.analyze_proc(name);
    }
    debug_assert_eq!(it.finding_frames.len(), 1, "unbalanced finding frames");
    let base = it.finding_frames.pop().unwrap_or_default();
    let mut findings = Vec::new();
    for ((proc, ub), lf) in base {
        let (severity, witness) = it.classify(&lf);
        findings.push(StaticFinding {
            ub,
            severity,
            span: Span::synthetic(),
            iso_clause: ub.iso_reference(),
            proc: proc.to_owned(),
            witness,
            detail: lf.detail,
        });
    }
    AnalysisReport {
        violations: Vec::new(),
        findings,
        procs_analyzed: names.len(),
        steps_used: it.steps,
        budget_exhausted: it.budget_exhausted,
        aborted: None,
        paths_explored: it.paths_explored,
        paths_pruned: it.paths_pruned,
        solver_queries: it.solver_queries,
        solver_memo_hits: it.solver_memo_hits,
    }
}

impl<'a> Interp<'a> {
    fn new(
        program: &'a CoreProgram,
        ienv: &'a ImplEnv,
        config: AnalysisConfig,
        solver: &'a Solver,
    ) -> Self {
        Interp {
            program,
            ienv,
            config,
            solver,
            state: State::default(),
            globals: HashMap::new(),
            finding_frames: vec![Frame::new()],
            steps: 0,
            budget_exhausted: false,
            cur_proc: "",
            call_stack: Vec::new(),
            definite: true,
            jump_states: HashMap::new(),
            fp_stack: Vec::new(),
            ret_stack: Vec::new(),
            sym_names: Vec::new(),
            base_syms: HashMap::new(),
            linked_syms: HashMap::new(),
            path: Vec::new(),
            paths_explored: 0,
            paths_pruned: 0,
            solver_queries: 0,
            solver_memo_hits: 0,
        }
    }

    // ----- findings and budget ---------------------------------------------------

    fn path_mode(&self) -> bool {
        self.config.mode == AnalysisMode::PathSensitive
    }

    fn finding(&mut self, ub: UbKind, must_candidate: bool, detail: impl Into<String>) {
        self.finding_with(ub, must_candidate, detail, Vec::new());
    }

    /// Record a finding, optionally enriched with predicate atoms that feed
    /// the rendered witness/residual (they never join the solved path).
    fn finding_with(
        &mut self,
        ub: UbKind,
        must_candidate: bool,
        detail: impl Into<String>,
        extra: Vec<Atom>,
    ) {
        let definite = must_candidate && self.definite;
        let mut path = self.path.clone();
        path.extend(extra);
        let lf = LocalFinding {
            definite,
            detail: detail.into(),
            path,
        };
        self.record_local((self.cur_proc, ub), lf);
    }

    /// Merge one finding into the innermost frame: a definite finding
    /// replaces a tentative one; otherwise the earliest record wins.
    fn record_local(&mut self, key: (&'a str, UbKind), lf: LocalFinding) {
        let frame = self.finding_frames.last_mut().expect("finding frame");
        match frame.get_mut(&key) {
            Some(existing) => {
                if lf.definite && !existing.definite {
                    *existing = lf;
                }
            }
            None => {
                frame.insert(key, lf);
            }
        }
    }

    /// Merge the finding frames of `branches` feasible fork siblings into the
    /// parent frame: a finding stays definite only if it fired definitely in
    /// every sibling; anything else downgrades to tentative (→ `May`).
    fn merge_sibling_findings(&mut self, branches: Vec<Frame<'a>>) {
        let n = branches.len();
        let mut merged: BTreeMap<(&'a str, UbKind), (LocalFinding, usize)> = BTreeMap::new();
        for frame in branches {
            for (key, lf) in frame {
                match merged.get_mut(&key) {
                    None => {
                        let definite_count = usize::from(lf.definite);
                        merged.insert(key, (lf, definite_count));
                    }
                    Some((best, definite_count)) => {
                        if lf.definite {
                            *definite_count += 1;
                            if !best.definite {
                                *best = lf;
                            }
                        }
                    }
                }
            }
        }
        for (key, (mut lf, definite_count)) in merged {
            lf.definite = lf.definite && definite_count == n;
            self.record_local(key, lf);
        }
    }

    /// Severity and witness of a finished finding. Definite findings become
    /// `Must` and carry a satisfying assignment of their path constraints
    /// (empty = the UB fires unconditionally); tentative ones become `May`
    /// and carry the residual constraint set.
    fn classify(&mut self, lf: &LocalFinding) -> (FindingSeverity, Witness) {
        if lf.definite {
            let verdict = if lf.path.is_empty() {
                None
            } else {
                Some(self.query_solver(&lf.path))
            };
            let names = |v: SymId| {
                self.sym_names
                    .get(v.0 as usize)
                    .cloned()
                    .unwrap_or_else(|| v.to_string())
            };
            let assignment = match verdict {
                Some(Verdict::Sat(Model {
                    bindings,
                    predicates,
                })) => bindings
                    .into_iter()
                    .map(|(v, value)| (names(v), value))
                    .chain(
                        predicates
                            .into_iter()
                            .map(|(name, truth)| (name, i128::from(truth))),
                    )
                    .collect(),
                // A definite finding with an unsolvable path (the fork
                // machinery only keeps feasible paths, so this is at
                // worst Unknown): claim the unconditional witness.
                _ => Vec::new(),
            };
            (FindingSeverity::Must, Witness::Assignment(assignment))
        } else {
            let names = |v: SymId| {
                self.sym_names
                    .get(v.0 as usize)
                    .cloned()
                    .unwrap_or_else(|| v.to_string())
            };
            let mut seen = BTreeSet::new();
            let residual = lf
                .path
                .iter()
                .map(|a| a.render(&names))
                .filter(|r| seen.insert(r.clone()))
                .collect();
            (FindingSeverity::May, Witness::Residual(residual))
        }
    }

    /// One solver call, with the interpreter-side counters updated.
    fn query_solver(&mut self, atoms: &[Atom]) -> Verdict {
        let solved = self.solver.solve(atoms);
        self.solver_queries += 1;
        if solved.from_memo {
            self.solver_memo_hits += 1;
        }
        solved.verdict
    }

    /// Whether the current path (with `atom` appended, if given) is feasible.
    fn path_feasible(&mut self) -> bool {
        if self.path.is_empty() {
            return true;
        }
        let atoms = self.path.clone();
        self.query_solver(&atoms).feasible()
    }

    /// Mint a fresh symbolic variable (path mode only).
    fn mint_sym(&mut self, name: String) -> Option<(SymId, i128)> {
        if !self.path_mode() {
            return None;
        }
        let id = SymId(self.sym_names.len() as u32);
        self.sym_names.push(name);
        Some((id, 0))
    }

    /// The base-address variable of allocation `id`, minted on first use.
    fn base_sym(&mut self, id: AllocId) -> Option<SymId> {
        if !self.path_mode() {
            return None;
        }
        if let Some(s) = self.base_syms.get(&id) {
            return Some(*s);
        }
        let name = format!("base({})", self.state.allocs[id].name);
        let s = SymId(self.sym_names.len() as u32);
        self.sym_names.push(name);
        self.base_syms.insert(id, s);
        Some(s)
    }

    /// The linear term a value denotes, if expressible.
    fn term_of(&self, v: &AbsValue) -> Option<Term> {
        match v {
            AbsValue::Spec(inner) => self.term_of(inner),
            AbsValue::Int { val: Some(c), .. } => Some(Term::constant(*c)),
            AbsValue::Int {
                val: None,
                sym: Some((s, k)),
                ..
            } => Some(Term::var(*s, *k)),
            AbsValue::Bool { val: Some(b), .. } => Some(Term::constant(i128::from(*b))),
            _ => None,
        }
    }

    /// The atom an undecided branch condition pins down, if any.
    fn cond_atom(&self, v: &AbsValue) -> Option<Atom> {
        match v {
            AbsValue::Spec(inner) => self.cond_atom(inner),
            AbsValue::Bool { atom: Some(a), .. } => Some((**a).clone()),
            AbsValue::Int {
                val: None,
                sym: Some((s, k)),
                ..
            } => {
                if *k == 0 {
                    if let Some(a) = self.linked_syms.get(&s.0) {
                        return Some(a.clone());
                    }
                }
                // Truthiness of a symbolic integer.
                Some(Atom::Cmp {
                    lhs: Term::var(*s, *k),
                    rel: Rel::Ne,
                    rhs: Term::constant(0),
                })
            }
            _ => None,
        }
    }

    /// One abstract step; returns true when the budget is exhausted and the
    /// caller should give up with `Top`.
    fn tick(&mut self) -> bool {
        self.steps += 1;
        if self.steps > self.config.step_budget {
            self.budget_exhausted = true;
        }
        self.budget_exhausted
    }

    fn size_of_ty(&self, ty: &Ctype) -> Option<u64> {
        layout::size_of(ty, self.ienv, &self.program.tags).ok()
    }

    // ----- program setup ---------------------------------------------------------

    fn alloc(
        &mut self,
        kind: StorageKind,
        ty: Option<Ctype>,
        size: Option<u64>,
        init: InitState,
        name: &str,
    ) -> AllocId {
        self.state.allocs.push(Rc::new(AllocInfo {
            kind,
            ty,
            size,
            life: Lifetime::Live,
            init,
            content: AbsValue::Top,
            last_store: None,
            name: name.to_owned(),
        }));
        self.state.allocs.len() - 1
    }

    fn setup_globals(&mut self) {
        let program: &'a CoreProgram = self.program;
        for (index, (name, bytes)) in program.string_literals.iter().enumerate() {
            let size = bytes.len() as u64;
            let ty = Ctype::Array(Box::new(Ctype::integer(IntegerType::Char)), Some(size));
            // Named by its place in the program, not by its fresh symbol, so
            // a finding's text does not depend on what else the process
            // elaborated first.
            let id = self.alloc(
                StorageKind::StringLit,
                Some(ty),
                Some(size),
                InitState::Init,
                &format!("<string literal {index}>"),
            );
            self.globals
                .insert(name.as_str(), AbsValue::Ptr(AbsPtr::to_target(id)));
        }
        for g in &program.globals {
            let size = self.size_of_ty(&g.ty);
            let id = self.alloc(
                StorageKind::Static,
                Some(g.ty.clone()),
                size,
                InitState::Uninit,
                g.name.as_str(),
            );
            self.globals
                .insert(g.name.as_str(), AbsValue::Ptr(AbsPtr::to_target(id)));
        }
        self.cur_proc = "<static init>";
        self.ret_stack.push(None);
        for g in &program.globals {
            let _ = self.eval_expr(&mut Env::default(), &g.init);
        }
        self.ret_stack.pop();
        // Objects with static storage duration are zero-initialised (6.7.9p10)
        // even without an explicit initialiser.
        for id in 0..self.state.allocs.len() {
            let a = &self.state.allocs[id];
            if a.kind == StorageKind::Static && a.init == InitState::Uninit {
                self.state.alloc_mut(id).init = InitState::Init;
            }
        }
    }

    fn analyze_proc(&mut self, name: &'a str) {
        let program: &'a CoreProgram = self.program;
        let Some(proc) = program.proc(name) else {
            return;
        };
        self.cur_proc = name;
        let mut env = Env::default();
        let mut param_ids = Vec::new();
        for (sym, ty) in &proc.params {
            let size = self.size_of_ty(ty);
            // Parameters hold the (unknown) incoming argument, so they are
            // initialised from the start.
            let id = self.alloc(
                StorageKind::Stack,
                Some(ty.clone()),
                size,
                InitState::Init,
                sym.as_str(),
            );
            env.insert(sym.as_str(), AbsValue::Ptr(AbsPtr::to_target(id)));
            param_ids.push(id);
        }
        self.ret_stack.push(None);
        let _ = self.eval_scope(&mut env, &proc.body, None, None, None);
        self.ret_stack.pop();
        for id in param_ids {
            self.state.alloc_mut(id).life = Lifetime::Dead;
        }
    }

    // ----- calls -----------------------------------------------------------------

    fn call_proc(&mut self, name: &str, args: Vec<AbsValue>) -> AbsValue {
        if let Some(flow) = self.call_builtin(name, &args) {
            return match flow {
                AFlow::Val(v) => v,
                _ => AbsValue::Top,
            };
        }
        let program: &'a CoreProgram = self.program;
        let Some((name, proc)) = program.procs.get_key_value(name) else {
            return AbsValue::Top;
        };
        if self.call_stack.len() >= self.config.call_depth
            || self.call_stack.contains(&name.as_str())
            || self.budget_exhausted
        {
            // Widened call: the callee may write anything it can reach.
            self.havoc_memory();
            return AbsValue::Top;
        }
        let saved_proc = self.cur_proc;
        let saved_jumps = std::mem::take(&mut self.jump_states);
        self.call_stack.push(name);
        self.cur_proc = name;
        let mut env = Env::default();
        let mut param_ids = Vec::new();
        for ((sym, ty), arg) in proc.params.iter().zip(args) {
            let size = self.size_of_ty(ty);
            let id = self.alloc(
                StorageKind::Stack,
                Some(ty.clone()),
                size,
                InitState::Init,
                sym.as_str(),
            );
            let a = self.state.alloc_mut(id);
            a.content = arg;
            a.last_store = Some(ty.clone());
            env.insert(sym.as_str(), AbsValue::Ptr(AbsPtr::to_target(id)));
            param_ids.push(id);
        }
        self.ret_stack.push(None);
        let flow = self.eval_scope(&mut env, &proc.body, None, None, None);
        let returned = self.ret_stack.pop().flatten();
        for id in param_ids {
            self.state.alloc_mut(id).life = Lifetime::Dead;
        }
        self.call_stack.pop();
        self.cur_proc = saved_proc;
        self.jump_states = saved_jumps;
        let fallthrough = match flow {
            AFlow::Val(v) => Some(v),
            _ => None,
        };
        match (returned, fallthrough) {
            (Some(r), Some(v)) => r.join(&v),
            (Some(r), None) => r,
            (None, Some(v)) => v,
            (None, None) => AbsValue::Top,
        }
    }

    /// The callee escaped analysis, or a store went through an untracked
    /// pointer: anything live may have been written.
    fn havoc_memory(&mut self) {
        for id in 0..self.state.allocs.len() {
            if self.state.allocs[id].life != Lifetime::Dead {
                let a = self.state.alloc_mut(id);
                a.content = AbsValue::Top;
                a.init = a.init.touched();
                a.last_store = None;
            }
        }
    }

    // ----- value coercions -------------------------------------------------------

    fn as_ptr(&self, v: &AbsValue) -> AbsPtr {
        match v {
            AbsValue::Ptr(p) => p.clone(),
            AbsValue::Spec(inner) => self.as_ptr(inner),
            AbsValue::Int { val, prov, .. } => {
                if let Some(p) = prov {
                    if *val == Some(0) {
                        AbsPtr::null_ptr()
                    } else {
                        // Arithmetic on the integer form is not tracked, so
                        // the byte offset into the carried allocation is
                        // unknown after the round trip.
                        AbsPtr {
                            from_int: true,
                            offset: None,
                            ..p.clone()
                        }
                    }
                } else {
                    match val {
                        Some(0) => AbsPtr::null_ptr(),
                        Some(_) => AbsPtr {
                            any: true,
                            from_int: true,
                            ..AbsPtr::default()
                        },
                        None => AbsPtr {
                            any: true,
                            from_int: true,
                            null: true,
                            ..AbsPtr::default()
                        },
                    }
                }
            }
            _ => AbsPtr::wild(),
        }
    }

    fn as_int(&self, v: &AbsValue) -> Option<i128> {
        match v {
            AbsValue::Int { val, .. } => *val,
            AbsValue::Spec(inner) => self.as_int(inner),
            AbsValue::Bool { val: Some(b), .. } => Some(i128::from(*b)),
            _ => None,
        }
    }

    fn as_bool(&self, v: &AbsValue) -> Option<bool> {
        match v {
            AbsValue::Bool { val, .. } => *val,
            AbsValue::Int { val, .. } => val.map(|i| i != 0),
            AbsValue::Spec(inner) => self.as_bool(inner),
            _ => None,
        }
    }

    fn as_ctype(&self, v: &AbsValue) -> Option<Ctype> {
        match v {
            AbsValue::Ctype(t) => Some(t.clone()),
            AbsValue::Spec(inner) => self.as_ctype(inner),
            _ => None,
        }
    }

    // ----- pure expressions ------------------------------------------------------

    fn eval_pexpr(&mut self, env: &mut Env<'a>, pe: &'a PExpr) -> AbsValue {
        if self.tick() {
            return AbsValue::Top;
        }
        match pe {
            PExpr::Sym(name) => env
                .get(name.as_str())
                .or_else(|| self.globals.get(name.as_str()))
                .cloned()
                .unwrap_or(AbsValue::Top),
            PExpr::Unit => AbsValue::Unit,
            PExpr::Integer(i) => AbsValue::int(*i),
            PExpr::CtypeConst(ty) => AbsValue::Ctype(ty.clone()),
            PExpr::FunctionPtr(f) => AbsValue::Ptr(AbsPtr::function(f)),
            PExpr::Undef(kind) => {
                self.finding(*kind, true, "reachable undefined-behaviour node in Core");
                AbsValue::Top
            }
            PExpr::Error(_) => AbsValue::Top,
            PExpr::Specified(inner) => {
                let v = self.eval_pexpr(env, inner);
                AbsValue::spec(v)
            }
            PExpr::Unspecified(ty) => AbsValue::Unspec(Some(ty.clone())),
            PExpr::Tuple(items) => {
                let vs = items.iter().map(|i| self.eval_pexpr(env, i)).collect();
                AbsValue::Tuple(vs)
            }
            PExpr::Binop(op, a, b) => {
                let va = self.eval_pexpr(env, a);
                let vb = self.eval_pexpr(env, b);
                self.eval_binop(*op, &va, &vb)
            }
            PExpr::If(c, t, f) => {
                let cond = self.eval_pexpr(env, c);
                match self.as_bool(&cond) {
                    Some(true) => self.eval_pexpr(env, t),
                    Some(false) => self.eval_pexpr(env, f),
                    None => {
                        let atom = self.cond_atom(&cond);
                        let negated = atom.as_ref().map(Atom::negate);
                        self.fork_pure(
                            env,
                            vec![(atom, Vec::new(), &**t), (negated, Vec::new(), &**f)],
                        )
                    }
                }
            }
            PExpr::Case(scrutinee, arms) => {
                let v = self.eval_pexpr(env, scrutinee);
                let (mut candidates, decided) = Self::select_arms(&v, arms);
                if decided {
                    let (_, bindings, body) = candidates.remove(0);
                    env.extend(bindings);
                    self.eval_pexpr(env, body)
                } else {
                    self.fork_pure(env, candidates)
                }
            }
            PExpr::Builtin(f, args) => {
                let vs: Vec<AbsValue> = args.iter().map(|a| self.eval_pexpr(env, a)).collect();
                self.eval_builtin(*f, &vs)
            }
            PExpr::ArrayShift {
                ptr,
                elem_ty,
                index,
            } => {
                let pv = self.eval_pexpr(env, ptr);
                let iv = self.eval_pexpr(env, index);
                self.array_shift(&pv, elem_ty, self.as_int(&iv))
            }
            PExpr::MemberShift { ptr, tag, member } => {
                let pv = self.eval_pexpr(env, ptr);
                let p = self.as_ptr(&pv);
                let delta = layout::offset_of(*tag, member.as_str(), self.ienv, &self.program.tags)
                    .ok()
                    .map(i128::from);
                if let Some(id) = p.single() {
                    // Shifting into a struct the object does not have is the
                    // common-prefix / wrong-tag access idiom the strict models
                    // reject under effective-type rules.
                    match &self.state.allocs[id].ty {
                        Some(Ctype::Struct(t2)) | Some(Ctype::Union(t2)) if t2 != tag => {
                            let name = self.state.allocs[id].name.clone();
                            self.finding(
                                UbKind::EffectiveTypeViolation,
                                false,
                                format!(
                                    "member access at a struct/union type `{name}` does not have"
                                ),
                            );
                        }
                        _ => {}
                    }
                }
                let offset = match (p.offset, delta) {
                    (Some(o), Some(d)) => Some(o + d),
                    _ => None,
                };
                AbsValue::Ptr(p.with_offset(offset))
            }
        }
    }

    fn array_shift(&mut self, pv: &AbsValue, elem_ty: &Ctype, index: Option<i128>) -> AbsValue {
        let p = self.as_ptr(pv);
        let elem_size = self.size_of_ty(elem_ty).map(i128::from);
        let new_offset = match (p.offset, index, elem_size) {
            (Some(o), Some(i), Some(s)) => Some(o + i * s),
            _ => None,
        };
        if let Some(id) = p.single() {
            let a = Rc::clone(&self.state.allocs[id]);
            let name = &a.name;
            match (new_offset, a.size) {
                (Some(off), Some(size)) => {
                    // One-past (off == size) is allowed by 6.5.6p8.
                    if off < 0 || off > i128::from(size) {
                        self.finding(
                            UbKind::OutOfBoundsPointerArithmetic,
                            true,
                            format!("shift to byte {off} of `{name}` ({size} bytes)"),
                        );
                    }
                }
                _ => {
                    self.finding(
                        UbKind::OutOfBoundsPointerArithmetic,
                        false,
                        format!("pointer arithmetic on `{name}` the analyzer cannot bound"),
                    );
                }
            }
        } else if p.any || p.targets.len() > 1 {
            self.finding(
                UbKind::OutOfBoundsPointerArithmetic,
                false,
                "pointer arithmetic on a pointer with imprecise provenance",
            );
        }
        AbsValue::Ptr(p.with_offset(new_offset))
    }

    fn eval_binop(&mut self, op: Binop, a: &AbsValue, b: &AbsValue) -> AbsValue {
        use Binop::*;
        let prov_of = |v: &AbsValue| match v {
            AbsValue::Int { prov, .. } => prov.clone(),
            _ => None,
        };
        match op {
            Eq | Ne | Lt | Le | Gt | Ge => {
                let (ia, ib) = (self.as_int(a), self.as_int(b));
                let val = match (ia, ib) {
                    (Some(x), Some(y)) => Some(match op {
                        Eq => x == y,
                        Ne => x != y,
                        Lt => x < y,
                        Le => x <= y,
                        Gt => x > y,
                        _ => x >= y,
                    }),
                    _ => None,
                };
                if val.is_some() {
                    return AbsValue::bool_known(val);
                }
                let rel = match op {
                    Eq => Rel::Eq,
                    Ne => Rel::Ne,
                    Lt => Rel::Lt,
                    Le => Rel::Le,
                    Gt => Rel::Gt,
                    _ => Rel::Ge,
                };
                let atom = match (self.term_of(a), self.term_of(b)) {
                    (Some(lhs), Some(rhs)) => Some(self.comparison_atom(lhs, rel, rhs)),
                    _ => None,
                };
                AbsValue::bool_atom(atom)
            }
            Add | Sub | Mul | Div | RemT | Exp | BitAnd | BitOr | BitXor => {
                let (ia, ib) = (self.as_int(a), self.as_int(b));
                let val = match (ia, ib) {
                    (Some(x), Some(y)) => match op {
                        Add => x.checked_add(y),
                        Sub => x.checked_sub(y),
                        Mul => x.checked_mul(y),
                        Div => x.checked_div(y),
                        RemT => x.checked_rem(y),
                        Exp => u32::try_from(y).ok().and_then(|e| x.checked_pow(e)),
                        BitAnd => Some(x & y),
                        BitOr => Some(x | y),
                        _ => Some(x ^ y),
                    },
                    _ => None,
                };
                // Linear symbolic form survives add/sub with a constant, and
                // subtracting two offsets of the same variable is constant.
                let sym = if val.is_some() {
                    None
                } else {
                    match (op, self.term_of(a), self.term_of(b)) {
                        (Add, Some(x), Some(y)) => match (x.var, y.var) {
                            (Some(s), None) => Some((s, x.k + y.k)),
                            (None, Some(s)) => Some((s, x.k + y.k)),
                            _ => None,
                        },
                        (Sub, Some(x), Some(y)) => match (x.var, y.var) {
                            (Some(s), None) => Some((s, x.k - y.k)),
                            _ => None,
                        },
                        _ => None,
                    }
                };
                let val = match (op, val, self.term_of(a), self.term_of(b)) {
                    // x - x + (k1 - k2): same variable cancels.
                    (Sub, None, Some(x), Some(y)) if x.var.is_some() && x.var == y.var => {
                        Some(x.k - y.k)
                    }
                    (_, v, _, _) => v,
                };
                // Provenance survives add/sub with a pure integer (the
                // de-facto int-to-pointer round trips); other operators (the
                // XOR-linked-list trick) lose it.
                let prov = match (op, prov_of(a), prov_of(b)) {
                    (Add | Sub, Some(p), None) | (Add, None, Some(p)) => Some(p),
                    _ => None,
                };
                AbsValue::Int { val, sym, prov }
            }
        }
    }

    /// Build a comparison atom; a test of a linked boolean symbol against
    /// 0/1 resolves to the pointer atom it stands for.
    fn comparison_atom(&self, lhs: Term, rel: Rel, rhs: Term) -> Atom {
        let linked = |t: &Term, other: &Term| -> Option<(Atom, bool)> {
            let s = t.var?;
            if t.k != 0 || other.var.is_some() {
                return None;
            }
            let a = self.linked_syms.get(&s.0)?;
            // s is 0/1-valued: s == 1 and s != 0 assert the atom, s == 0 and
            // s != 1 refute it.
            match (rel, other.k) {
                (Rel::Eq, 1) | (Rel::Ne, 0) => Some((a.clone(), true)),
                (Rel::Eq, 0) | (Rel::Ne, 1) => Some((a.clone(), false)),
                _ => None,
            }
        };
        if let Some((a, positive)) = linked(&lhs, &rhs).or_else(|| linked(&rhs, &lhs)) {
            return if positive { a } else { a.negate() };
        }
        Atom::Cmp { lhs, rel, rhs }
    }

    fn eval_builtin(&mut self, f: BuiltinFn, args: &[AbsValue]) -> AbsValue {
        let ctype = args.first().and_then(|v| self.as_ctype(v));
        let int_ty = ctype.as_ref().and_then(|t| match t {
            Ctype::Integer(it) => Some(*it),
            _ => None,
        });
        match f {
            BuiltinFn::ConvInt => {
                let v = args.get(1).cloned().unwrap_or(AbsValue::Top);
                let prov = match &v {
                    AbsValue::Int { prov, .. } => prov.clone(),
                    _ => None,
                };
                let val = match (self.as_int(&v), int_ty) {
                    (Some(x), Some(it)) => Some(self.ienv.convert_int(x, it)),
                    _ => None,
                };
                // The symbolic handle survives the conversion. This assumes
                // the unknown value is representable in the target type (no
                // wrap-around); the elaboration guards lossy conversions
                // with IsRepresentable checks, which fork separately, so in
                // practice constraints only relate in-range values.
                let sym = if val.is_some() {
                    None
                } else {
                    match &v {
                        AbsValue::Int { sym, .. } => *sym,
                        _ => None,
                    }
                };
                AbsValue::Int { val, sym, prov }
            }
            BuiltinFn::IsRepresentable => {
                let v = args.get(1).map(|v| self.as_int(v)).unwrap_or(None);
                let val = match (v, int_ty) {
                    (Some(x), Some(it)) => Some(self.ienv.representable(x, it)),
                    _ => None,
                };
                if val.is_none() {
                    // The guard around a lossy conversion: branching on it
                    // constrains the symbolic value to (or out of) the
                    // target type's range — the signed-overflow witness.
                    let term = args.get(1).and_then(|v| self.term_of(v));
                    if let (Some(term), Some(it)) = (term, int_ty) {
                        return AbsValue::bool_atom(Some(Atom::InRange {
                            term,
                            lo: self.ienv.int_min(it),
                            hi: self.ienv.int_max(it),
                            positive: true,
                        }));
                    }
                }
                AbsValue::bool_known(val)
            }
            BuiltinFn::CtypeWidth => match int_ty {
                Some(it) => AbsValue::int(i128::from(self.ienv.integer_width(it))),
                None => AbsValue::unknown_int(),
            },
            BuiltinFn::AlignOf => match ctype
                .as_ref()
                .and_then(|t| layout::align_of(t, self.ienv, &self.program.tags).ok())
            {
                Some(a) => AbsValue::int(i128::from(a)),
                None => AbsValue::unknown_int(),
            },
        }
    }

    // ----- pattern matching ------------------------------------------------------

    fn bind(env: &mut Env<'a>, pat: &'a Pattern, v: AbsValue) {
        match pat {
            Pattern::Wildcard => {}
            Pattern::Sym(name) => env.insert(name.as_str(), v),
            Pattern::Tuple(ps) => match v {
                AbsValue::Tuple(vs) if vs.len() == ps.len() => {
                    for (p, item) in ps.iter().zip(vs) {
                        Self::bind(env, p, item);
                    }
                }
                other if ps.len() == 1 => Self::bind(env, &ps[0], other),
                _ => {
                    for p in ps {
                        Self::bind(env, p, AbsValue::Top);
                    }
                }
            },
            Pattern::Specified(p) => match v {
                AbsValue::Spec(inner) => Self::bind(env, p, *inner),
                other => Self::bind(env, p, other),
            },
        }
    }

    fn match_quality(pat: &'a Pattern, v: &AbsValue) -> MatchQ<'a> {
        match (pat, v) {
            (Pattern::Wildcard, _) => MatchQ::Yes(Vec::new()),
            (Pattern::Sym(name), _) => MatchQ::Yes(vec![(name.as_str(), v.clone())]),
            (Pattern::Tuple(ps), AbsValue::Tuple(vs)) if ps.len() == vs.len() => {
                let mut bindings = Vec::new();
                let mut certain = true;
                for (p, item) in ps.iter().zip(vs) {
                    match Self::match_quality(p, item) {
                        MatchQ::Yes(mut bs) => bindings.append(&mut bs),
                        MatchQ::Maybe(mut bs) => {
                            certain = false;
                            bindings.append(&mut bs);
                        }
                        MatchQ::No => return MatchQ::No,
                    }
                }
                if certain {
                    MatchQ::Yes(bindings)
                } else {
                    MatchQ::Maybe(bindings)
                }
            }
            (Pattern::Tuple(ps), other) if ps.len() == 1 => Self::match_quality(&ps[0], other),
            (Pattern::Tuple(ps), _) => MatchQ::Maybe(Self::bind_all_top(ps)),
            (Pattern::Specified(p), AbsValue::Spec(inner)) => Self::match_quality(p, inner),
            (Pattern::Specified(_), AbsValue::Unspec(_)) => MatchQ::No,
            (Pattern::Specified(p), _) => match Self::match_quality(p, &AbsValue::Top) {
                MatchQ::Yes(bs) | MatchQ::Maybe(bs) => MatchQ::Maybe(bs),
                MatchQ::No => MatchQ::No,
            },
        }
    }

    fn bind_all_top(ps: &'a [Pattern]) -> Bindings<'a> {
        let mut out = Vec::new();
        for p in ps {
            match p {
                Pattern::Sym(name) => out.push((name.as_str(), AbsValue::Top)),
                Pattern::Tuple(inner) => out.append(&mut Self::bind_all_top(inner)),
                Pattern::Specified(inner) => {
                    out.append(&mut Self::bind_all_top(std::slice::from_ref(inner)))
                }
                Pattern::Wildcard => {}
            }
        }
        out
    }

    /// The arms of a `case` that can match `v`: every arm that may match, up
    /// to and including the first that must. The flag is set when that
    /// certain match is the only candidate, so the `case` is decided.
    fn select_arms<E>(v: &AbsValue, arms: &'a [(Pattern, E)]) -> (Vec<Arm<'a, E>>, bool) {
        let mut out = Vec::new();
        for (pat, body) in arms {
            match Self::match_quality(pat, v) {
                MatchQ::Yes(bs) => {
                    let decided = out.is_empty();
                    out.push((None, bs, body));
                    return (out, decided);
                }
                MatchQ::Maybe(bs) => out.push((None, bs, body)),
                MatchQ::No => {}
            }
        }
        (out, false)
    }

    // ----- effectful expressions -------------------------------------------------

    /// Evaluate an effectful Core expression. The last operand of a sequence,
    /// a `let`, a decided `if` and a decided `case` is a tail position: the
    /// walk continues there in a loop, one tick per step as a recursive call
    /// would take, so a block's statements cost no host stack.
    fn eval_expr(&mut self, env: &mut Env<'a>, e: &'a Expr) -> AFlow<'a> {
        let mut e = e;
        loop {
            if self.tick() {
                return AFlow::Val(AbsValue::Top);
            }
            e = match e {
                Expr::Pure(pe) => return AFlow::Val(self.eval_pexpr(env, pe)),
                Expr::Memop(op, args) => return self.eval_memop(env, *op, args),
                Expr::Action(pol, action) => {
                    return self.eval_action(env, action, *pol == Polarity::Negative)
                }
                Expr::Skip => return AFlow::Val(AbsValue::Unit),
                Expr::Let(pat, value, body) => {
                    let v = self.eval_pexpr(env, value);
                    Self::bind(env, pat, v);
                    body
                }
                Expr::If(c, t, f) => {
                    let cond = self.eval_pexpr(env, c);
                    match self.as_bool(&cond) {
                        Some(true) => t,
                        Some(false) => f,
                        None => {
                            let atom = self.cond_atom(&cond);
                            let negated = atom.as_ref().map(Atom::negate);
                            return self.fork_expr(
                                env,
                                vec![(atom, Vec::new(), &**t), (negated, Vec::new(), &**f)],
                            );
                        }
                    }
                }
                Expr::Case(scrutinee, arms) => {
                    let v = self.eval_pexpr(env, scrutinee);
                    let (mut candidates, decided) = Self::select_arms(&v, arms);
                    if !decided {
                        return self.fork_expr(env, candidates);
                    }
                    let (_, bindings, body) = candidates.remove(0);
                    env.extend(bindings);
                    body
                }
                Expr::Ccall(f, args) => {
                    let fv = self.eval_pexpr(env, f);
                    let vs: Vec<AbsValue> = args.iter().map(|a| self.eval_pexpr(env, a)).collect();
                    // The elaborator wraps function designators as
                    // `Specified(cfunction(f))`; `as_ptr` sees through the
                    // wrapper and the env binding.
                    let name = self.as_ptr(&fv).func;
                    return match name {
                        Some(name) => AFlow::Val(self.call_proc(&name, vs)),
                        None => {
                            self.havoc_memory();
                            AFlow::Val(AbsValue::Top)
                        }
                    };
                }
                Expr::Unseq(items) => {
                    let mut frames = Vec::new();
                    let mut values = Vec::new();
                    for item in items {
                        self.fp_stack.push(Vec::new());
                        let flow = self.eval_expr(env, item);
                        let frame = self.fp_stack.pop().unwrap_or_default();
                        frames.push(frame);
                        match flow {
                            AFlow::Val(v) => values.push(v),
                            other => {
                                self.merge_frames(frames);
                                return other;
                            }
                        }
                    }
                    for i in 0..frames.len() {
                        for j in (i + 1)..frames.len() {
                            self.check_race(&frames[i], &frames[j], false);
                        }
                    }
                    self.merge_frames(frames);
                    return AFlow::Val(AbsValue::Tuple(values));
                }
                Expr::Wseq(pat, a, b) => {
                    self.fp_stack.push(Vec::new());
                    let fa = self.eval_expr(env, a);
                    let fp_a = self.fp_stack.pop().unwrap_or_default();
                    let AFlow::Val(v) = fa else {
                        self.merge_frames(vec![fp_a]);
                        return fa;
                    };
                    Self::bind(env, pat, v);
                    self.fp_stack.push(Vec::new());
                    let fb = self.eval_expr(env, b);
                    let fp_b = self.fp_stack.pop().unwrap_or_default();
                    // Weak sequencing leaves only the negative actions of
                    // the first operand unsequenced w.r.t. the second.
                    self.check_race(&fp_a, &fp_b, true);
                    self.merge_frames(vec![fp_a, fp_b]);
                    return fb;
                }
                Expr::Sseq(pat, a, b) => {
                    let flow = self.eval_expr(env, a);
                    let AFlow::Val(v) = flow else { return flow };
                    Self::bind(env, pat, v);
                    b
                }
                Expr::Indet(body) => {
                    // Accesses inside an indeterminately-sequenced region are not
                    // candidates for the enclosing race checks.
                    let saved = std::mem::take(&mut self.fp_stack);
                    let flow = self.eval_expr(env, body);
                    self.fp_stack = saved;
                    return flow;
                }
                Expr::Save(l, body) => return self.eval_scope(env, body, Some(l), None, None),
                Expr::Exit(l, body) => return self.eval_scope(env, body, None, Some(l), None),
                Expr::Run(label) => {
                    match self.jump_states.get_mut(label) {
                        Some(existing) => existing.join_from(&self.state),
                        None => {
                            self.jump_states.insert(label, self.state.clone());
                        }
                    }
                    return AFlow::Jump(label);
                }
                Expr::Return(pe) => {
                    let v = self.eval_pexpr(env, pe);
                    if let Some(slot) = self.ret_stack.last_mut() {
                        *slot = Some(match slot.take() {
                            Some(prev) => prev.join(&v),
                            None => v,
                        });
                    }
                    return AFlow::Ret;
                }
            };
        }
    }

    // ----- undecided branches ----------------------------------------------------

    /// The one routine for an undecided `if` or `case`: run each arm through
    /// `run`, which binds the arm's names and evaluates its body, and return
    /// the results of the arms that survive, in order. In path mode an arm
    /// first pushes its constraint, if it has one, and is pruned when the
    /// solver refutes the path; each surviving arm runs in its own finding
    /// frame, and the frames merge afterwards, so a finding stays definite
    /// only if every surviving arm fired it definitely (one survivor keeps
    /// its definiteness: the `May` → `Must` flip). The flow baseline ignores
    /// the constraints and runs every arm with definiteness dropped.
    fn fork<E, R>(
        &mut self,
        arms: Vec<Arm<'a, E>>,
        mut run: impl FnMut(&mut Self, Bindings<'a>, &'a E) -> R,
    ) -> Vec<R> {
        let path_mode = self.path_mode();
        let saved_definite = self.definite;
        if !path_mode {
            self.definite = false;
        }
        let mut results = Vec::new();
        let mut frames = Vec::new();
        for (atom, bindings, body) in arms {
            let depth = self.path.len();
            if path_mode {
                if let Some(atom) = atom {
                    self.path.push(atom);
                    if !self.path_feasible() {
                        self.path.truncate(depth);
                        self.paths_pruned += 1;
                        continue;
                    }
                }
                self.paths_explored += 1;
                self.finding_frames.push(Frame::new());
            }
            results.push(run(self, bindings, body));
            if path_mode {
                frames.push(self.finding_frames.pop().expect("fork frame"));
                self.path.truncate(depth);
            }
        }
        if path_mode {
            self.merge_sibling_findings(frames);
        } else {
            self.definite = saved_definite;
        }
        results
    }

    /// Fork over pure arms. They have no memory effects, and every name a
    /// `case` pattern binds is fresh, so each arm binds in place, as `let`
    /// does; the arms' values are joined.
    fn fork_pure(&mut self, env: &mut Env<'a>, arms: Vec<Arm<'a, PExpr>>) -> AbsValue {
        let values = self.fork(arms, |it, bindings, body| {
            env.extend(bindings);
            it.eval_pexpr(env, body)
        });
        values
            .into_iter()
            .reduce(|joined, v| joined.join(&v))
            .unwrap_or(AbsValue::Top)
    }

    /// Fork over effectful arms. Each arm starts from the state before the
    /// fork, whose records it shares until it writes them, and runs on `env`
    /// with its bindings undone when it ends: a prefix that a forward `goto`
    /// skips must read `Top`, not a sibling's binding. The surviving
    /// outcomes are joined; when no arm survives, the branch is unreachable
    /// under the current path, and the state is the one before the fork.
    fn fork_expr(&mut self, env: &mut Env<'a>, arms: Vec<Arm<'a, Expr>>) -> AFlow<'a> {
        let saved = std::mem::take(&mut self.state);
        let results = self.fork(arms, |it, bindings, body| {
            it.state = saved.clone();
            let flow = env.in_arm(|env| {
                env.extend(bindings);
                it.eval_expr(env, body)
            });
            (flow, std::mem::take(&mut it.state))
        });
        if results.is_empty() {
            self.state = saved;
            return AFlow::Val(AbsValue::Top);
        }
        self.join_results(results)
    }

    /// Join branch outcomes: the post-state is the join of the states of the
    /// branches that fall through (jumping branches parked their state in
    /// `jump_states`; returning branches accumulated into `ret_stack`). When
    /// none falls through, it joins them all, and a jump, if there is one,
    /// propagates (its state is registered at the run site).
    fn join_results(&mut self, results: Vec<(AFlow<'a>, State)>) -> AFlow<'a> {
        let falls_through = results
            .iter()
            .any(|(flow, _)| matches!(flow, AFlow::Val(_)));
        let mut value: Option<AbsValue> = None;
        let mut jump = None;
        let mut joined: Option<State> = None;
        for (flow, state) in results {
            let joins = !falls_through || matches!(flow, AFlow::Val(_));
            match flow {
                AFlow::Val(v) => {
                    value = Some(match value {
                        Some(j) => j.join(&v),
                        None => v,
                    })
                }
                AFlow::Jump(l) => jump = jump.or(Some(l)),
                AFlow::Ret => {}
            }
            if joins {
                match &mut joined {
                    Some(s) => s.join_from(&state),
                    None => joined = Some(state),
                }
            }
        }
        if let Some(s) = joined {
            self.state = s;
        }
        if falls_through {
            return AFlow::Val(value.unwrap_or(AbsValue::Top));
        }
        jump.map_or(AFlow::Ret, AFlow::Jump)
    }

    /// Run the body of a scope, the only place a jump lands: a `save`'s body,
    /// which a jump to `restart` runs again; an `exit`'s, which a jump to
    /// `finish` ends; or a procedure's. The first pass seeks `seek`, if any.
    /// A jump to another label the body holds re-enters the body seeking it,
    /// and so, before the scope ends, does each state parked for such a label
    /// by a branch arm whose sibling went on; what the pass before left the
    /// scope with joins the result. A state parked for `restart` joins each
    /// pass from the top, one parked for `finish` the scope's end.
    ///
    /// A restart is a loop pass, and so is a re-entry for a label re-entered
    /// before (a backward `goto`); the first is free (a forward `goto`,
    /// `switch` dispatch). Passes, parked re-entries and `finish` joins drop
    /// definiteness. After [`AnalysisConfig::loop_bound`] passes the scope
    /// widens and ends, but a label's loop, whose exit may lie in this body
    /// after its jump back, first takes one last pass.
    fn eval_scope(
        &mut self,
        env: &mut Env<'a>,
        body: &'a Expr,
        restart: Option<&'a Ident>,
        finish: Option<&'a Ident>,
        mut seek: Option<&'a Ident>,
    ) -> AFlow<'a> {
        let holds = |l: &Ident| finish != Some(l) && body.contains_save(l);
        let mut reentered: Vec<&Ident> = Vec::new();
        let mut passes = 0;
        // What passes left the scope with before a parked state re-entered it.
        let mut left: Vec<(AFlow, State)> = Vec::new();
        let mut flow = 'scope: loop {
            if let (Some(l), None) = (restart, seek) {
                if let Some(js) = self.jump_states.remove(l) {
                    self.state.join_from(&js);
                }
            }
            let mut flow = match seek {
                Some(label) => self.eval_seeking(env, body, label),
                None => self.eval_expr(env, body),
            };
            // The label the next pass starts from, and whether it seeks it.
            let (label, seeking) = loop {
                let pending = restart.filter(|l| self.jump_states.contains_key(l));
                let (label, seeking) = match (&flow, pending) {
                    (AFlow::Jump(l), _) if restart == Some(l) => (*l, false),
                    (AFlow::Jump(l), _) if holds(l) => (*l, true),
                    (_, Some(l)) => (l, false),
                    (_, None) => {
                        let parked = self.jump_states.keys().copied().filter(|l| holds(l)).min();
                        let Some(l) = parked else { break 'scope flow };
                        let js = self.jump_states.remove(l).expect("found above");
                        let state = std::mem::replace(&mut self.state, js);
                        left.push((std::mem::replace(&mut flow, AFlow::Jump(l)), state));
                        self.definite = false;
                        (l, true)
                    }
                };
                if seeking && !reentered.contains(&label) {
                    reentered.push(label);
                    break (label, seeking);
                }
                passes += 1;
                self.definite = false;
                if passes < self.config.loop_bound && !self.budget_exhausted {
                    break (label, seeking);
                }
                self.jump_states.remove(label);
                self.widen_after_loop();
                if seeking && passes == self.config.loop_bound && !self.budget_exhausted {
                    break (label, seeking);
                }
                // The loop ends: a jump to its label goes no further.
                if matches!(flow, AFlow::Jump(l) if l == label) {
                    flow = AFlow::Val(AbsValue::Top);
                }
            };
            seek = seeking.then_some(label);
        };
        if !left.is_empty() {
            left.push((flow, std::mem::take(&mut self.state)));
            flow = self.join_results(left);
        }
        // Some path broke out to this delimiter; its state joins whatever
        // the body ended with.
        let Some(js) = finish.and_then(|l| self.jump_states.remove(l)) else {
            return match flow {
                AFlow::Jump(l) if finish == Some(l) => AFlow::Val(AbsValue::Unit),
                other => other,
            };
        };
        self.state.join_from(&js);
        self.definite = false;
        match flow {
            AFlow::Val(v) => AFlow::Val(v.join(&AbsValue::Unit)),
            _ => AFlow::Val(AbsValue::Unit),
        }
    }

    /// The loop bound was hit: further iterations could have written anything
    /// the loop body writes, so give up on value precision.
    fn widen_after_loop(&mut self) {
        for id in 0..self.state.allocs.len() {
            if self.state.allocs[id].life != Lifetime::Dead {
                let a = self.state.alloc_mut(id);
                a.content = AbsValue::Top;
                a.init = a.init.touched();
            }
        }
    }

    /// Skip forward through `e`, which holds the `save` for `label`, to that
    /// `save` (a scope re-entering its body: `goto`, `switch` dispatch),
    /// mirroring the concrete interpreter's seeking mode. Bindings on the
    /// skipped prefix stay unbound and read back as `Top`.
    fn eval_seeking(&mut self, env: &mut Env<'a>, e: &'a Expr, label: &'a Ident) -> AFlow<'a> {
        let mut e = e;
        loop {
            if self.tick() {
                return AFlow::Val(AbsValue::Top);
            }
            e = match e {
                Expr::Save(l, body) => {
                    return self.eval_scope(env, body, Some(l), None, (l != label).then_some(label))
                }
                Expr::Exit(l, body) => {
                    return self.eval_scope(env, body, None, Some(l), Some(label))
                }
                Expr::Sseq(pat, a, b) | Expr::Wseq(pat, a, b) if a.contains_save(label) => {
                    let flow = self.eval_seeking(env, a, label);
                    let AFlow::Val(v) = flow else { return flow };
                    Self::bind(env, pat, v);
                    return self.eval_expr(env, b);
                }
                Expr::If(_, t, _) if t.contains_save(label) => t,
                Expr::Sseq(_, _, b)
                | Expr::Wseq(_, _, b)
                | Expr::Let(_, _, b)
                | Expr::Indet(b)
                | Expr::If(_, _, b) => b,
                Expr::Case(_, arms) => match arms.iter().find(|(_, a)| a.contains_save(label)) {
                    Some((_, arm)) => arm,
                    None => return AFlow::Val(AbsValue::Top),
                },
                Expr::Unseq(items) => match items.iter().find(|item| item.contains_save(label)) {
                    Some(item) => item,
                    None => return AFlow::Val(AbsValue::Top),
                },
                _ => return AFlow::Val(AbsValue::Top),
            };
        }
    }

    // ----- memory actions --------------------------------------------------------

    fn eval_action(
        &mut self,
        env: &mut Env<'a>,
        action: &'a MemAction,
        negative: bool,
    ) -> AFlow<'a> {
        match action {
            MemAction::Create { ty, .. } => {
                let tv = self.eval_pexpr(env, ty);
                let cty = self.as_ctype(&tv);
                let size = cty.as_ref().and_then(|t| self.size_of_ty(t));
                let id = self.alloc(StorageKind::Stack, cty, size, InitState::Uninit, "<auto>");
                AFlow::Val(AbsValue::Ptr(AbsPtr::to_target(id)))
            }
            MemAction::Kill(ptr) => {
                let pv = self.eval_pexpr(env, ptr);
                let p = self.as_ptr(&pv);
                // End-of-block kills are lenient in the concrete interpreter;
                // abstractly they just end the lifetime.
                if let Some(id) = p.single() {
                    self.state.alloc_mut(id).life = Lifetime::Dead;
                } else {
                    for &id in &p.targets {
                        let a = self.state.alloc_mut(id);
                        a.life = a.life.join(Lifetime::Dead);
                    }
                }
                AFlow::Val(AbsValue::Unit)
            }
            MemAction::Store { ty, ptr, value, .. } => {
                let tv = self.eval_pexpr(env, ty);
                let pv = self.eval_pexpr(env, ptr);
                let v = self.eval_pexpr(env, value);
                let p = self.as_ptr(&pv);
                let cty = self.as_ctype(&tv);
                self.deref_check(&p, cty.as_ref(), true);
                self.apply_store(&p, cty.as_ref(), v);
                self.record_access(&p, true, negative);
                AFlow::Val(AbsValue::Unit)
            }
            MemAction::Load { ty, ptr, .. } => {
                let tv = self.eval_pexpr(env, ty);
                let pv = self.eval_pexpr(env, ptr);
                let p = self.as_ptr(&pv);
                let cty = self.as_ctype(&tv);
                self.deref_check(&p, cty.as_ref(), false);
                self.record_access(&p, false, negative);
                AFlow::Val(self.apply_load(&p, cty.as_ref()))
            }
        }
    }

    /// The checks every model performs before honouring an access.
    fn deref_check(&mut self, p: &AbsPtr, ty: Option<&Ctype>, write: bool) {
        let what = if write { "store" } else { "load" };
        if p.definitely_null() {
            self.finding(
                UbKind::NullPointerDeref,
                true,
                format!("{what} through a pointer that is definitely null"),
            );
            return;
        }
        if p.null {
            self.finding(
                UbKind::NullPointerDeref,
                false,
                format!("{what} through a possibly-null pointer"),
            );
        }
        if p.any {
            self.finding(
                UbKind::AccessWithoutProvenance,
                false,
                format!("{what} through a pointer with no tracked provenance"),
            );
            self.finding(
                UbKind::OutOfBoundsAccess,
                false,
                format!("{what} through a pointer the analyzer cannot bound"),
            );
            if p.from_int && p.targets.is_empty() {
                self.finding(
                    UbKind::InvalidLvalue,
                    false,
                    format!("{what} through a pointer forged from an arbitrary integer"),
                );
            }
        }
        if p.from_int && !p.targets.is_empty() {
            // The pointer went through an integer round trip. The models
            // that do not track provenance across integers report the
            // access as provenance-free even when the address is right.
            let subject = p
                .targets
                .iter()
                .next()
                .map(|&id| self.state.allocs[id].name.clone())
                .unwrap_or_else(|| "?".to_owned());
            self.finding_with(
                UbKind::AccessWithoutProvenance,
                false,
                format!("{what} through a pointer reconstructed from an integer"),
                vec![Atom::Pred {
                    name: format!("from_int(&{subject})"),
                    positive: true,
                }],
            );
        }
        let is_single = p.single().is_some();
        let access_size = ty.and_then(|t| self.size_of_ty(t));
        for &id in &p.targets {
            let a = Rc::clone(&self.state.allocs[id]);
            let name = &a.name;
            match a.life {
                Lifetime::Dead => self.finding(
                    UbKind::AccessOutsideLifetime,
                    is_single,
                    format!("{what} to `{name}` after its lifetime ended"),
                ),
                Lifetime::MaybeDead => self.finding_with(
                    UbKind::AccessOutsideLifetime,
                    false,
                    format!("{what} to `{name}` whose lifetime may have ended"),
                    vec![Atom::Pred {
                        name: format!("live({name})"),
                        positive: false,
                    }],
                ),
                Lifetime::Live => {}
            }
            if a.life != Lifetime::Live {
                // Models that recycle a dead region classify the same access
                // as out of bounds rather than outside-lifetime.
                self.finding(
                    UbKind::OutOfBoundsAccess,
                    false,
                    format!("{what} to the possibly-recycled region of `{name}`"),
                );
            }
            if write && a.kind == StorageKind::StringLit {
                self.finding(
                    UbKind::StringLiteralModification,
                    is_single,
                    format!("store into the string literal object `{name}`"),
                );
            }
            let offset = if is_single { p.offset } else { None };
            match (offset, a.size, access_size) {
                (Some(off), Some(size), Some(len)) => {
                    if off < 0 || off + i128::from(len) > i128::from(size) {
                        self.finding(
                            UbKind::OutOfBoundsAccess,
                            is_single,
                            format!(
                                "{what} of {len} bytes at byte {off} of `{name}` ({size} bytes)"
                            ),
                        );
                    }
                }
                _ => {
                    // The access cannot be proven in-bounds; a may-analysis
                    // must keep the possibility open.
                    self.finding(
                        UbKind::OutOfBoundsAccess,
                        false,
                        format!("{what} to `{name}` at an offset the analyzer cannot bound"),
                    );
                }
            }
            // Effective-type rules. A character-typed access inspects the
            // object representation and is always permitted (6.5p7);
            // anything else is checked against the declared type and the
            // last store. Both loads *and* stores are checked — the
            // strictest models flag a wrongly-typed store as the violation
            // itself, not just the later read.
            if let Some(t) = ty {
                if !t.is_character() {
                    let decl_mismatch = match &a.ty {
                        None => false,
                        Some(decl) if decl == t => false,
                        // The strict effective-type models treat any
                        // member-typed access to an aggregate object as an
                        // access at the wrong type: the object's effective
                        // type is the aggregate itself.
                        Some(Ctype::Struct(_) | Ctype::Union(_)) => true,
                        Some(decl) => !Self::decl_compatible(decl, t),
                    };
                    if decl_mismatch {
                        self.finding(
                            UbKind::EffectiveTypeViolation,
                            false,
                            format!(
                                "{what} at a type incompatible with the effective type of `{name}`"
                            ),
                        );
                    }
                    if let Some(stored) = &a.last_store {
                        if !self.repr_compatible(stored, t) {
                            self.finding(
                                UbKind::EffectiveTypeViolation,
                                false,
                                format!(
                                    "{what} at a type incompatible with the last store to `{name}`"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Whether an access at `access` is plausibly compatible with an object
    /// declared at `decl` (loose: any member/element of an aggregate counts).
    fn decl_compatible(decl: &Ctype, access: &Ctype) -> bool {
        if decl == access || access.is_character() {
            return true;
        }
        if decl.is_character() {
            // A char object gives a wider access no effective-type cover in
            // this direction: reading an int out of a char array is the
            // textbook 6.5p6 violation.
            return false;
        }
        match decl {
            Ctype::Integer(_) => access.is_integer(),
            Ctype::Pointer(..) => matches!(access, Ctype::Pointer(..)),
            Ctype::Array(elem, _) => Self::decl_compatible(elem, access),
            Ctype::Struct(_) | Ctype::Union(_) => {
                // Without chasing the member at the concrete byte offset,
                // accept any access; union punning is caught by the
                // last-store check instead.
                true
            }
            _ => true,
        }
    }

    /// Whether loading at `access` after a store at `stored` reuses the same
    /// representation (the effective-type read rule, 6.5p6/p7).
    fn repr_compatible(&self, stored: &Ctype, access: &Ctype) -> bool {
        if stored == access || access.is_character() || stored.is_character() {
            return true;
        }
        match (stored, access) {
            (Ctype::Integer(a), Ctype::Integer(b)) => {
                self.ienv.integer_size(*a) == self.ienv.integer_size(*b)
                    && self.ienv.is_signed(*a) == self.ienv.is_signed(*b)
            }
            (Ctype::Pointer(..), Ctype::Pointer(..)) => true,
            _ => false,
        }
    }

    fn apply_store(&mut self, p: &AbsPtr, ty: Option<&Ctype>, v: AbsValue) {
        if p.any {
            self.havoc_memory();
            return;
        }
        let access_size = ty.and_then(|t| self.size_of_ty(t));
        if let Some(id) = p.single() {
            let whole = p.offset == Some(0)
                && access_size.is_some()
                && access_size == self.state.allocs[id].size;
            let a = self.state.alloc_mut(id);
            if whole && a.life == Lifetime::Live {
                a.content = v;
                a.init = InitState::Init;
            } else {
                a.content = AbsValue::Top;
                a.init = a.init.touched();
            }
            a.last_store = ty.cloned();
            return;
        }
        for &id in &p.targets {
            let a = self.state.alloc_mut(id);
            a.content = AbsValue::Top;
            a.init = a.init.touched();
            a.last_store = None;
        }
    }

    fn apply_load(&mut self, p: &AbsPtr, ty: Option<&Ctype>) -> AbsValue {
        let access_size = ty.and_then(|t| self.size_of_ty(t));
        if let Some(id) = p.single() {
            let a = Rc::clone(&self.state.allocs[id]);
            let name = &a.name;
            match a.init {
                InitState::Uninit => {
                    self.finding(
                        UbKind::IndeterminateValueUse,
                        true,
                        format!("load from `{name}` before any store to it"),
                    );
                    return AbsValue::Unspec(ty.cloned());
                }
                InitState::MaybeInit => {
                    self.finding(
                        UbKind::IndeterminateValueUse,
                        false,
                        format!("load from `{name}` that may precede initialisation"),
                    );
                    return AbsValue::Top;
                }
                InitState::Init => {}
            }
            let whole = p.offset == Some(0) && access_size.is_some() && access_size == a.size;
            if whole && matches!(a.content, AbsValue::Spec(_) | AbsValue::Unspec(_)) {
                // A pointer representation read back at an integer type (a
                // union pun or memcpy into an integer) materialises as an
                // integer that merely *carries* the provenance: casting it
                // back to a pointer is then the integer round-trip case.
                if let Some(t) = ty {
                    if t.is_integer() {
                        if let AbsValue::Spec(inner) = &a.content {
                            if let AbsValue::Ptr(ptr) = &**inner {
                                return AbsValue::spec(AbsValue::Int {
                                    val: None,
                                    sym: None,
                                    prov: Some(ptr.clone()),
                                });
                            }
                        }
                    }
                }
                return a.content.clone();
            }
            // Definitely-initialised but value-imprecise integer load: track
            // it symbolically so later branches on it accumulate constraints.
            if let Some(t) = ty {
                if t.is_integer() {
                    let sym = self.mint_sym(format!("load({name})"));
                    if sym.is_some() {
                        return AbsValue::spec(AbsValue::Int {
                            val: None,
                            sym,
                            prov: None,
                        });
                    }
                }
            }
        }
        AbsValue::Top
    }

    fn record_access(&mut self, p: &AbsPtr, write: bool, negative: bool) {
        if let Some(frame) = self.fp_stack.last_mut() {
            frame.push(AbsAccess {
                targets: p.targets.clone(),
                any: p.any,
                write,
                negative,
            });
        }
    }

    /// Report an unsequenced race between two footprints. With
    /// `negative_only`, only negative-polarity actions of the first footprint
    /// participate (weak sequencing).
    fn check_race(&mut self, first: &[AbsAccess], second: &[AbsAccess], negative_only: bool) {
        for a in first {
            if negative_only && !a.negative {
                continue;
            }
            for b in second {
                if !(a.write || b.write) {
                    continue;
                }
                if a.any || b.any {
                    continue;
                }
                if a.targets.is_disjoint(&b.targets) {
                    continue;
                }
                let certain = a.targets.len() == 1 && b.targets.len() == 1;
                self.finding(
                    UbKind::UnsequencedRace,
                    certain,
                    "conflicting unsequenced accesses to the same object",
                );
                return;
            }
        }
    }

    fn merge_frames(&mut self, frames: Vec<Vec<AbsAccess>>) {
        if let Some(parent) = self.fp_stack.last_mut() {
            for frame in frames {
                parent.extend(frame);
            }
        }
    }

    // ----- C library builtins ----------------------------------------------------

    fn call_builtin(&mut self, name: &str, args: &[AbsValue]) -> Option<AFlow<'a>> {
        let arg_ptr = |i: usize, it: &Interp| {
            args.get(i)
                .map(|v| it.as_ptr(v))
                .unwrap_or_else(AbsPtr::wild)
        };
        let arg_int = |i: usize, it: &Interp| args.get(i).and_then(|v| it.as_int(v));
        let char_ty = Ctype::integer(IntegerType::Char);
        match name {
            "malloc" | "calloc" => {
                let size = if name == "calloc" {
                    match (arg_int(0, self), arg_int(1, self)) {
                        (Some(n), Some(m)) => n.checked_mul(m),
                        _ => None,
                    }
                } else {
                    arg_int(0, self)
                };
                let size = size.and_then(|s| u64::try_from(s).ok());
                let init = if name == "calloc" {
                    InitState::Init
                } else {
                    InitState::Uninit
                };
                let id = self.alloc(StorageKind::Heap, None, size, init, name);
                Some(AFlow::Val(AbsValue::spec(AbsValue::Ptr(
                    AbsPtr::to_target(id),
                ))))
            }
            "free" => {
                let p = arg_ptr(0, self);
                if !p.definitely_null() {
                    if p.null && p.targets.is_empty() && p.any {
                        // Nothing tracked: stay silent.
                    } else {
                        for &id in &p.targets.clone() {
                            let (life, kind, name_) = {
                                let a = &self.state.allocs[id];
                                (a.life, a.kind, a.name.clone())
                            };
                            let single = p.single() == Some(id);
                            match life {
                                Lifetime::Dead => self.finding(
                                    UbKind::InvalidFree,
                                    single,
                                    format!("free of `{name_}` after its lifetime already ended"),
                                ),
                                Lifetime::MaybeDead => self.finding(
                                    UbKind::InvalidFree,
                                    false,
                                    format!("free of `{name_}` that may already be freed"),
                                ),
                                Lifetime::Live if kind != StorageKind::Heap => self.finding(
                                    UbKind::InvalidFree,
                                    single,
                                    format!("free of `{name_}`, which is not a heap allocation"),
                                ),
                                Lifetime::Live => {}
                            }
                            let a = self.state.alloc_mut(id);
                            a.life = if single {
                                Lifetime::Dead
                            } else {
                                a.life.join(Lifetime::Dead)
                            };
                        }
                    }
                }
                Some(AFlow::Val(AbsValue::spec(AbsValue::Unit)))
            }
            "memcpy" | "strcpy" => {
                let dst = arg_ptr(0, self);
                let src = arg_ptr(1, self);
                self.deref_check(&src, Some(&char_ty), false);
                self.deref_check(&dst, Some(&char_ty), true);
                let n = if name == "memcpy" {
                    arg_int(2, self)
                } else {
                    None
                };
                let whole_copy = match (dst.single(), src.single(), n) {
                    (Some(d), Some(s), Some(n)) => {
                        let n = u64::try_from(n).ok();
                        dst.offset == Some(0)
                            && src.offset == Some(0)
                            && n.is_some()
                            && self.state.allocs[d].size == n
                            && self.state.allocs[s].size == n
                    }
                    _ => false,
                };
                if whole_copy {
                    let (d, s) = (dst.single().unwrap(), src.single().unwrap());
                    let (content, init, last) = {
                        let sa = &self.state.allocs[s];
                        (sa.content.clone(), sa.init, sa.last_store.clone())
                    };
                    let da = self.state.alloc_mut(d);
                    da.content = content;
                    da.init = init;
                    da.last_store = last;
                } else {
                    self.apply_store(&dst, None, AbsValue::Top);
                }
                self.record_access(&src, false, false);
                self.record_access(&dst, true, false);
                Some(AFlow::Val(AbsValue::spec(AbsValue::Ptr(dst))))
            }
            "memset" => {
                let dst = arg_ptr(0, self);
                self.deref_check(&dst, Some(&char_ty), true);
                let n = arg_int(2, self).and_then(|n| u64::try_from(n).ok());
                if let Some(id) = dst.single() {
                    if dst.offset == Some(0) && n.is_some() && n == self.state.allocs[id].size {
                        let a = self.state.alloc_mut(id);
                        a.content = AbsValue::Top;
                        a.init = InitState::Init;
                        a.last_store = None;
                    } else {
                        self.apply_store(&dst, None, AbsValue::Top);
                    }
                } else {
                    self.apply_store(&dst, None, AbsValue::Top);
                }
                self.record_access(&dst, true, false);
                Some(AFlow::Val(AbsValue::spec(AbsValue::Ptr(dst))))
            }
            "memcmp" | "strcmp" => {
                let a = arg_ptr(0, self);
                let b = arg_ptr(1, self);
                self.deref_check(&a, Some(&char_ty), false);
                self.deref_check(&b, Some(&char_ty), false);
                self.record_access(&a, false, false);
                self.record_access(&b, false, false);
                Some(AFlow::Val(AbsValue::spec(AbsValue::unknown_int())))
            }
            "strlen" => {
                let p = arg_ptr(0, self);
                self.deref_check(&p, Some(&char_ty), false);
                self.record_access(&p, false, false);
                Some(AFlow::Val(AbsValue::spec(AbsValue::unknown_int())))
            }
            "printf" => Some(AFlow::Val(AbsValue::spec(AbsValue::unknown_int()))),
            "abort" | "exit" => Some(AFlow::Ret),
            "assert" => Some(AFlow::Val(AbsValue::spec(AbsValue::Unit))),
            _ => None,
        }
    }

    // ----- memory-involving pointer operations -----------------------------------

    fn eval_memop(&mut self, env: &mut Env<'a>, op: PtrOp, args: &'a [PExpr]) -> AFlow<'a> {
        let values: Vec<AbsValue> = args.iter().map(|a| self.eval_pexpr(env, a)).collect();
        let spec_int = |v: Option<i128>| {
            AFlow::Val(AbsValue::spec(AbsValue::Int {
                val: v,
                sym: None,
                prov: None,
            }))
        };
        match op {
            PtrOp::Eq | PtrOp::Ne => {
                let a = self.as_ptr(&values[0]);
                let b = self.as_ptr(&values[1]);
                let eq = if a.definitely_null() && b.definitely_null() {
                    Some(true)
                } else if (a.definitely_null() && b.single().is_some())
                    || (b.definitely_null() && a.single().is_some())
                {
                    Some(false)
                } else {
                    match (a.single(), b.single()) {
                        (Some(x), Some(y)) if x == y => match (a.offset, b.offset) {
                            (Some(o1), Some(o2)) => Some(o1 == o2),
                            _ => None,
                        },
                        _ => None,
                    }
                };
                let flip = op == PtrOp::Ne;
                if eq.is_none() {
                    // Equality of pointers into *distinct* objects depends
                    // only on the allocator's layout choice: mint a boolean
                    // symbol linked to a constraint over the symbolic base
                    // addresses, so branches on the comparison carry a
                    // layout constraint (and its witness realises e.g. the
                    // one-past-the-end-meets-adjacent-base aliasing).
                    if let (Some(x), Some(y), Some(o1), Some(o2)) =
                        (a.single(), b.single(), a.offset, b.offset)
                    {
                        if let (Some(bx), Some(by)) = (self.base_sym(x), self.base_sym(y)) {
                            let addr_eq = Atom::Cmp {
                                lhs: Term::var(bx, o1),
                                rel: Rel::Eq,
                                rhs: Term::var(by, o2),
                            };
                            let (nx, ny) = (
                                self.state.allocs[x].name.clone(),
                                self.state.allocs[y].name.clone(),
                            );
                            let op_txt = if flip { "!=" } else { "==" };
                            let sym = self.mint_sym(format!("(&{nx}+{o1} {op_txt} &{ny}+{o2})"));
                            if let Some((s, _)) = sym {
                                let atom = if flip { addr_eq.negate() } else { addr_eq };
                                self.linked_syms.insert(s.0, atom);
                                return AFlow::Val(AbsValue::spec(AbsValue::Int {
                                    val: None,
                                    sym,
                                    prov: None,
                                }));
                            }
                        }
                    }
                }
                spec_int(eq.map(|e| i128::from(e != flip)))
            }
            PtrOp::Lt | PtrOp::Gt | PtrOp::Le | PtrOp::Ge => {
                let a = self.as_ptr(&values[0]);
                let b = self.as_ptr(&values[1]);
                match (a.single(), b.single()) {
                    (Some(x), Some(y)) if x == y => {
                        let v = match (a.offset, b.offset) {
                            (Some(o1), Some(o2)) => Some(match op {
                                PtrOp::Lt => o1 < o2,
                                PtrOp::Gt => o1 > o2,
                                PtrOp::Le => o1 <= o2,
                                _ => o1 >= o2,
                            }),
                            _ => None,
                        };
                        spec_int(v.map(i128::from))
                    }
                    (Some(_), Some(_)) => {
                        self.finding(
                            UbKind::RelationalCompareDifferentObjects,
                            true,
                            "relational comparison of pointers to different objects",
                        );
                        spec_int(None)
                    }
                    _ => {
                        self.finding(
                            UbKind::RelationalCompareDifferentObjects,
                            false,
                            "relational comparison of pointers that may refer to different objects",
                        );
                        spec_int(None)
                    }
                }
            }
            PtrOp::Diff => {
                let a = self.as_ptr(&values[0]);
                let b = self.as_ptr(&values[1]);
                let elem = values.get(2).and_then(|v| self.as_ctype(v));
                match (a.single(), b.single()) {
                    (Some(x), Some(y)) if x == y => {
                        let size = elem.as_ref().and_then(|t| self.size_of_ty(t));
                        let v = match (a.offset, b.offset, size) {
                            (Some(o1), Some(o2), Some(s)) if s > 0 => {
                                Some((o1 - o2) / i128::from(s))
                            }
                            _ => None,
                        };
                        spec_int(v)
                    }
                    (Some(_), Some(_)) => {
                        self.finding(
                            UbKind::PointerSubtractionDifferentObjects,
                            true,
                            "subtraction of pointers into different objects",
                        );
                        spec_int(None)
                    }
                    _ => {
                        self.finding(
                            UbKind::PointerSubtractionDifferentObjects,
                            false,
                            "subtraction of pointers that may refer to different objects",
                        );
                        spec_int(None)
                    }
                }
            }
            PtrOp::IntFromPtr => {
                let p = self.as_ptr(&values[0]);
                let val = if p.definitely_null() { Some(0) } else { None };
                // The cast result is the symbolic base address plus the known
                // offset, so integer comparisons of cast pointers reduce to
                // the same difference constraints as direct pointer
                // comparisons.
                let sym = match (val, p.single(), p.offset) {
                    (None, Some(id), Some(off)) => self.base_sym(id).map(|base| (base, off)),
                    _ => None,
                };
                AFlow::Val(AbsValue::spec(AbsValue::Int {
                    val,
                    sym,
                    prov: Some(p),
                }))
            }
            PtrOp::PtrFromInt => {
                let p = self.as_ptr(&values[0]);
                AFlow::Val(AbsValue::spec(AbsValue::Ptr(p)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use cerberus_core::program::CoreProc;

    fn int_ty() -> Ctype {
        Ctype::integer(IntegerType::Int)
    }

    fn proc_program(body: Expr) -> CoreProgram {
        let mut p = CoreProgram::default();
        p.procs.insert(
            "main".to_owned(),
            CoreProc {
                name: Ident::new("main"),
                params: vec![],
                return_ty: int_ty(),
                body,
            },
        );
        p.main = Some(Ident::new("main"));
        p
    }

    fn create_int() -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Create {
                align: Box::new(PExpr::Integer(4)),
                ty: Box::new(PExpr::CtypeConst(int_ty())),
            },
        )
    }

    fn store_int(ptr: &str, value: PExpr) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(int_ty())),
                ptr: Box::new(PExpr::sym(ptr)),
                value: Box::new(value),
            },
        )
    }

    fn load_int(ptr: &str) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Load {
                ty: Box::new(PExpr::CtypeConst(int_ty())),
                ptr: Box::new(PExpr::sym(ptr)),
            },
        )
    }

    /// A copy of `state` that shares no record with it.
    fn unshared(state: &State) -> State {
        State {
            allocs: state
                .allocs
                .iter()
                .map(|a| Rc::new((**a).clone()))
                .collect(),
        }
    }

    /// The join skips a record both sides still share, which is exact
    /// because x ⊔ x = x: the result equals the join of deep copies.
    #[test]
    fn the_join_skips_exactly_the_records_both_sides_share() {
        let kill = MemAction::Kill(Box::new(PExpr::sym("p")));
        let (program, ienv, solver) = (
            CoreProgram::default(),
            ImplEnv::default(),
            Solver::default(),
        );
        let mut it = Interp::new(&program, &ienv, AnalysisConfig::default(), &solver);
        let ids: Vec<AllocId> = ["w", "x", "y", "z"]
            .into_iter()
            .map(|name| {
                it.alloc(
                    StorageKind::Stack,
                    Some(int_ty()),
                    Some(4),
                    InitState::Uninit,
                    name,
                )
            })
            .collect();
        it.apply_store(
            &AbsPtr::to_target(ids[0]),
            Some(&int_ty()),
            AbsValue::int(7),
        );
        it.state.alloc_mut(ids[3]).life = Lifetime::Dead;

        let snapshot = it.state.clone();
        it.state.join_from(&snapshot);
        for (joined, before) in it.state.allocs.iter().zip(&snapshot.allocs) {
            assert!(Rc::ptr_eq(joined, before));
        }

        // One side stores to `x`; the other kills `y` and then havocs.
        it.apply_store(
            &AbsPtr::to_target(ids[1]),
            Some(&int_ty()),
            AbsValue::int(1),
        );
        let stored = std::mem::replace(&mut it.state, snapshot.clone());
        let mut env = Env::default();
        env.insert("p", AbsValue::Ptr(AbsPtr::to_target(ids[2])));
        it.eval_action(&mut env, &kill, false);
        it.havoc_memory();
        let havocked = std::mem::take(&mut it.state);

        let mut joined = stored.clone();
        joined.join_from(&havocked);
        let mut deep = unshared(&stored);
        deep.join_from(&unshared(&havocked));
        assert_eq!(joined, deep);
        assert!(Rc::ptr_eq(&joined.allocs[ids[3]], &snapshot.allocs[ids[3]]));
        assert_eq!(joined.allocs[ids[1]].init, InitState::MaybeInit);
        assert_eq!(joined.allocs[ids[2]].life, Lifetime::MaybeDead);
    }

    #[test]
    fn reachable_undef_is_a_must_finding() {
        let program = proc_program(Expr::Pure(PExpr::Undef(UbKind::DivisionByZero)));
        let report = analyze(&program, &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::DivisionByZero),
            Some(FindingSeverity::Must)
        );
    }

    #[test]
    fn undef_under_unknown_branch_is_may() {
        // if (unknown) then Undef else pure — the analyzer cannot decide the
        // condition, so the finding is May.
        let body = Expr::Sseq(
            Pattern::sym("p"),
            Box::new(create_int()),
            Box::new(Expr::Sseq(
                Pattern::Wildcard,
                Box::new(store_int("p", PExpr::specified_int(1))),
                Box::new(Expr::Sseq(
                    Pattern::sym("v"),
                    Box::new(load_int("p")),
                    Box::new(Expr::If(
                        PExpr::Binop(
                            Binop::Eq,
                            Box::new(PExpr::sym("unbound")),
                            Box::new(PExpr::Integer(0)),
                        ),
                        Box::new(Expr::Pure(PExpr::Undef(UbKind::ShiftTooLarge))),
                        Box::new(Expr::Pure(PExpr::specified_int(0))),
                    )),
                )),
            )),
        );
        let report = analyze(&proc_program(body), &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::ShiftTooLarge),
            Some(FindingSeverity::May)
        );
    }

    #[test]
    fn load_before_store_is_indeterminate() {
        let body = Expr::Sseq(
            Pattern::sym("p"),
            Box::new(create_int()),
            Box::new(load_int("p")),
        );
        let report = analyze(&proc_program(body), &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::IndeterminateValueUse),
            Some(FindingSeverity::Must)
        );
    }

    #[test]
    fn initialised_load_is_clean() {
        let body = Expr::Sseq(
            Pattern::sym("p"),
            Box::new(create_int()),
            Box::new(Expr::Sseq(
                Pattern::Wildcard,
                Box::new(store_int("p", PExpr::specified_int(7))),
                Box::new(load_int("p")),
            )),
        );
        let report = analyze(&proc_program(body), &ImplEnv::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn access_after_kill_is_outside_lifetime() {
        let body = Expr::Sseq(
            Pattern::sym("p"),
            Box::new(create_int()),
            Box::new(Expr::Sseq(
                Pattern::Wildcard,
                Box::new(store_int("p", PExpr::specified_int(1))),
                Box::new(Expr::Sseq(
                    Pattern::Wildcard,
                    Box::new(Expr::Action(
                        Polarity::Positive,
                        MemAction::Kill(Box::new(PExpr::sym("p"))),
                    )),
                    Box::new(load_int("p")),
                )),
            )),
        );
        let report = analyze(&proc_program(body), &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::AccessOutsideLifetime),
            Some(FindingSeverity::Must)
        );
    }

    #[test]
    fn null_store_is_flagged() {
        let body = Expr::Sseq(
            Pattern::sym("p"),
            Box::new(Expr::Pure(PExpr::specified_int(0))),
            Box::new(store_int("p", PExpr::specified_int(1))),
        );
        let report = analyze(&proc_program(body), &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::NullPointerDeref),
            Some(FindingSeverity::Must)
        );
    }

    #[test]
    fn double_free_is_invalid() {
        let free = |p: &str| {
            Expr::Ccall(
                Box::new(PExpr::FunctionPtr(Ident::new("free"))),
                vec![PExpr::sym(p)],
            )
        };
        let body = Expr::Sseq(
            Pattern::Tuple(vec![Pattern::Specified(Box::new(Pattern::sym("p")))]),
            Box::new(Expr::Ccall(
                Box::new(PExpr::FunctionPtr(Ident::new("malloc"))),
                vec![PExpr::specified_int(4)],
            )),
            Box::new(Expr::Sseq(
                Pattern::Wildcard,
                Box::new(free("p")),
                Box::new(free("p")),
            )),
        );
        let report = analyze(&proc_program(body), &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::InvalidFree),
            Some(FindingSeverity::Must)
        );
    }

    #[test]
    fn string_literal_store_is_flagged() {
        let mut program = proc_program(store_int("lit", PExpr::specified_int(1)));
        program
            .string_literals
            .push((Ident::new("lit"), b"hi\0".to_vec()));
        let report = analyze(&program, &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::StringLiteralModification),
            Some(FindingSeverity::Must)
        );
    }

    #[test]
    fn infinite_loop_terminates_under_widening() {
        let label = Ident::new("head");
        let body = Expr::Save(
            label.clone(),
            Box::new(Expr::Sseq(
                Pattern::Wildcard,
                Box::new(Expr::Pure(PExpr::Unit)),
                Box::new(Expr::Run(label.clone())),
            )),
        );
        let report = analyze(&proc_program(body), &ImplEnv::default());
        assert!(report.aborted.is_none());
    }

    /// `v = load(p)` where the stored value is unknown: the load is tracked
    /// symbolically, and branching on `v == 0` twice accumulates constraints
    /// the solver can refute. Shape:
    /// `if (v == 0) outer_then else { if (v == 0) inner_then else inner_else }`
    /// — `inner_then` sits on the unsatisfiable path `v != 0 && v == 0`.
    fn branch_twice_on_symbolic_load(
        outer_then: Expr,
        inner_then: Expr,
        inner_else: Expr,
    ) -> CoreProgram {
        let v_is_zero = || {
            PExpr::Binop(
                Binop::Eq,
                Box::new(PExpr::sym("v")),
                Box::new(PExpr::Integer(0)),
            )
        };
        let body = Expr::Sseq(
            Pattern::sym("p"),
            Box::new(create_int()),
            Box::new(Expr::Sseq(
                Pattern::Wildcard,
                Box::new(store_int("p", PExpr::sym("junk"))),
                Box::new(Expr::Sseq(
                    Pattern::sym("v"),
                    Box::new(load_int("p")),
                    Box::new(Expr::If(
                        v_is_zero(),
                        Box::new(outer_then),
                        Box::new(Expr::If(
                            v_is_zero(),
                            Box::new(inner_then),
                            Box::new(inner_else),
                        )),
                    )),
                )),
            )),
        );
        proc_program(body)
    }

    #[test]
    fn contradictory_nested_branch_is_pruned() {
        // The undef sits on the unsatisfiable path v != 0 && v == 0. Path
        // mode prunes it entirely; the flow baseline joins and reports May.
        let program = branch_twice_on_symbolic_load(
            Expr::Pure(PExpr::specified_int(0)),
            Expr::Pure(PExpr::Undef(UbKind::ShiftTooLarge)),
            Expr::Pure(PExpr::specified_int(0)),
        );
        let report = analyze(&program, &ImplEnv::default());
        assert_eq!(report.reports(UbKind::ShiftTooLarge), None, "{report:?}");
        assert!(report.paths_pruned > 0, "{report:?}");

        let flow = crate::analyze_with(
            &program,
            &ImplEnv::default(),
            AnalysisConfig::default().flow_baseline(),
        );
        assert_eq!(
            flow.reports(UbKind::ShiftTooLarge),
            Some(FindingSeverity::May)
        );
    }

    #[test]
    fn pruning_a_sibling_flips_may_to_must() {
        // The undef fires on both feasible paths (the inner then-arm is
        // infeasible), so path mode proves Must where the flow baseline can
        // only join to May.
        let program = branch_twice_on_symbolic_load(
            Expr::Pure(PExpr::Undef(UbKind::ShiftTooLarge)),
            Expr::Pure(PExpr::specified_int(0)),
            Expr::Pure(PExpr::Undef(UbKind::ShiftTooLarge)),
        );
        let report = analyze(&program, &ImplEnv::default());
        assert_eq!(
            report.reports(UbKind::ShiftTooLarge),
            Some(FindingSeverity::Must),
            "{report:?}"
        );
        let must = report
            .findings
            .iter()
            .find(|f| f.ub == UbKind::ShiftTooLarge)
            .expect("finding");
        // The Must carries a satisfying assignment of its recorded path.
        match &must.witness {
            Witness::Assignment(bindings) => {
                assert!(!bindings.is_empty(), "{:?}", must.witness);
                assert_eq!(bindings[0].1, 0, "{:?}", must.witness);
            }
            other => panic!("Must finding with non-assignment witness: {other:?}"),
        }

        let flow = crate::analyze_with(
            &program,
            &ImplEnv::default(),
            AnalysisConfig::default().flow_baseline(),
        );
        assert_eq!(
            flow.reports(UbKind::ShiftTooLarge),
            Some(FindingSeverity::May)
        );
    }
}
