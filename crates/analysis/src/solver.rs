//! A small decision procedure for the path constraints accumulated by the
//! path-sensitive abstract interpreter.
//!
//! The constraint language is deliberately tiny — exactly what the
//! interpreter's branch conditions produce:
//!
//! * **difference/interval atoms** `x + a ⋈ y + b` and `x + a ⋈ c` for
//!   `⋈ ∈ {==, !=, <, <=, >, >=}`, over symbolic integer variables
//!   ([`SymId`]) that stand for unknown run-time values and symbolic
//!   allocation base addresses;
//! * **range atoms** `lo <= x + a <= hi` (and their negation), produced by
//!   `IsRepresentable` guards around integer conversions;
//! * **uninterpreted predicates** such as `live(a)` or `from_int(p)`,
//!   which only interact with their own negation.
//!
//! Satisfiability of the conjunction is decided by Bellman–Ford
//! negative-cycle detection over the difference graph (the classic
//! difference-constraint reduction), and a satisfying model is read off
//! the shortest-path potentials. `!=` atoms are checked against the model
//! and repaired by small perturbations; when repair fails the verdict is
//! [`Verdict::Unknown`], which the interpreter treats as "feasible" so
//! pruning stays sound.
//!
//! Solved constraint sets are memoised under a *canonical key*: atoms are
//! normalised, variables renumbered in first-occurrence order, and the set
//! sorted and deduplicated — the CLP memoization idea (Johnson), so
//! subgoals shared across paths, procedures and fixtures are decided once.
//! The memo table is owned by a [`Solver`] that can be shared (it is
//! internally synchronised), letting a whole corpus run reuse verdicts;
//! hit/miss counters surface in the session cache statistics.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use cerberus_ast::memo::{CacheStats, Memo};

/// A symbolic integer variable: an unknown run-time value (a parameter, the
/// result of an unknown load or conversion) or an allocation base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A linear term `var + k` (or the constant `k` when `var` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Term {
    /// The symbolic variable, if any.
    pub var: Option<SymId>,
    /// The constant addend.
    pub k: i128,
}

impl Term {
    /// The constant term `k`.
    pub fn constant(k: i128) -> Term {
        Term { var: None, k }
    }

    /// The term `v + k`.
    pub fn var(v: SymId, k: i128) -> Term {
        Term { var: Some(v), k }
    }
}

/// A comparison relation between two terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rel {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Rel {
    /// The relation holding exactly when `self` does not.
    pub fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
            Rel::Lt => Rel::Ge,
            Rel::Le => Rel::Gt,
            Rel::Gt => Rel::Le,
            Rel::Ge => Rel::Lt,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Rel::Eq => "==",
            Rel::Ne => "!=",
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Gt => ">",
            Rel::Ge => ">=",
        }
    }
}

/// One path-constraint atom.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// `lhs ⋈ rhs` over linear terms.
    Cmp {
        /// Left-hand term.
        lhs: Term,
        /// The relation.
        rel: Rel,
        /// Right-hand term.
        rhs: Term,
    },
    /// `lo <= term <= hi` when `positive`, `term < lo || term > hi`
    /// otherwise (an `IsRepresentable` guard and its negation).
    InRange {
        /// The constrained term.
        term: Term,
        /// Inclusive lower bound.
        lo: i128,
        /// Inclusive upper bound.
        hi: i128,
        /// Whether the term is inside (true) or outside (false) the range.
        positive: bool,
    },
    /// An uninterpreted predicate over the memory state, e.g. `live(a)` or
    /// `from_int(p)`. Interacts only with its own negation.
    Pred {
        /// Predicate text, e.g. `live(a)`.
        name: String,
        /// Whether the predicate is asserted (true) or refuted (false).
        positive: bool,
    },
}

impl Atom {
    /// The logical negation of this atom.
    pub fn negate(&self) -> Atom {
        match self {
            Atom::Cmp { lhs, rel, rhs } => Atom::Cmp {
                lhs: *lhs,
                rel: rel.negate(),
                rhs: *rhs,
            },
            Atom::InRange {
                term,
                lo,
                hi,
                positive,
            } => Atom::InRange {
                term: *term,
                lo: *lo,
                hi: *hi,
                positive: !positive,
            },
            Atom::Pred { name, positive } => Atom::Pred {
                name: name.clone(),
                positive: !positive,
            },
        }
    }

    /// Every symbolic variable mentioned by the atom, in syntactic order.
    fn vars(&self, out: &mut Vec<SymId>) {
        match self {
            Atom::Cmp { lhs, rhs, .. } => {
                if let Some(v) = lhs.var {
                    out.push(v);
                }
                if let Some(v) = rhs.var {
                    out.push(v);
                }
            }
            Atom::InRange { term, .. } => {
                if let Some(v) = term.var {
                    out.push(v);
                }
            }
            Atom::Pred { .. } => {}
        }
    }

    /// Render the atom with `names` resolving symbolic variables.
    pub fn render(&self, names: &dyn Fn(SymId) -> String) -> String {
        let term = |t: &Term| match t.var {
            None => t.k.to_string(),
            Some(v) => {
                let base = names(v);
                match t.k {
                    0 => base,
                    k if k > 0 => format!("{base} + {k}"),
                    k => format!("{base} - {}", -k),
                }
            }
        };
        match self {
            Atom::Cmp { lhs, rel, rhs } => {
                format!("{} {} {}", term(lhs), rel.symbol(), term(rhs))
            }
            Atom::InRange {
                term: t,
                lo,
                hi,
                positive,
            } => {
                if *positive {
                    format!("{} in [{lo}, {hi}]", term(t))
                } else {
                    format!("{} outside [{lo}, {hi}]", term(t))
                }
            }
            Atom::Pred { name, positive } => {
                if *positive {
                    name.clone()
                } else {
                    format!("!{name}")
                }
            }
        }
    }
}

/// A satisfying assignment of symbolic variables found by the solver; any
/// variable not listed is unconstrained (any value works).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    /// Variable bindings, sorted by variable.
    pub bindings: BTreeMap<SymId, i128>,
    /// Uninterpreted predicates that must hold (`(name, truth)`).
    pub predicates: BTreeMap<String, bool>,
}

/// The solver's answer for one conjunction of atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable, with a witness assignment.
    Sat(Model),
    /// No assignment satisfies the conjunction.
    Unsat,
    /// The decision procedure could not settle the question (treated as
    /// feasible by the interpreter, so pruning stays sound).
    Unknown,
}

impl Verdict {
    /// Whether the path may be feasible (anything but a definite `Unsat`).
    pub fn feasible(&self) -> bool {
        !matches!(self, Verdict::Unsat)
    }
}

/// The result of one [`Solver::solve`] call, including whether it was
/// answered from the memo table.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The satisfiability verdict.
    pub verdict: Verdict,
    /// Whether the canonical key was already memoised.
    pub from_memo: bool,
}

/// A memoising difference-constraint solver, shareable across threads and
/// across translation units (the Johnson CLP-memoization line: solved
/// subgoals are cached under canonicalised keys).
#[derive(Debug)]
pub struct Solver {
    memo: Memo<Vec<Atom>, Verdict>,
}

/// The most constraint sets a solver memoises.
const SOLVER_CAPACITY: usize = 4096;

impl Default for Solver {
    fn default() -> Self {
        Solver {
            memo: Memo::new(SOLVER_CAPACITY),
        }
    }
}

impl Solver {
    /// Decide satisfiability of the conjunction `atoms`, consulting and
    /// updating the memo table.
    pub fn solve(&self, atoms: &[Atom]) -> Solved {
        let key = canonicalise(atoms);
        if let Some(verdict) = self.memo.get(&key) {
            return Solved {
                verdict: decanonicalise(&verdict, atoms),
                from_memo: true,
            };
        }
        let verdict = decide(&key);
        self.memo.insert(key, verdict.clone());
        Solved {
            verdict: decanonicalise(&verdict, atoms),
            from_memo: false,
        }
    }

    /// Memo hits, misses (each one ran the decision procedure) and entries.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

/// Canonicalise a conjunction: normalise each atom (constant on the right,
/// variable pairs ordered), sort, deduplicate, then renumber variables in
/// first-occurrence order so alpha-equivalent sets share one memo entry.
fn canonicalise(atoms: &[Atom]) -> Vec<Atom> {
    let mut normalised: Vec<Atom> = atoms.iter().map(normalise).collect();
    normalised.sort();
    normalised.dedup();
    // Renumber in first-occurrence order over the *sorted* set, so the key is
    // independent of insertion order.
    let mut rename: BTreeMap<SymId, SymId> = BTreeMap::new();
    let mut order: Vec<SymId> = Vec::new();
    for atom in &normalised {
        atom.vars(&mut order);
    }
    for v in order {
        let next = SymId(rename.len() as u32);
        rename.entry(v).or_insert(next);
    }
    let rewrite = |t: &Term| Term {
        var: t.var.map(|v| rename[&v]),
        k: t.k,
    };
    normalised
        .iter()
        .map(|atom| match atom {
            Atom::Cmp { lhs, rel, rhs } => Atom::Cmp {
                lhs: rewrite(lhs),
                rel: *rel,
                rhs: rewrite(rhs),
            },
            Atom::InRange {
                term,
                lo,
                hi,
                positive,
            } => Atom::InRange {
                term: rewrite(term),
                lo: *lo,
                hi: *hi,
                positive: *positive,
            },
            Atom::Pred { .. } => atom.clone(),
        })
        .collect()
}

/// Rewrite an atom into canonical shape: `Cmp` with `Gt`/`Ge` flipped to
/// `Lt`/`Le`, a lone constant moved to the right-hand side, and
/// variable-variable atoms ordered by variable id.
fn normalise(atom: &Atom) -> Atom {
    match atom {
        Atom::Cmp { lhs, rel, rhs } => {
            let (mut lhs, mut rel, mut rhs) = (*lhs, *rel, *rhs);
            // Flip `>` and `>=` so only {Eq, Ne, Lt, Le} remain.
            if matches!(rel, Rel::Gt | Rel::Ge) {
                std::mem::swap(&mut lhs, &mut rhs);
                rel = match rel {
                    Rel::Gt => Rel::Lt,
                    Rel::Ge => Rel::Le,
                    r => r,
                };
            }
            // Keep the variable (or the smaller variable) on the left for the
            // symmetric relations.
            let should_swap = match (lhs.var, rhs.var) {
                (None, Some(_)) => matches!(rel, Rel::Eq | Rel::Ne),
                (Some(a), Some(b)) => matches!(rel, Rel::Eq | Rel::Ne) && b < a,
                _ => false,
            };
            if should_swap {
                std::mem::swap(&mut lhs, &mut rhs);
            }
            // Fold constants: x + a ⋈ y + b  ≡  x + (a - b) ⋈ y.
            if lhs.var.is_some() {
                lhs.k -= rhs.k;
                rhs.k = 0;
            }
            Atom::Cmp { lhs, rel, rhs }
        }
        Atom::InRange {
            term,
            lo,
            hi,
            positive,
        } => Atom::InRange {
            term: Term {
                var: term.var,
                k: 0,
            },
            lo: lo - term.k,
            hi: hi - term.k,
            positive: *positive,
        },
        Atom::Pred { .. } => atom.clone(),
    }
}

/// Map a verdict over canonical variables back to the caller's variables.
fn decanonicalise(verdict: &Verdict, original: &[Atom]) -> Verdict {
    let Verdict::Sat(model) = verdict else {
        return verdict.clone();
    };
    // Reconstruct the same renaming canonicalise used.
    let normalised = canonical_order(original);
    let mut bindings = BTreeMap::new();
    for (canonical, caller) in normalised {
        if let Some(value) = model.bindings.get(&canonical) {
            bindings.insert(caller, *value);
        }
    }
    Verdict::Sat(Model {
        bindings,
        predicates: model.predicates.clone(),
    })
}

/// The `(canonical, caller)` variable pairing canonicalise produces.
fn canonical_order(atoms: &[Atom]) -> Vec<(SymId, SymId)> {
    let mut normalised: Vec<Atom> = atoms.iter().map(normalise).collect();
    normalised.sort();
    normalised.dedup();
    let mut rename: BTreeMap<SymId, SymId> = BTreeMap::new();
    let mut order: Vec<SymId> = Vec::new();
    for atom in &normalised {
        atom.vars(&mut order);
    }
    for v in order {
        let next = SymId(rename.len() as u32);
        rename.entry(v).or_insert(next);
    }
    rename
        .into_iter()
        .map(|(caller, canon)| (canon, caller))
        .collect()
}

/// Index of the virtual zero node in the difference graph.
const ZERO: usize = 0;

/// Decide a canonicalised conjunction.
///
/// Difference atoms become edges of a constraint graph with a virtual zero
/// node; Bellman–Ford either finds a negative cycle (`Unsat`) or yields
/// shortest-path potentials, which — shifted so the zero node maps to 0 —
/// are a satisfying assignment of all `<=`-convertible atoms. `!=` atoms
/// and negated ranges are then checked against (and, if needed, repaired
/// into) the model.
fn decide(atoms: &[Atom]) -> Verdict {
    // Contradicting uninterpreted predicates: p && !p.
    let mut predicates: BTreeMap<String, bool> = BTreeMap::new();
    for atom in atoms {
        if let Atom::Pred { name, positive } = atom {
            match predicates.entry(name.clone()) {
                Entry::Vacant(slot) => {
                    slot.insert(*positive);
                }
                Entry::Occupied(prior) => {
                    if prior.get() != positive {
                        return Verdict::Unsat;
                    }
                }
            }
        }
    }

    // Collect variables; node 0 is the virtual zero.
    let mut vars: Vec<SymId> = Vec::new();
    for atom in atoms {
        atom.vars(&mut vars);
    }
    vars.sort();
    vars.dedup();
    let node = |v: Option<SymId>| -> usize {
        match v {
            None => ZERO,
            Some(v) => 1 + vars.binary_search(&v).unwrap(),
        }
    };
    let n = vars.len() + 1;

    // Edges (u, v, w) encode x_v - x_u <= w.
    let mut edges: Vec<(usize, usize, i128)> = Vec::new();
    // Deferred disequalities (lhs, rhs) and negated ranges.
    let mut disequalities: Vec<(Term, Term)> = Vec::new();
    let mut outside: Vec<(Term, i128, i128)> = Vec::new();
    let le = |lhs: Term, rhs: Term, edges: &mut Vec<(usize, usize, i128)>| {
        // lhs.var + lhs.k <= rhs.var + rhs.k
        //   ≡  lhs.var - rhs.var <= rhs.k - lhs.k.
        edges.push((node(rhs.var), node(lhs.var), rhs.k - lhs.k));
    };
    for atom in atoms {
        match atom {
            Atom::Cmp { lhs, rel, rhs } => match rel {
                Rel::Le => le(*lhs, *rhs, &mut edges),
                Rel::Lt => le(
                    Term {
                        var: lhs.var,
                        k: lhs.k + 1,
                    },
                    *rhs,
                    &mut edges,
                ),
                Rel::Ge => le(*rhs, *lhs, &mut edges),
                Rel::Gt => le(
                    Term {
                        var: rhs.var,
                        k: rhs.k + 1,
                    },
                    *lhs,
                    &mut edges,
                ),
                Rel::Eq => {
                    le(*lhs, *rhs, &mut edges);
                    le(*rhs, *lhs, &mut edges);
                }
                Rel::Ne => {
                    if lhs.var.is_none() && rhs.var.is_none() {
                        if lhs.k == rhs.k {
                            return Verdict::Unsat;
                        }
                    } else {
                        disequalities.push((*lhs, *rhs));
                    }
                }
            },
            Atom::InRange {
                term,
                lo,
                hi,
                positive,
            } => {
                if lo > hi {
                    if *positive {
                        return Verdict::Unsat;
                    }
                    continue; // an empty range excludes nothing
                }
                if *positive {
                    le(Term::constant(*lo), *term, &mut edges);
                    le(*term, Term::constant(*hi), &mut edges);
                } else {
                    match term.var {
                        None => {
                            if (*lo..=*hi).contains(&term.k) {
                                return Verdict::Unsat;
                            }
                        }
                        Some(_) => outside.push((*term, *lo, *hi)),
                    }
                }
            }
            Atom::Pred { .. } => {}
        }
    }

    // Bellman–Ford from a virtual source connected to every node with
    // weight 0 (equivalently: start all distances at 0).
    let mut dist = vec![0i128; n];
    for round in 0..n {
        let mut changed = false;
        for &(u, v, w) in &edges {
            if dist[u].saturating_add(w) < dist[v] {
                dist[v] = dist[u].saturating_add(w);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == n - 1 {
            return Verdict::Unsat; // relaxation still live after n rounds
        }
    }

    // dist satisfies dist[v] <= dist[u] + w for every edge, i.e. every
    // difference constraint; shift so the zero node is 0.
    let shift = dist[ZERO];
    let value_of = |t: &Term, assign: &[i128]| -> i128 {
        match t.var {
            None => t.k,
            Some(v) => assign[node(Some(v))] + t.k,
        }
    };
    let mut assign: Vec<i128> = dist.iter().map(|d| d - shift).collect();

    // Repair disequalities and negated ranges by perturbing single
    // variables; each perturbation must be re-checked against everything.
    let satisfied = |assign: &[i128]| -> bool {
        disequalities
            .iter()
            .all(|(l, r)| value_of(l, assign) != value_of(r, assign))
            && outside
                .iter()
                .all(|(t, lo, hi)| !(*lo..=*hi).contains(&value_of(t, assign)))
            && edges.iter().all(|&(u, v, w)| assign[v] - assign[u] <= w)
    };
    if !satisfied(&assign) {
        // Try nudging each variable by small offsets.
        let mut fixed = false;
        'search: for idx in 1..n {
            let original = assign[idx];
            for delta in [1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 11, -11] {
                assign[idx] = original + delta;
                if satisfied(&assign) {
                    fixed = true;
                    break 'search;
                }
            }
            assign[idx] = original;
        }
        if !fixed {
            // The perturbation heuristic failed; decide Unsat vs Unknown by
            // bounding the offending terms with shortest paths. sp(u)[v] is
            // the tightest provable upper bound on x_v - x_u (finite paths
            // only — negative cycles were already ruled out above).
            let sp = |src: usize| -> Vec<Option<i128>> {
                let mut d: Vec<Option<i128>> = vec![None; n];
                d[src] = Some(0);
                for _ in 0..n {
                    let mut changed = false;
                    for &(u, v, w) in &edges {
                        if let Some(du) = d[u] {
                            let cand = du.saturating_add(w);
                            if d[v].is_none_or(|dv| cand < dv) {
                                d[v] = Some(cand);
                                changed = true;
                            }
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                d
            };
            let table: Vec<Vec<Option<i128>>> = (0..n).map(sp).collect();
            // x == y && x != y (possibly through folded offsets): the
            // difference l - r is forced to exactly zero.
            for (l, r) in &disequalities {
                let (nl, nr) = (node(l.var), node(r.var));
                let ub = table[nr][nl].map(|d| d + l.k - r.k);
                let lb = table[nl][nr].map(|d| -d + l.k - r.k);
                if ub == Some(0) && lb == Some(0) {
                    return Verdict::Unsat;
                }
            }
            // A negated range whose positive constraints confine the term
            // entirely inside [lo, hi].
            for (t, lo, hi) in &outside {
                let v = node(t.var);
                let ub = table[ZERO][v].map(|d| d + t.k);
                let lb = table[v][ZERO].map(|d| -d + t.k);
                if let (Some(lbv), Some(ubv)) = (lb, ub) {
                    if lbv >= *lo && ubv <= *hi {
                        return Verdict::Unsat;
                    }
                }
            }
            return Verdict::Unknown;
        }
    }

    let bindings = vars.iter().map(|v| (*v, assign[node(Some(*v))])).collect();
    Verdict::Sat(Model {
        bindings,
        predicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> SymId {
        SymId(0)
    }
    fn y() -> SymId {
        SymId(1)
    }

    fn cmp(lhs: Term, rel: Rel, rhs: Term) -> Atom {
        Atom::Cmp { lhs, rel, rhs }
    }

    #[test]
    fn empty_conjunction_is_sat() {
        let solver = Solver::default();
        assert!(matches!(solver.solve(&[]).verdict, Verdict::Sat(_)));
    }

    #[test]
    fn contradictory_equalities_are_unsat() {
        let solver = Solver::default();
        let atoms = [
            cmp(Term::var(x(), 0), Rel::Eq, Term::constant(0)),
            cmp(Term::var(x(), 0), Rel::Eq, Term::constant(1)),
        ];
        assert_eq!(solver.solve(&atoms).verdict, Verdict::Unsat);
    }

    #[test]
    fn equality_yields_a_binding_model() {
        let solver = Solver::default();
        let atoms = [cmp(Term::var(x(), 0), Rel::Eq, Term::constant(42))];
        match solver.solve(&atoms).verdict {
            Verdict::Sat(model) => assert_eq!(model.bindings.get(&x()), Some(&42)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn strict_cycle_is_unsat() {
        // x < y && y < x.
        let solver = Solver::default();
        let atoms = [
            cmp(Term::var(x(), 0), Rel::Lt, Term::var(y(), 0)),
            cmp(Term::var(y(), 0), Rel::Lt, Term::var(x(), 0)),
        ];
        assert_eq!(solver.solve(&atoms).verdict, Verdict::Unsat);
    }

    #[test]
    fn difference_chain_model_satisfies_all_atoms() {
        // x + 4 == y && y <= 10 && x >= 2.
        let solver = Solver::default();
        let atoms = [
            cmp(Term::var(x(), 4), Rel::Eq, Term::var(y(), 0)),
            cmp(Term::var(y(), 0), Rel::Le, Term::constant(10)),
            cmp(Term::var(x(), 0), Rel::Ge, Term::constant(2)),
        ];
        match solver.solve(&atoms).verdict {
            Verdict::Sat(model) => {
                let xv = model.bindings[&x()];
                let yv = model.bindings[&y()];
                assert_eq!(xv + 4, yv);
                assert!(yv <= 10 && xv >= 2, "x={xv} y={yv}");
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn disequality_is_repaired() {
        // x >= 0 && x != 0 has models; the potentials give x = 0, so the
        // repair loop must nudge it.
        let solver = Solver::default();
        let atoms = [
            cmp(Term::var(x(), 0), Rel::Ge, Term::constant(0)),
            cmp(Term::var(x(), 0), Rel::Ne, Term::constant(0)),
        ];
        match solver.solve(&atoms).verdict {
            Verdict::Sat(model) => {
                let xv = model.bindings[&x()];
                assert!(xv > 0, "x={xv}");
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn forced_equal_disequality_is_unsat() {
        let solver = Solver::default();
        let atoms = [
            cmp(Term::var(x(), 0), Rel::Eq, Term::var(y(), 0)),
            cmp(Term::var(x(), 0), Rel::Ne, Term::var(y(), 0)),
        ];
        assert_eq!(solver.solve(&atoms).verdict, Verdict::Unsat);
    }

    #[test]
    fn range_and_its_negation_conflict() {
        let solver = Solver::default();
        let range = Atom::InRange {
            term: Term::var(x(), 0),
            lo: -128,
            hi: 127,
            positive: true,
        };
        let atoms = [range.clone(), range.negate()];
        assert_eq!(solver.solve(&atoms).verdict, Verdict::Unsat);
    }

    #[test]
    fn negated_range_model_is_outside() {
        let solver = Solver::default();
        let atoms = [Atom::InRange {
            term: Term::var(x(), 0),
            lo: 0,
            hi: 3,
            positive: false,
        }];
        match solver.solve(&atoms).verdict {
            Verdict::Sat(model) => {
                let xv = model.bindings[&x()];
                assert!(!(0..=3).contains(&xv), "x={xv}");
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn predicate_conflicts_with_its_negation() {
        let solver = Solver::default();
        let live = Atom::Pred {
            name: "live(a)".into(),
            positive: true,
        };
        assert_eq!(
            solver.solve(&[live.clone(), live.negate()]).verdict,
            Verdict::Unsat
        );
        assert!(solver.solve(&[live]).verdict.feasible());
    }

    #[test]
    fn alpha_equivalent_sets_share_a_memo_entry() {
        let solver = Solver::default();
        let first = [cmp(Term::var(SymId(7), 0), Rel::Eq, Term::constant(1))];
        let second = [cmp(Term::var(SymId(99), 0), Rel::Eq, Term::constant(1))];
        let a = solver.solve(&first);
        let b = solver.solve(&second);
        assert!(!a.from_memo);
        assert!(b.from_memo, "alpha-equivalent query must hit the memo");
        let stats = solver.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // The Sat model is mapped back to the caller's variables.
        match b.verdict {
            Verdict::Sat(model) => {
                assert_eq!(model.bindings.get(&SymId(99)), Some(&1))
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn insertion_order_does_not_change_the_key() {
        let solver = Solver::default();
        let a = cmp(Term::var(x(), 0), Rel::Le, Term::constant(5));
        let b = cmp(Term::var(y(), 0), Rel::Ge, Term::constant(2));
        solver.solve(&[a.clone(), b.clone()]);
        let again = solver.solve(&[b, a]);
        assert!(again.from_memo, "permuted conjunction must hit the memo");
    }

    #[test]
    fn one_past_base_adjacency_is_satisfiable_with_layout_witness() {
        // base(a) + size(a) == base(b): the one-past-vs-adjacent-base layout.
        let solver = Solver::default();
        let atoms = [cmp(Term::var(x(), 4), Rel::Eq, Term::var(y(), 0))];
        match solver.solve(&atoms).verdict {
            Verdict::Sat(model) => {
                assert_eq!(
                    model.bindings[&x()] + 4,
                    model.bindings[&y()],
                    "layout witness must realise adjacency"
                );
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn renders_terms_with_names() {
        let atom = cmp(Term::var(x(), 4), Rel::Eq, Term::var(y(), 0));
        let names = |v: SymId| {
            if v == x() {
                "base(a)".to_owned()
            } else {
                "base(b)".to_owned()
            }
        };
        assert_eq!(atom.render(&names), "base(a) + 4 == base(b)");
    }
}
