//! Static analysis of paths and predicates for data localization.
//!
//! PartiX prunes sub-queries that cannot produce results (paper Sec. 4:
//! *"when a query arrives, PartiX analyzes the fragmentation schema to
//! properly split it into sub-queries, and then sends each sub-query to
//! its respective fragment"*). Two decisions drive the pruning:
//!
//! 1. **Path overlap** — can a query path select anything inside the
//!    subtree a vertical fragment projects? Paths are compiled to small
//!    NFAs over the label alphabet and intersected; `//` and `*` are
//!    handled exactly (positional filters are ignored, which only errs
//!    toward *keeping* a fragment — sound for localization).
//! 2. **Predicate co-satisfiability** — can one document satisfy both the
//!    query predicate and a horizontal fragment's defining predicate?
//!    A conservative contradiction check over conjunctions of simple
//!    comparisons `P θ v` on one single-valued path; anything not provably
//!    contradictory is kept. It assumes the semantics of
//!    [`crate::pred::compare`], which membership and the evaluator
//!    decide with: numeric when either side is a number (a text that does
//!    not parse matches nothing), byte-wise as strings otherwise. A
//!    contradiction needs one non-negated atom: `not(P θ v)` holds where
//!    `P` is absent, so two negated atoms never clash.

use crate::ast::{Axis, NodeTest, PathExpr};
use crate::pred::{compare, CmpOp, Operand, Predicate, Value};
use std::collections::HashSet;

/// Transition label of a path NFA.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Label {
    Elem(String),
    AnyElem,
    Attr(String),
    /// Any attribute — used only by subtree closures.
    AnyAttr,
}

fn compatible(a: &Label, b: &Label) -> bool {
    use Label::*;
    match (a, b) {
        (Elem(x), Elem(y)) => x == y,
        (Elem(_), AnyElem) | (AnyElem, Elem(_)) | (AnyElem, AnyElem) => true,
        (Attr(x), Attr(y)) => x == y,
        (Attr(_), AnyAttr) | (AnyAttr, Attr(_)) | (AnyAttr, AnyAttr) => true,
        _ => false,
    }
}

#[derive(Debug, Clone)]
struct Nfa {
    /// `transitions[s]` = list of `(label, target)`.
    transitions: Vec<Vec<(Label, usize)>>,
    accept: usize,
}

impl Nfa {
    /// Compile a path: state `k` = "matched the first `k` steps".
    fn from_path(path: &PathExpr) -> Nfa {
        let n = path.steps.len();
        let mut transitions: Vec<Vec<(Label, usize)>> = vec![Vec::new(); n + 1];
        for (i, step) in path.steps.iter().enumerate() {
            if step.axis == Axis::Descendant {
                // any run of intermediate elements before the step
                transitions[i].push((Label::AnyElem, i));
            }
            let label = match &step.test {
                NodeTest::Name(name) => Label::Elem(name.clone()),
                NodeTest::AnyElement => Label::AnyElem,
                NodeTest::Attribute(name) => Label::Attr(name.clone()),
            };
            transitions[i].push((label, i + 1));
        }
        Nfa { transitions, accept: n }
    }

    /// Extend so the automaton also accepts any node *inside* the subtree
    /// rooted at an accepted node (descendant elements and attributes).
    fn with_subtree_closure(mut self) -> Nfa {
        let accept = self.accept;
        self.transitions[accept].push((Label::AnyElem, accept));
        self.transitions[accept].push((Label::AnyAttr, accept));
        self
    }
}

/// Can the two automata accept a common label sequence?
fn nfas_intersect(a: &Nfa, b: &Nfa) -> bool {
    let mut seen = HashSet::new();
    let mut stack = vec![(0usize, 0usize)];
    while let Some((sa, sb)) = stack.pop() {
        if !seen.insert((sa, sb)) {
            continue;
        }
        if sa == a.accept && sb == b.accept {
            return true;
        }
        for (la, ta) in &a.transitions[sa] {
            for (lb, tb) in &b.transitions[sb] {
                if compatible(la, lb) && !seen.contains(&(*ta, *tb)) {
                    stack.push((*ta, *tb));
                }
            }
        }
    }
    false
}

/// Can paths `a` and `b` select a common node in some document?
///
/// Both paths are interpreted from the same context (document root).
/// Positional filters are ignored — a sound over-approximation.
pub fn paths_may_intersect(a: &PathExpr, b: &PathExpr) -> bool {
    nfas_intersect(&Nfa::from_path(a), &Nfa::from_path(b))
}

/// Can a node selected by `query` lie inside the subtree rooted at a node
/// selected by `subtree_root`? (Ancestor-or-self on the root side.)
pub fn path_may_reach_into(subtree_root: &PathExpr, query: &PathExpr) -> bool {
    nfas_intersect(
        &Nfa::from_path(subtree_root).with_subtree_closure(),
        &Nfa::from_path(query),
    )
}

/// Is a vertical fragment projecting `projected` relevant to a query whose
/// footprint includes `query_path`? Relevant iff the query can select a
/// node inside the projected subtree, or a node on the path above it
/// (whose reconstructed result would include fragment content).
pub fn fragment_relevant_to_path(projected: &PathExpr, query_path: &PathExpr) -> bool {
    path_may_reach_into(projected, query_path) || path_may_reach_into(query_path, projected)
}

/// A comparison `P θ v` of a conjunction, under its `not` if it had one:
/// `not(P θ v)` also holds where `P` selects no node, or a text that is
/// no number, which `P θ′ v` does not.
#[derive(Debug, Clone)]
struct Atom<'a> {
    path: &'a PathExpr,
    op: CmpOp,
    value: &'a Value,
    negated: bool,
}

/// The comparison atoms of a conjunction. Anything else — an existential
/// test, a boolean or value function, a disjunction, a negated
/// conjunction — is left out: leaving a conjunct out only widens what the
/// conjunction admits, so a contradiction among the atoms kept is one of
/// the whole.
fn collect_atoms<'a>(pred: &'a Predicate, negated: bool, out: &mut Vec<Atom<'a>>) {
    match pred {
        Predicate::Cmp { path, op, value } => out.push(Atom { path, op: *op, value, negated }),
        Predicate::And(ps) if !negated => ps.iter().for_each(|p| collect_atoms(p, false, out)),
        // ¬(a ∨ b) = ¬a ∧ ¬b
        Predicate::Or(ps) if negated => ps.iter().for_each(|p| collect_atoms(p, true, out)),
        Predicate::Not(p) => collect_atoms(p, !negated, out),
        _ => {}
    }
}

/// Could one document satisfy both predicates?
///
/// `single_valued` tells the analysis which paths are known (from the
/// schema) to select at most one node per document; only for those is
/// `P = "a" ∧ P = "b"` a contradiction. Paths not known single-valued are
/// treated existentially and never produce contradictions.
pub fn predicates_may_cosatisfy(
    a: &Predicate,
    b: &Predicate,
    single_valued: &dyn Fn(&PathExpr) -> bool,
) -> bool {
    // expand top-level disjunctions: a ∧ (b1 ∨ b2) is satisfiable iff
    // some disjunct is
    if let Predicate::Or(ps) = b {
        return ps.iter().any(|p| predicates_may_cosatisfy(a, p, single_valued));
    }
    if let Predicate::Or(ps) = a {
        return ps.iter().any(|p| predicates_may_cosatisfy(p, b, single_valued));
    }
    let mut atoms = Vec::new();
    collect_atoms(a, false, &mut atoms);
    collect_atoms(b, false, &mut atoms);
    !atoms.iter().enumerate().any(|(i, x)| {
        atoms[i + 1..].iter().any(|y| {
            x.path == y.path && single_valued(x.path) && (excludes(x, y) || excludes(y, x))
        })
    })
}

/// Does `a` holding rule out `b` holding, both on one single-valued path?
/// Only a non-negated `a` says the path's node is there, and a number if
/// its literal is one; a string `=` also says what its text is, and the
/// shared comparison decides `b` on that text. Otherwise `b` must have a
/// literal of `a`'s kind: the value is then of that kind, and `not(θ)` is
/// `θ`'s negation (a `NaN` meets only `≠`, which clashes only with `=`).
fn excludes(a: &Atom<'_>, b: &Atom<'_>) -> bool {
    let b_op = if b.negated { b.op.negate() } else { b.op };
    match (a.value, b.value) {
        _ if a.negated => false,
        (Value::Str(text), _) if a.op == CmpOp::Eq => {
            compare(&Operand::Str(text.into()), b.op, &b.value.operand()) == b.negated
        }
        (Value::Str(x), Value::Str(y)) => !ranges_meet(a.op, x.as_str(), b_op, y.as_str()),
        (Value::Num(x), Value::Num(y)) => !ranges_meet(a.op, x, b_op, y),
        _ => false,
    }
}

/// Can one value `x` of a total order have both `x θa va` and `x θb vb`?
/// `≠` removes one point, so it clashes only with `=` of that point; a
/// lower bound clashes with an upper bound it does not lie under.
fn ranges_meet<T: PartialOrd + ?Sized>(a: CmpOp, va: &T, b: CmpOp, vb: &T) -> bool {
    use CmpOp::*;
    let under = |lower: CmpOp, x: &T, upper: CmpOp, y: &T| match (lower, upper) {
        (Eq | Ge, Eq | Le) => x <= y,
        (Eq | Ge | Gt, Eq | Le | Lt) => x < y,
        _ => true,
    };
    match (a, b) {
        (Eq, Ne) | (Ne, Eq) => va != vb,
        _ => under(a, va, b, vb) && under(b, vb, a, va),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    fn pr(s: &str) -> Predicate {
        Predicate::parse(s).unwrap()
    }

    const SINGLE: fn(&PathExpr) -> bool = |_| true;
    const MULTI: fn(&PathExpr) -> bool = |_| false;

    #[test]
    fn exact_paths_intersect_iff_equal() {
        assert!(paths_may_intersect(&p("/a/b"), &p("/a/b")));
        assert!(!paths_may_intersect(&p("/a/b"), &p("/a/c")));
        assert!(!paths_may_intersect(&p("/a/b"), &p("/a/b/c")));
    }

    #[test]
    fn descendant_paths_intersect() {
        assert!(paths_may_intersect(&p("//b"), &p("/a/b")));
        assert!(paths_may_intersect(&p("//b"), &p("/a/x/y/b")));
        assert!(!paths_may_intersect(&p("//b"), &p("/a/c")));
        assert!(paths_may_intersect(&p("/a//d"), &p("/a/b/c/d")));
        assert!(!paths_may_intersect(&p("/z//d"), &p("/a/b/c/d")));
    }

    #[test]
    fn wildcard_paths_intersect() {
        assert!(paths_may_intersect(&p("/a/*"), &p("/a/b")));
        assert!(!paths_may_intersect(&p("/a/*"), &p("/x/b")));
        assert!(paths_may_intersect(&p("/a/*/c"), &p("/a/b/c")));
    }

    #[test]
    fn attributes_never_match_elements() {
        assert!(!paths_may_intersect(&p("/a/@id"), &p("/a/id")));
        assert!(paths_may_intersect(&p("/a/@id"), &p("/a/@id")));
        assert!(!paths_may_intersect(&p("/a/@id"), &p("/a/@other")));
        assert!(!paths_may_intersect(&p("/a/*"), &p("/a/@id")));
    }

    #[test]
    fn reach_into_subtree() {
        // fragment projects /Store/Items; query touches items' sections
        assert!(path_may_reach_into(&p("/Store/Items"), &p("/Store/Items/Item/Section")));
        assert!(path_may_reach_into(&p("/Store/Items"), &p("/Store/Items")));
        assert!(!path_may_reach_into(&p("/Store/Items"), &p("/Store/Sections/Section")));
        // // queries reach into everything label-compatible
        assert!(path_may_reach_into(&p("/Store/Items"), &p("//Section")));
        // attribute inside projected subtree
        assert!(path_may_reach_into(&p("/Store/Items"), &p("/Store/Items/Item/@id")));
    }

    #[test]
    fn fragment_relevance_is_symmetric_on_ancestors() {
        // query /Store returns whole store ⇒ needs the Items fragment too
        assert!(fragment_relevant_to_path(&p("/Store/Items"), &p("/Store")));
        assert!(fragment_relevant_to_path(&p("/Store/Items"), &p("/Store/Items/Item")));
        assert!(!fragment_relevant_to_path(&p("/Store/Items"), &p("/Store/Employees")));
    }

    #[test]
    fn equality_contradictions_single_valued() {
        let cd = pr(r#"/Item/Section = "CD""#);
        let dvd = pr(r#"/Item/Section = "DVD""#);
        assert!(!predicates_may_cosatisfy(&cd, &dvd, &SINGLE));
        assert!(predicates_may_cosatisfy(&cd, &cd, &SINGLE));
        // multi-valued: both can hold
        assert!(predicates_may_cosatisfy(&cd, &dvd, &MULTI));
    }

    #[test]
    fn eq_vs_ne() {
        let eq = pr(r#"/Item/Section = "CD""#);
        let ne = pr(r#"/Item/Section != "CD""#);
        let ne_other = pr(r#"/Item/Section != "DVD""#);
        assert!(!predicates_may_cosatisfy(&eq, &ne, &SINGLE));
        assert!(predicates_may_cosatisfy(&eq, &ne_other, &SINGLE));
    }

    #[test]
    fn not_wrapper_negates() {
        let eq = pr(r#"/Item/Section = "CD""#);
        let not_eq = pr(r#"not(/Item/Section = "CD")"#);
        assert!(!predicates_may_cosatisfy(&eq, &not_eq, &SINGLE));
    }

    #[test]
    fn numeric_range_contradictions() {
        assert!(!predicates_may_cosatisfy(
            &pr("/p = 10"),
            &pr("/p > 20"),
            &SINGLE
        ));
        assert!(predicates_may_cosatisfy(
            &pr("/p > 5"),
            &pr("/p < 20"),
            &SINGLE
        ));
        assert!(!predicates_may_cosatisfy(
            &pr("/p < 5"),
            &pr("/p > 20"),
            &SINGLE
        ));
        assert!(!predicates_may_cosatisfy(
            &pr("/p < 5"),
            &pr("/p >= 5"),
            &SINGLE
        ));
        assert!(predicates_may_cosatisfy(
            &pr("/p <= 5"),
            &pr("/p >= 5"),
            &SINGLE
        ));
    }

    #[test]
    fn conjunctions_accumulate() {
        let frag = pr(r#"/Item/Section != "CD" and /Item/Section != "DVD""#);
        let q_cd = pr(r#"/Item/Section = "CD""#);
        let q_book = pr(r#"/Item/Section = "BOOK""#);
        assert!(!predicates_may_cosatisfy(&frag, &q_cd, &SINGLE));
        assert!(predicates_may_cosatisfy(&frag, &q_book, &SINGLE));
    }

    #[test]
    fn disjunction_disables_pruning() {
        let frag = pr(r#"/Item/Section = "CD""#);
        let q = pr(r#"/Item/Section = "DVD" or /Item/Price < 5"#);
        assert!(predicates_may_cosatisfy(&frag, &q, &SINGLE));
    }

    #[test]
    fn different_paths_never_contradict() {
        assert!(predicates_may_cosatisfy(
            &pr(r#"/a = "x""#),
            &pr(r#"/b = "y""#),
            &SINGLE
        ));
    }

    #[test]
    fn unknown_predicates_are_kept() {
        let frag = pr(r#"contains(//Description, "good")"#);
        let q = pr(r#"not(contains(//Description, "good"))"#);
        // we do not reason about contains → conservatively co-satisfiable
        assert!(predicates_may_cosatisfy(&frag, &q, &SINGLE));
    }
}
