//! Lowering: a parsed [`Query`] becomes a [`Program`], the resolved tree
//! the evaluator runs.
//!
//! Everything that can be decided from the query text alone is decided
//! here, once per evaluation (it takes microseconds; nothing is cached):
//!
//! * a variable reference becomes the number of bindings between it and
//!   its binder (`for` / `let` clauses nest like blocks, an inner binding
//!   of the same name shadows the outer one); a name that is not in scope
//!   becomes a node that fails *when evaluated*;
//! * a function name becomes a [`Builtin`](crate::func::Builtin), or a
//!   node that fails when evaluated;
//! * literals become the items they stand for;
//! * comparisons and calls learn whether their operands can fail, which
//!   is what allows an existential test to stop at its first witness;
//! * every path gets a slot for the matcher that resolves it, document
//!   after document, during a run;
//! * the **driving scan** ([`driving_scan`]) is marked: the one
//!   `collection(…)` read a caller may lend documents to — the candidates
//!   an index shortlisted.
//!
//! Lowering covers the whole language; there is no shape it rejects.

use crate::ast::{ArithOp, Clause, Expr, PathSource, PathStart, Query, SortDir};
use crate::func::Func;
use crate::value::Item;
use partix_path::{CmpOp, Step};

/// A lowered query. Owns everything it needs.
#[derive(Debug)]
pub struct Program {
    /// The whole query, lowered.
    pub(crate) root: Node,
    /// The step arrays of the query's paths; a path node holds its index.
    pub(crate) paths: Vec<Vec<Step>>,
    /// The collection the driving scan reads.
    pub(crate) driving: Option<String>,
}

impl Program {
    /// Lower `query`.
    pub fn lower(query: &Query) -> Program {
        let driving = driving_scan(&query.expr);
        let mut lowering = Lowering { scope: Vec::new(), paths: Vec::new(), driving };
        let (root, _) = lowering.expr(&query.expr);
        Program {
            root,
            paths: lowering.paths,
            driving: driving.map(|(collection, _)| collection.to_owned()),
        }
    }

    /// The collection the driving scan reads, if the query has one: its
    /// documents may be lent to the run ([`Program::run_lending`]).
    pub fn driving_collection(&self) -> Option<&str> {
        self.driving.as_deref()
    }
}

/// The **driving scan** of a query: the `collection(…)` path its FLWOR's
/// first `for` clause ranges over — or that a bare path query consists
/// of — found through single-argument calls and the left side of a
/// comparison, which is where [`pushdown::analyze`](crate::pushdown)
/// looks too. Every result tuple stems from one document of this scan,
/// so it is the one read whose documents a caller may choose: the
/// candidates that pass the per-document predicate `analyze` extracts
/// from the same FLWOR. A first `for` over anything else (a variable, a
/// `doc(…)`) leaves the query without one.
pub(crate) fn driving_scan(expr: &Expr) -> Option<(&str, &PathSource)> {
    let scan = match expr {
        Expr::Call { args, .. } if args.len() == 1 => return driving_scan(&args[0]),
        Expr::Cmp { lhs, .. } => return driving_scan(lhs),
        Expr::Path(scan) => scan,
        Expr::Flwor { clauses, .. } => {
            let first_for = clauses.iter().find_map(|clause| match clause {
                Clause::For(binding) => Some(binding),
                Clause::Let(_) => None,
            })?;
            let Expr::Path(scan) = &first_for.expr else {
                return None;
            };
            scan
        }
        _ => return None,
    };
    match &scan.start {
        PathStart::Collection(collection) => Some((collection, scan)),
        PathStart::Doc(_) | PathStart::Var(_) => None,
    }
}

#[derive(Debug)]
pub(crate) enum Node {
    /// A literal, built once.
    Const(Item),
    /// `$v`: the binding this many hops up the chain.
    Var(usize),
    /// `$v` with no binder in scope.
    Unbound(String),
    /// `$v/steps`; `path` indexes [`Program::paths`].
    VarPath {
        hops: usize,
        path: usize,
    },
    /// `collection("name")/steps`, matched absolutely per document.
    /// `driving`: this is the driving scan, which reads the documents the
    /// caller lent, if any.
    Collection {
        name: String,
        path: usize,
        driving: bool,
    },
    /// `doc("name")/steps`.
    Doc {
        name: String,
        path: usize,
    },
    Seq(Vec<Node>),
    /// `pure`: neither operand can fail.
    Cmp {
        lhs: Box<Node>,
        op: CmpOp,
        rhs: Box<Node>,
        pure: bool,
    },
    Arith {
        lhs: Box<Node>,
        op: ArithOp,
        rhs: Box<Node>,
    },
    Neg(Box<Node>),
    If {
        cond: Box<Node>,
        then: Box<Node>,
        els: Box<Node>,
    },
    And(Vec<Node>),
    Or(Vec<Node>),
    /// `pure`: no argument can fail.
    Call {
        func: Func,
        args: Vec<Node>,
        pure: bool,
    },
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<Node>,
    },
    Flwor(Box<Flwor>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClauseKind {
    For,
    Let,
}

#[derive(Debug)]
pub(crate) struct Flwor {
    /// Binding expressions in source order; clause `i` is `i` hops up the
    /// chain from the last one.
    pub(crate) clauses: Vec<(ClauseKind, Node)>,
    pub(crate) filter: Option<Node>,
    pub(crate) order: Option<(Node, SortDir)>,
    pub(crate) ret: Node,
}

struct Lowering<'q> {
    /// Names bound around the expression being lowered, innermost last.
    scope: Vec<&'q str>,
    paths: Vec<Vec<Step>>,
    driving: Option<(&'q str, &'q PathSource)>,
}

impl<'q> Lowering<'q> {
    /// `expr` lowered, and whether it is *pure*: evaluating it cannot
    /// fail, whatever the data.
    fn expr(&mut self, expr: &'q Expr) -> (Node, bool) {
        match expr {
            Expr::Str(s) => (Node::Const(Item::Str(s.clone())), true),
            Expr::Num(n) => (Node::Const(Item::Num(*n)), true),
            Expr::Path(ps) => {
                let mut path = || {
                    self.paths.push(ps.path.steps.clone());
                    self.paths.len() - 1
                };
                match &ps.start {
                    PathStart::Collection(name) => {
                        let driving = self.driving.is_some_and(|(_, scan)| std::ptr::eq(scan, ps));
                        (Node::Collection { name: name.clone(), path: path(), driving }, false)
                    }
                    PathStart::Doc(name) => (Node::Doc { name: name.clone(), path: path() }, false),
                    PathStart::Var(var) => {
                        match self.scope.iter().rev().position(|bound| *bound == var.as_str()) {
                            None => (Node::Unbound(var.clone()), false),
                            Some(hops) if ps.path.steps.is_empty() => (Node::Var(hops), true),
                            Some(hops) => (Node::VarPath { hops, path: path() }, true),
                        }
                    }
                }
            }
            Expr::Seq(es) => {
                let (nodes, pure) = self.exprs(es);
                (Node::Seq(nodes), pure)
            }
            Expr::And(es) => {
                let (nodes, pure) = self.exprs(es);
                (Node::And(nodes), pure)
            }
            Expr::Or(es) => {
                let (nodes, pure) = self.exprs(es);
                (Node::Or(nodes), pure)
            }
            Expr::Cmp { lhs, op, rhs } => {
                let ((lhs, l), (rhs, r)) = (self.expr(lhs), self.expr(rhs));
                let pure = l && r;
                (Node::Cmp { lhs: Box::new(lhs), op: *op, rhs: Box::new(rhs), pure }, pure)
            }
            Expr::Arith { lhs, op, rhs } => {
                let ((lhs, _), (rhs, _)) = (self.expr(lhs), self.expr(rhs));
                (Node::Arith { lhs: Box::new(lhs), op: *op, rhs: Box::new(rhs) }, false)
            }
            Expr::Neg(e) => (Node::Neg(Box::new(self.expr(e).0)), false),
            Expr::If { cond, then, els } => {
                let ((cond, c), (then, t), (els, e)) =
                    (self.expr(cond), self.expr(then), self.expr(els));
                let node =
                    Node::If { cond: Box::new(cond), then: Box::new(then), els: Box::new(els) };
                (node, c && t && e)
            }
            Expr::Call { name, args } => {
                let func = Func::named(name);
                let (args, pure) = self.exprs(args);
                let total = match &func {
                    Func::Builtin(b) => b.infallible() && b.arity().is_none_or(|n| n == args.len()),
                    Func::Unknown(_) => false,
                };
                (Node::Call { func, args, pure }, pure && total)
            }
            Expr::Element { name, attrs, children } => {
                let (children, pure) = self.exprs(children);
                (Node::Element { name: name.clone(), attrs: attrs.clone(), children }, pure)
            }
            Expr::Flwor { clauses, where_clause, order_by, ret } => {
                let outer = self.scope.len();
                let mut pure = true;
                let mut part = |this: &mut Self, expr: &'q Expr| {
                    let (node, p) = this.expr(expr);
                    pure &= p;
                    node
                };
                let mut lowered = Vec::with_capacity(clauses.len());
                for clause in clauses {
                    let (kind, binding) = match clause {
                        Clause::For(binding) => (ClauseKind::For, binding),
                        Clause::Let(binding) => (ClauseKind::Let, binding),
                    };
                    // the binding expression sees the clauses before it
                    lowered.push((kind, part(self, &binding.expr)));
                    self.scope.push(&binding.var);
                }
                let filter = where_clause.as_deref().map(|w| part(self, w));
                let order = order_by.as_ref().map(|(key, dir)| (part(self, key), *dir));
                let ret = part(self, ret);
                self.scope.truncate(outer);
                (Node::Flwor(Box::new(Flwor { clauses: lowered, filter, order, ret })), pure)
            }
        }
    }

    fn exprs(&mut self, exprs: &'q [Expr]) -> (Vec<Node>, bool) {
        let mut pure = true;
        let nodes = exprs
            .iter()
            .map(|expr| {
                let (node, p) = self.expr(expr);
                pure &= p;
                node
            })
            .collect();
        (nodes, pure)
    }
}
