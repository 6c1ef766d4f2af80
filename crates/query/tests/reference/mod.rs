//! The reference evaluator: the AST interpreter the library ran before
//! queries were lowered, kept verbatim as the oracle the differential
//! suite compares the lowered evaluator against. It shares nothing with
//! the library's evaluation path: its own tuple materialisation
//! (`Env` maps cloned per tuple), its own built-ins ([`func`]), its own
//! string / number / comparison rules ([`value`]) and its own step-wise
//! path evaluation ([`path`]). Not a library path — test support only.

#![allow(dead_code)]

pub mod func;
pub mod path;
pub mod value;

use self::func::call_function;
use self::path::eval_path_from;
use self::value::{effective_boolean, general_compare, Legacy};
use partix_path::PathExpr;
use partix_query::ast::{Clause, Expr, PathSource, PathStart, SortDir};
use partix_query::{CollectionProvider, EvalError, Item, Query, Sequence};
use partix_xml::{Document, NodeId, NodeKind};
use std::collections::HashMap;
use std::sync::Arc;

/// The evaluator: borrows a provider, evaluates queries against it.
pub struct Interpreter<'a> {
    provider: &'a dyn CollectionProvider,
}

impl<'a> Interpreter<'a> {
    pub fn new(provider: &'a dyn CollectionProvider) -> Interpreter<'a> {
        Interpreter { provider }
    }

    /// Evaluate a whole query.
    pub fn eval(&self, query: &Query) -> Result<Sequence, EvalError> {
        let env = Env::default();
        self.eval_expr(&query.expr, &env)
    }

    fn eval_expr(&self, expr: &Expr, env: &Env) -> Result<Sequence, EvalError> {
        match expr {
            Expr::Str(s) => Ok(vec![Item::Str(s.clone())]),
            Expr::Num(n) => Ok(vec![Item::Num(*n)]),
            Expr::Path(ps) => self.eval_path_source(ps, env),
            Expr::Seq(es) => {
                let mut out = Vec::new();
                for e in es {
                    out.extend(self.eval_expr(e, env)?);
                }
                Ok(out)
            }
            Expr::Cmp { lhs, op, rhs } => {
                let l = self.eval_expr(lhs, env)?;
                let r = self.eval_expr(rhs, env)?;
                Ok(vec![Item::Bool(general_compare(&l, *op, &r))])
            }
            Expr::Arith { lhs, op, rhs } => {
                // XQuery arithmetic: empty operand -> empty result;
                // otherwise atomize the first item of each side
                let l = self.eval_expr(lhs, env)?;
                let r = self.eval_expr(rhs, env)?;
                let (Some(a), Some(b)) = (l.first(), r.first()) else {
                    return Ok(vec![]);
                };
                let (Some(a), Some(b)) = (a.legacy_number_value(), b.legacy_number_value()) else {
                    return Err(EvalError::TypeError(format!(
                        "arithmetic {op} needs numeric operands"
                    )));
                };
                use partix_query::ast::ArithOp;
                let v = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                    ArithOp::Mod => a % b,
                };
                Ok(vec![Item::Num(v)])
            }
            Expr::Neg(e) => {
                let v = self.eval_expr(e, env)?;
                match v.first() {
                    None => Ok(vec![]),
                    Some(item) => match item.legacy_number_value() {
                        Some(n) => Ok(vec![Item::Num(-n)]),
                        None => {
                            Err(EvalError::TypeError("unary minus needs a numeric operand".into()))
                        }
                    },
                }
            }
            Expr::If { cond, then, els } => {
                if effective_boolean(&self.eval_expr(cond, env)?) {
                    self.eval_expr(then, env)
                } else {
                    self.eval_expr(els, env)
                }
            }
            Expr::And(es) => {
                for e in es {
                    if !effective_boolean(&self.eval_expr(e, env)?) {
                        return Ok(vec![Item::Bool(false)]);
                    }
                }
                Ok(vec![Item::Bool(true)])
            }
            Expr::Or(es) => {
                for e in es {
                    if effective_boolean(&self.eval_expr(e, env)?) {
                        return Ok(vec![Item::Bool(true)]);
                    }
                }
                Ok(vec![Item::Bool(false)])
            }
            Expr::Call { name, args } => {
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(self.eval_expr(a, env)?);
                }
                call_function(name, arg_values)
            }
            Expr::Element { name, attrs, children } => {
                let mut doc = Document::new(name);
                for (k, v) in attrs {
                    doc.add_attribute(NodeId::ROOT, k, v);
                }
                for child in children {
                    let seq = self.eval_expr(child, env)?;
                    for item in seq {
                        append_item(&mut doc, NodeId::ROOT, &item);
                    }
                }
                Ok(vec![Item::Node(Arc::new(doc), NodeId::ROOT)])
            }
            Expr::Flwor { clauses, where_clause, order_by, ret } => {
                let mut tuples = self.flwor_tuples(clauses, where_clause.as_deref(), env)?;
                if let Some((key, dir)) = order_by {
                    let mut keyed: Vec<(SortKey, Env)> = Vec::with_capacity(tuples.len());
                    for tuple in tuples {
                        let seq = self.eval_expr(key, &tuple)?;
                        keyed.push((SortKey::from_sequence(&seq), tuple));
                    }
                    keyed.sort_by(|a, b| a.0.compare(&b.0));
                    if *dir == SortDir::Descending {
                        keyed.reverse();
                    }
                    tuples = keyed.into_iter().map(|(_, t)| t).collect();
                }
                let mut out = Vec::new();
                for tuple in &tuples {
                    out.extend(self.eval_expr(ret, tuple)?);
                }
                Ok(out)
            }
        }
    }

    /// Materialize a FLWOR's tuple stream: expand `for`/`let` clauses in
    /// source order, then apply the `where` filter. Tuples come out in
    /// binding order (document order for collection-driven clauses) —
    /// `order by` is *not* applied here.
    fn flwor_tuples(
        &self,
        clauses: &[Clause],
        where_clause: Option<&Expr>,
        env: &Env,
    ) -> Result<Vec<Env>, EvalError> {
        let mut tuples = vec![env.clone()];
        for clause in clauses {
            match clause {
                Clause::For(binding) => {
                    let mut next = Vec::new();
                    for tuple in &tuples {
                        let seq = self.eval_expr(&binding.expr, tuple)?;
                        for item in seq {
                            let mut t = tuple.clone();
                            t.bind(&binding.var, vec![item]);
                            next.push(t);
                        }
                    }
                    tuples = next;
                }
                Clause::Let(binding) => {
                    for tuple in &mut tuples {
                        let seq = self.eval_expr(&binding.expr, tuple)?;
                        tuple.bind(&binding.var, seq);
                    }
                }
            }
        }
        if let Some(w) = where_clause {
            let mut kept = Vec::with_capacity(tuples.len());
            for tuple in tuples {
                if effective_boolean(&self.eval_expr(w, &tuple)?) {
                    kept.push(tuple);
                }
            }
            tuples = kept;
        }
        Ok(tuples)
    }

    fn eval_path_source(&self, ps: &PathSource, env: &Env) -> Result<Sequence, EvalError> {
        match &ps.start {
            PathStart::Collection(name) => {
                let docs = self.provider.collection(name)?;
                let mut out = Vec::new();
                for doc in docs {
                    for id in eval_absolute(&doc, &ps.path) {
                        out.push(Item::Node(Arc::clone(&doc), id));
                    }
                }
                Ok(out)
            }
            PathStart::Doc(name) => {
                let doc = self.provider.document(name)?;
                Ok(eval_absolute(&doc, &ps.path)
                    .into_iter()
                    .map(|id| Item::Node(Arc::clone(&doc), id))
                    .collect())
            }
            PathStart::Var(var) => {
                let bound = env.lookup(var)?;
                if ps.path.steps.is_empty() {
                    return Ok(bound.clone());
                }
                let mut out = Vec::new();
                for item in bound {
                    if let Item::Node(doc, id) = item {
                        for hit in eval_path_from(doc, &[*id], &ps.path) {
                            out.push(Item::Node(Arc::clone(doc), hit));
                        }
                    }
                }
                Ok(out)
            }
        }
    }
}

/// Evaluate a stored relative path against a document as if absolute
/// (first step tests the root element) — the `collection("c")/Item`
/// convention.
fn eval_absolute(doc: &Document, path: &PathExpr) -> Vec<NodeId> {
    let mut p = path.clone();
    p.absolute = true;
    path::eval_path(doc, &p)
}

/// Variable bindings.
#[derive(Debug, Clone, Default)]
struct Env {
    vars: HashMap<String, Sequence>,
}

impl Env {
    fn bind(&mut self, var: &str, seq: Sequence) {
        self.vars.insert(var.to_owned(), seq);
    }

    fn lookup(&self, var: &str) -> Result<&Sequence, EvalError> {
        self.vars.get(var).ok_or_else(|| EvalError::UnboundVariable(var.to_owned()))
    }
}

/// Orderable key for `order by`: numeric when possible, else string.
#[derive(Debug, Clone, PartialEq)]
pub enum SortKey {
    Empty,
    Num(f64),
    Str(String),
}

impl SortKey {
    pub fn from_sequence(seq: &Sequence) -> SortKey {
        match seq.first() {
            None => SortKey::Empty,
            Some(item) => match item.legacy_number_value() {
                Some(n) => SortKey::Num(n),
                None => SortKey::Str(item.legacy_string_value()),
            },
        }
    }

    /// Total order over keys (named `compare` rather than implementing
    /// `Ord`: NaN keys collapse to `Equal`, which `Ord` must not do).
    pub fn compare(&self, other: &SortKey) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (SortKey::Empty, SortKey::Empty) => Ordering::Equal,
            (SortKey::Empty, _) => Ordering::Less,
            (_, SortKey::Empty) => Ordering::Greater,
            (SortKey::Num(a), SortKey::Num(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (SortKey::Str(a), SortKey::Str(b)) => a.cmp(b),
            (SortKey::Num(_), SortKey::Str(_)) => Ordering::Less,
            (SortKey::Str(_), SortKey::Num(_)) => Ordering::Greater,
        }
    }
}

/// Append an item into a document being constructed.
fn append_item(doc: &mut Document, parent: NodeId, item: &Item) {
    match item {
        Item::Node(src, id) => {
            let node = src.get(*id).expect("node belongs to doc");
            match node.kind() {
                NodeKind::Element => {
                    doc.graft(parent, src, *id);
                }
                NodeKind::Attribute => {
                    doc.add_attribute(parent, node.label(), node.value().unwrap_or(""));
                }
                NodeKind::Text => {
                    doc.add_text(parent, node.value().unwrap_or(""));
                }
            }
        }
        other => {
            doc.add_text(parent, &other.legacy_string_value());
        }
    }
}
