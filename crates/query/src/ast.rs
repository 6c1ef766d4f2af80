//! Abstract syntax of the XQuery subset.

use partix_path::{CmpOp, PathExpr};
use std::fmt;

/// Arithmetic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Mod => "mod",
        })
    }
}

/// Where a path expression starts.
#[derive(Debug, Clone, PartialEq)]
pub enum PathStart {
    /// `collection("name")` — every document of a stored collection.
    Collection(String),
    /// `doc("name")` — one stored document.
    Doc(String),
    /// `$var` — a bound variable.
    Var(String),
}

/// A path expression with its start point. The `path` part is stored as a
/// [`PathExpr`]; for `Collection`/`Doc` starts it is matched absolutely
/// against each document (first step tests the root element), for `Var`
/// starts it is evaluated relative to each bound node.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSource {
    pub start: PathStart,
    pub path: PathExpr,
}

impl fmt::Display for PathSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.start {
            PathStart::Collection(name) => write!(f, "collection(\"{name}\")")?,
            PathStart::Doc(name) => write!(f, "doc(\"{name}\")")?,
            PathStart::Var(name) => write!(f, "${name}")?,
        }
        if !self.path.steps.is_empty() {
            let mut p = self.path.clone();
            p.absolute = true; // render with a leading slash
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// A `for` or `let` binding clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    pub var: String,
    pub expr: Expr,
}

/// Sort direction of an `order by` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    Ascending,
    Descending,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// FLWOR.
    Flwor {
        /// Interleaved `for`/`let` clauses in source order.
        clauses: Vec<Clause>,
        where_clause: Option<Box<Expr>>,
        order_by: Option<(Box<Expr>, SortDir)>,
        ret: Box<Expr>,
    },
    /// A path from a collection, document, or variable.
    Path(PathSource),
    /// String literal.
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// `lhs θ rhs` — general (existential) comparison.
    Cmp { lhs: Box<Expr>, op: CmpOp, rhs: Box<Expr> },
    /// `lhs ⊕ rhs` — numeric arithmetic over singleton operands.
    Arith { lhs: Box<Expr>, op: ArithOp, rhs: Box<Expr> },
    /// Unary minus.
    Neg(Box<Expr>),
    /// `if (cond) then … else …`.
    If { cond: Box<Expr>, then: Box<Expr>, els: Box<Expr> },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    /// Built-in function call.
    Call { name: String, args: Vec<Expr> },
    /// Direct element constructor `<name a="v">{…}</name>`.
    Element {
        name: String,
        /// Literal attributes.
        attrs: Vec<(String, String)>,
        children: Vec<Expr>,
    },
    /// `(e1, e2, …)` — sequence concatenation.
    Seq(Vec<Expr>),
}

/// A `for` or `let` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    For(Binding),
    Let(Binding),
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub expr: Expr,
}

impl Query {
    /// Walk every [`PathSource`] in the query, mutably.
    pub fn visit_paths_mut(&mut self, f: &mut dyn FnMut(&mut PathSource)) {
        visit_expr_paths_mut(&mut self.expr, f);
    }

    /// Walk every [`PathSource`] in the query.
    pub fn visit_paths(&self, f: &mut dyn FnMut(&PathSource)) {
        visit_expr_paths(&self.expr, f);
    }

    /// Names of all collections the query reads.
    pub fn collections(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_paths(&mut |ps| {
            if let PathStart::Collection(name) = &ps.start {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }
}

impl Expr {
    /// The direct sub-expressions, in evaluation order: a FLWOR's binding
    /// expressions, then its `where`, its `order by` key and its `return`.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Flwor { clauses, where_clause, order_by, ret } => clauses
                .iter()
                .map(|(Clause::For(b) | Clause::Let(b))| &b.expr)
                .chain(where_clause.as_deref())
                .chain(order_by.as_ref().map(|(key, _)| &**key))
                .chain([&**ret])
                .collect(),
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Neg(e) => vec![e],
            Expr::If { cond, then, els } => vec![cond, then, els],
            Expr::And(es) | Expr::Or(es) | Expr::Seq(es) => es.iter().collect(),
            Expr::Call { args: es, .. } | Expr::Element { children: es, .. } => es.iter().collect(),
            Expr::Path(_) | Expr::Str(_) | Expr::Num(_) => Vec::new(),
        }
    }

    /// [`Expr::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Expr::Flwor { clauses, where_clause, order_by, ret } => clauses
                .iter_mut()
                .map(|(Clause::For(b) | Clause::Let(b))| &mut b.expr)
                .chain(where_clause.as_deref_mut())
                .chain(order_by.as_mut().map(|(key, _)| &mut **key))
                .chain([&mut **ret])
                .collect(),
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Neg(e) => vec![e],
            Expr::If { cond, then, els } => vec![cond, then, els],
            Expr::And(es) | Expr::Or(es) | Expr::Seq(es) => es.iter_mut().collect(),
            Expr::Call { args: es, .. } | Expr::Element { children: es, .. } => {
                es.iter_mut().collect()
            }
            Expr::Path(_) | Expr::Str(_) | Expr::Num(_) => Vec::new(),
        }
    }
}

fn visit_expr_paths_mut(expr: &mut Expr, f: &mut dyn FnMut(&mut PathSource)) {
    match expr {
        Expr::Path(ps) => f(ps),
        expr => expr.children_mut().into_iter().for_each(|e| visit_expr_paths_mut(e, f)),
    }
}

fn visit_expr_paths(expr: &Expr, f: &mut dyn FnMut(&PathSource)) {
    match expr {
        Expr::Path(ps) => f(ps),
        expr => expr.children().into_iter().for_each(|e| visit_expr_paths(e, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn collections_listed_once() {
        let q = parse_query(
            r#"for $i in collection("items")/Item
               where $i/Section = "CD"
               return count(collection("items")/Item)"#,
        )
        .unwrap();
        assert_eq!(q.collections(), ["items"]);
    }

    #[test]
    fn visit_paths_mut_rewrites() {
        let mut q = parse_query(r#"for $i in collection("a")/x return $i/y"#).unwrap();
        q.visit_paths_mut(&mut |ps| {
            if let PathStart::Collection(name) = &mut ps.start {
                *name = "b".to_owned();
            }
        });
        assert_eq!(q.collections(), ["b"]);
    }
}
