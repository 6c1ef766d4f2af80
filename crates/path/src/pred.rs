//! Simple predicates (paper Sec. 3.1) and their evaluation.

use crate::ast::PathExpr;
use crate::eval::Matcher;
use partix_xml::{Document, NodeRef};
use std::fmt;
use std::ops::ControlFlow;

/// Comparison operator `θ ∈ {=, <, >, ≠, ≤, ≥}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its arguments swapped (`<` ↔ `>`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op => op,
        }
    }

    /// The logical negation (`=` ↔ `≠`, `<` ↔ `≥`, …).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    pub fn holds<T: PartialOrd>(self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A literal comparison value — a string or a number from the domain `D`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Num(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Num(n) => write!(f, "{n}"),
        }
    }
}

/// Value functions `φv` usable on the left of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueFn {
    /// `count(P)` — number of nodes selected by `P`.
    Count,
    /// `string-length(P)` — length of the first selected node's string.
    StringLength,
    /// `number(P)` — numeric value of the first selected node.
    Number,
}

impl fmt::Display for ValueFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValueFn::Count => "count",
            ValueFn::StringLength => "string-length",
            ValueFn::Number => "number",
        })
    }
}

/// Boolean functions `φb`.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolFn {
    /// `contains(P, "s")` — some node selected by `P` contains `s`.
    Contains(PathExpr, String),
    /// `starts-with(P, "s")`.
    StartsWith(PathExpr, String),
    /// `empty(P)` — `P` selects no nodes.
    Empty(PathExpr),
}

/// A predicate over a document, as used in horizontal fragment
/// definitions and query `where` clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `P θ value` — existential comparison over the nodes selected by `P`.
    Cmp { path: PathExpr, op: CmpOp, value: Value },
    /// `φv(P) θ value`.
    FnCmp { func: ValueFn, path: PathExpr, op: CmpOp, value: Value },
    /// `φb(...)`.
    Bool(BoolFn),
    /// `Q` — true iff `Q` selects at least one node.
    Exists(PathExpr),
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    /// Parse a predicate from text; see [`crate::parse::parse_predicate`].
    pub fn parse(input: &str) -> Result<Predicate, crate::parse::PathParseError> {
        crate::parse::parse_predicate(input)
    }

    /// Evaluate against a document. Existential forms stop at the first
    /// witness, and node values are compared where they lie.
    pub fn eval(&self, doc: &Document) -> bool {
        match self {
            Predicate::Cmp { path, op, value } => {
                any_node(doc, path, |node| compare_string(&node.string_value(), *op, value))
            }
            Predicate::FnCmp { func, path, op, value } => {
                let lhs = match func {
                    ValueFn::Count => {
                        let mut count = 0usize;
                        any_node(doc, path, |_| {
                            count += 1;
                            false
                        });
                        count as f64
                    }
                    ValueFn::StringLength => match first_node(doc, path) {
                        Some(node) => node.string_value().chars().count() as f64,
                        None => return false,
                    },
                    ValueFn::Number => {
                        let number = first_node(doc, path)
                            .and_then(|n| n.string_value().trim().parse().ok());
                        match number {
                            Some(n) => n,
                            None => return false,
                        }
                    }
                };
                let rhs = match value {
                    Value::Num(n) => *n,
                    Value::Str(s) => match s.trim().parse::<f64>() {
                        Ok(n) => n,
                        Err(_) => return false,
                    },
                };
                op.holds(&lhs, &rhs)
            }
            Predicate::Bool(bf) => match bf {
                BoolFn::Contains(path, needle) => {
                    any_node(doc, path, |node| node.string_value().contains(needle.as_str()))
                }
                BoolFn::StartsWith(path, needle) => {
                    any_node(doc, path, |node| node.string_value().starts_with(needle.as_str()))
                }
                BoolFn::Empty(path) => first_node(doc, path).is_none(),
            },
            Predicate::Exists(path) => first_node(doc, path).is_some(),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(doc)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(doc)),
            Predicate::Not(p) => !p.eval(doc),
        }
    }

    /// The logical complement, kept shallow (`Not` wrapper except for
    /// direct comparisons, which negate their operator).
    ///
    /// Note: for `Cmp` the complement uses *universal* semantics via `Not`
    /// rather than operator negation, because `P θ v` is existential over
    /// possibly-many nodes; negating the operator would change meaning
    /// when `P` selects several nodes.
    pub fn complement(&self) -> Predicate {
        Predicate::Not(Box::new(self.clone()))
    }

    /// All path expressions mentioned by this predicate (its footprint).
    pub fn paths(&self) -> Vec<&PathExpr> {
        let mut out = Vec::new();
        self.collect_paths(&mut out);
        out
    }

    fn collect_paths<'a>(&'a self, out: &mut Vec<&'a PathExpr>) {
        match self {
            Predicate::Cmp { path, .. } | Predicate::FnCmp { path, .. } => out.push(path),
            Predicate::Bool(bf) => match bf {
                BoolFn::Contains(p, _) | BoolFn::StartsWith(p, _) | BoolFn::Empty(p) => {
                    out.push(p)
                }
            },
            Predicate::Exists(p) => out.push(p),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_paths(out);
                }
            }
            Predicate::Not(p) => p.collect_paths(out),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { path, op, value } => write!(f, "{path} {op} {value}"),
            Predicate::FnCmp { func, path, op, value } => {
                write!(f, "{func}({path}) {op} {value}")
            }
            Predicate::Bool(bf) => match bf {
                BoolFn::Contains(p, s) => write!(f, "contains({p}, \"{s}\")"),
                BoolFn::StartsWith(p, s) => write!(f, "starts-with({p}, \"{s}\")"),
                BoolFn::Empty(p) => write!(f, "empty({p})"),
            },
            Predicate::Exists(p) => write!(f, "{p}"),
            Predicate::And(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
            Predicate::Or(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" or ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
            Predicate::Not(p) => write!(f, "not({p})"),
        }
    }
}

/// True if `holds` of some node `path` selects in `doc` ([`eval_path`]'s
/// reading of absolute and relative paths); the walk ends at the first.
///
/// [`eval_path`]: crate::eval_path
fn any_node<'d>(
    doc: &'d Document,
    path: &PathExpr,
    mut holds: impl FnMut(NodeRef<'d>) -> bool,
) -> bool {
    let mut matcher = Matcher::new(&path.steps);
    let Some(resolved) = matcher.resolve(doc) else {
        return false;
    };
    let mut emit = |id| {
        let node = doc.get(id).expect("the walk yields nodes of doc");
        if holds(node) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let flow = if path.absolute {
        resolved.walk_absolute(doc, &mut emit)
    } else {
        resolved.walk(doc.root(), &mut emit)
    };
    flow.is_break()
}

/// The first node `path` selects in `doc`.
fn first_node<'d>(doc: &'d Document, path: &PathExpr) -> Option<NodeRef<'d>> {
    let mut first = None;
    any_node(doc, path, |node| {
        first = Some(node);
        true
    });
    first
}

/// Compare a node's string value against a literal. Numeric literals
/// force numeric comparison (non-numeric node values never match).
fn compare_string(node_value: &str, op: CmpOp, literal: &Value) -> bool {
    match literal {
        Value::Str(s) => op.holds(&node_value, &s.as_str()),
        Value::Num(n) => match node_value.trim().parse::<f64>() {
            Ok(v) => op.holds(&v, n),
            Err(_) => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_xml::parse;

    fn cd_item() -> Document {
        parse(
            r#"<Item><Section>CD</Section><Price>12.5</Price>
               <Characteristics><Description>a good record</Description></Characteristics>
               <PictureList><Picture/><Picture/></PictureList></Item>"#,
        )
        .unwrap()
    }

    fn holds(doc: &Document, src: &str) -> bool {
        Predicate::parse(src).unwrap().eval(doc)
    }

    #[test]
    fn string_equality() {
        let doc = cd_item();
        assert!(holds(&doc, r#"/Item/Section = "CD""#));
        assert!(!holds(&doc, r#"/Item/Section = "DVD""#));
        assert!(holds(&doc, r#"/Item/Section != "DVD""#));
    }

    #[test]
    fn numeric_comparison() {
        let doc = cd_item();
        assert!(holds(&doc, "/Item/Price < 20"));
        assert!(holds(&doc, "/Item/Price >= 12.5"));
        assert!(!holds(&doc, "/Item/Price > 12.5"));
        // Section is not numeric → numeric comparisons are false
        assert!(!holds(&doc, "/Item/Section < 20"));
    }

    #[test]
    fn contains_and_starts_with() {
        let doc = cd_item();
        assert!(holds(&doc, r#"contains(//Description, "good")"#));
        assert!(!holds(&doc, r#"contains(//Description, "bad")"#));
        assert!(holds(&doc, r#"starts-with(//Description, "a good")"#));
        assert!(holds(&doc, r#"not(contains(//Description, "bad"))"#));
    }

    #[test]
    fn existential_and_empty() {
        let doc = cd_item();
        assert!(holds(&doc, "/Item/PictureList"));
        assert!(!holds(&doc, "/Item/PricesHistory"));
        assert!(holds(&doc, "empty(/Item/PricesHistory)"));
        assert!(!holds(&doc, "empty(/Item/PictureList)"));
    }

    #[test]
    fn count_function() {
        let doc = cd_item();
        assert!(holds(&doc, "count(/Item/PictureList/Picture) = 2"));
        assert!(holds(&doc, "count(/Item/PictureList/Picture) >= 2"));
        assert!(!holds(&doc, "count(/Item/PictureList/Picture) > 2"));
        assert!(holds(&doc, "count(/Item/Nothing) = 0"));
    }

    #[test]
    fn conjunction_disjunction() {
        let doc = cd_item();
        assert!(holds(
            &doc,
            r#"/Item/Section = "CD" and contains(//Description, "good")"#
        ));
        assert!(!holds(
            &doc,
            r#"/Item/Section = "DVD" and contains(//Description, "good")"#
        ));
        assert!(holds(
            &doc,
            r#"/Item/Section = "DVD" or contains(//Description, "good")"#
        ));
    }

    #[test]
    fn existential_comparison_over_many_nodes() {
        // two Sections; = "CD" is true existentially, and != "CD" is ALSO
        // true existentially (the DVD node) — the paper's semantics.
        let doc = parse("<I><S>CD</S><S>DVD</S></I>").unwrap();
        assert!(holds(&doc, r#"/I/S = "CD""#));
        assert!(holds(&doc, r#"/I/S != "CD""#));
        // complement() is therefore Not-based, not operator negation:
        let p = Predicate::parse(r#"/I/S = "CD""#).unwrap();
        assert!(!p.complement().eval(&doc));
    }

    #[test]
    fn display_roundtrip_through_parser() {
        for src in [
            r#"/Item/Section = "CD""#,
            r#"contains(//Description, "good")"#,
            "count(/a/b) >= 2",
            "empty(/a)",
            r#"(/a = "1") and (/b = "2")"#,
            r#"not(/a = "1")"#,
        ] {
            let p = Predicate::parse(src).unwrap();
            let p2 = Predicate::parse(&p.to_string()).unwrap();
            assert_eq!(p, p2, "{src} → {p}");
        }
    }

    #[test]
    fn footprint_collection() {
        let p = Predicate::parse(
            r#"/a/b = "1" and contains(//c, "x") and count(/d) > 0"#,
        )
        .unwrap();
        let paths: Vec<String> = p.paths().iter().map(|p| p.to_string()).collect();
        assert_eq!(paths, ["/a/b", "//c", "/d"]);
    }
}
