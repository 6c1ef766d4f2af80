//! Recursive-descent parser for path expressions and simple predicates.

use crate::ast::{Axis, NodeTest, PathExpr, Step};
use crate::pred::{BoolFn, CmpOp, Predicate, Value, ValueFn};
use std::fmt;

/// Error produced while parsing a path or predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for PathParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for PathParseError {}

/// Deepest nesting — and longest path, in steps — the path, predicate and
/// query parsers accept. The parsers, every walk over what they build
/// (analysis, lowering, evaluation, `Drop`) and the step matcher recurse
/// once per level, so this bound is what keeps a hostile text from
/// overflowing a 2 MiB thread stack. The paper's query sets nest a
/// handful of levels; 128 is what still fits that stack with room to
/// spare in an unoptimised build, where one level of a recursive-descent
/// parse costs ≈ 11 KB.
pub const MAX_DEPTH: usize = 128;

/// Parse a path expression like `/Store/Items//Item[2]/@id`.
pub fn parse_path(input: &str) -> Result<PathExpr, PathParseError> {
    let mut p = Cursor::new(input);
    let path = p.path()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after path"));
    }
    Ok(path)
}

/// Parse a simple predicate, e.g.:
///
/// * `/Item/Section = "CD"`
/// * `count(/Item/PictureList/Picture) >= 2`
/// * `contains(//Description, "good")`
/// * `not(contains(//Description, "good"))`
/// * `empty(/Item/PictureList)`
/// * `/Item/PictureList` (existential)
/// * conjunctions / disjunctions: `p1 and p2`, `p1 or p2`
pub fn parse_predicate(input: &str) -> Result<Predicate, PathParseError> {
    let mut p = Cursor::new(input);
    let pred = p.or_expr()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after predicate"));
    }
    Ok(pred)
}

struct Cursor<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open `(` / `not(` groups around the cursor.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Cursor<'a> {
        Cursor { input, bytes: input.as_bytes(), pos: 0, depth: 0 }
    }

    /// Parse a parenthesised group's inside, one level deeper.
    fn nested(&mut self) -> Result<Predicate, PathParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let inner = self.or_expr();
        self.depth -= 1;
        inner
    }

    fn error(&self, message: impl Into<String>) -> PathParseError {
        PathParseError { offset: self.pos, message: message.into() }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Peek whether a keyword follows (not part of a longer name).
    fn at_keyword(&self, kw: &str) -> bool {
        let rest = &self.input[self.pos..];
        rest.starts_with(kw)
            && !rest[kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-')
    }

    fn name(&mut self) -> Result<String, PathParseError> {
        let start = self.pos;
        while let Some(c) = self.input[self.pos..].chars().next() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c as u32 >= 0x80 {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    // path ::= ('/' | '//')? step (('/' | '//') step)*
    fn path(&mut self) -> Result<PathExpr, PathParseError> {
        self.skip_ws();
        let mut steps = Vec::new();
        let absolute = self.peek() == Some(b'/');
        let mut axis = if self.eat("//") {
            Axis::Descendant
        } else {
            self.eat("/"); // absolute child step, or relative path
            Axis::Child
        };
        loop {
            let test = if self.eat("@") {
                NodeTest::Attribute(self.name()?)
            } else if self.eat("*") {
                NodeTest::AnyElement
            } else {
                NodeTest::Name(self.name()?)
            };
            let mut position = None;
            if self.eat("[") {
                self.skip_ws();
                let start = self.pos;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                let digits = &self.input[start..self.pos];
                let n: u32 = digits
                    .parse()
                    .map_err(|_| self.error("expected a position number inside [..]"))?;
                if n == 0 {
                    return Err(self.error("positions are 1-based"));
                }
                position = Some(n);
                self.skip_ws();
                if !self.eat("]") {
                    return Err(self.error("expected ']'"));
                }
            }
            if matches!(test, NodeTest::Attribute(_)) && position.is_some() {
                return Err(self.error("attribute steps cannot have positions"));
            }
            if steps.len() == MAX_DEPTH {
                return Err(self.error(format!("path longer than {MAX_DEPTH} steps")));
            }
            steps.push(Step { axis, test, position });
            if self.eat("//") {
                axis = Axis::Descendant;
            } else if self.eat("/") {
                axis = Axis::Child;
            } else {
                break;
            }
        }
        if steps
            .iter()
            .rev()
            .skip(1)
            .any(|s| matches!(s.test, NodeTest::Attribute(_)))
        {
            return Err(self.error("attribute step must be the final step"));
        }
        Ok(PathExpr { absolute, steps })
    }

    // or_expr ::= and_expr ('or' and_expr)*
    fn or_expr(&mut self) -> Result<Predicate, PathParseError> {
        let mut terms = vec![self.and_expr()?];
        loop {
            self.skip_ws();
            if self.at_keyword("or") {
                self.eat("or");
                terms.push(self.and_expr()?);
            } else {
                break;
            }
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Predicate::Or(terms)
        })
    }

    // and_expr ::= atom ('and' atom)*
    fn and_expr(&mut self) -> Result<Predicate, PathParseError> {
        let mut terms = vec![self.atom()?];
        loop {
            self.skip_ws();
            if self.at_keyword("and") {
                self.eat("and");
                terms.push(self.atom()?);
            } else {
                break;
            }
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Predicate::And(terms)
        })
    }

    fn atom(&mut self) -> Result<Predicate, PathParseError> {
        self.skip_ws();
        if self.eat("(") {
            let inner = self.nested()?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.error("expected ')'"));
            }
            return Ok(inner);
        }
        if self.at_keyword("not") {
            self.eat("not");
            self.skip_ws();
            if !self.eat("(") {
                return Err(self.error("expected '(' after not"));
            }
            let inner = self.nested()?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.error("expected ')'"));
            }
            return Ok(Predicate::Not(Box::new(inner)));
        }
        // function forms
        for (kw, is_bool) in [
            ("contains", true),
            ("starts-with", true),
            ("empty", true),
            ("exists", true),
            ("count", false),
            ("string-length", false),
            ("number", false),
        ] {
            if self.at_keyword(kw) {
                let save = self.pos;
                self.eat(kw);
                self.skip_ws();
                if !self.eat("(") {
                    // not a call after all — backtrack and parse as a path
                    self.pos = save;
                    break;
                }
                let path = self.path()?;
                self.skip_ws();
                if is_bool {
                    let pred = match kw {
                        "contains" | "starts-with" => {
                            if !self.eat(",") {
                                return Err(self.error("expected ',' and a string"));
                            }
                            self.skip_ws();
                            let needle = self.string_literal()?;
                            if kw == "contains" {
                                Predicate::Bool(BoolFn::Contains(path, needle))
                            } else {
                                Predicate::Bool(BoolFn::StartsWith(path, needle))
                            }
                        }
                        "empty" => Predicate::Bool(BoolFn::Empty(path)),
                        "exists" => Predicate::Exists(path),
                        _ => unreachable!(),
                    };
                    self.skip_ws();
                    if !self.eat(")") {
                        return Err(self.error("expected ')'"));
                    }
                    return Ok(pred);
                }
                // value function: fn(P) θ value
                self.skip_ws();
                if !self.eat(")") {
                    return Err(self.error("expected ')'"));
                }
                let func = match kw {
                    "count" => ValueFn::Count,
                    "string-length" => ValueFn::StringLength,
                    "number" => ValueFn::Number,
                    _ => unreachable!(),
                };
                self.skip_ws();
                let op = self.cmp_op()?;
                self.skip_ws();
                let value = self.value()?;
                return Ok(Predicate::FnCmp { func, path, op, value });
            }
        }
        // P θ value, or bare existential Q
        let path = self.path()?;
        self.skip_ws();
        if self.at_cmp_op() {
            let op = self.cmp_op()?;
            self.skip_ws();
            let value = self.value()?;
            Ok(Predicate::Cmp { path, op, value })
        } else {
            Ok(Predicate::Exists(path))
        }
    }

    fn at_cmp_op(&self) -> bool {
        matches!(self.peek(), Some(b'=' | b'<' | b'>' | b'!'))
            || self.input[self.pos..].starts_with('≠')
            || self.input[self.pos..].starts_with('≤')
            || self.input[self.pos..].starts_with('≥')
    }

    fn cmp_op(&mut self) -> Result<CmpOp, PathParseError> {
        for (text, op) in [
            ("!=", CmpOp::Ne),
            ("≠", CmpOp::Ne),
            ("<=", CmpOp::Le),
            ("≤", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("≥", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.eat(text) {
                return Ok(op);
            }
        }
        Err(self.error("expected a comparison operator"))
    }

    fn value(&mut self) -> Result<Value, PathParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"' | b'\'') => Ok(Value::Str(self.string_literal()?)),
            Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+' => {
                let start = self.pos;
                self.pos += 1;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E')
                {
                    self.pos += 1;
                }
                let n: f64 = self.input[start..self.pos]
                    .parse()
                    .map_err(|_| self.error("invalid number literal"))?;
                Ok(Value::Num(n))
            }
            _ => Err(self.error("expected a string or number literal")),
        }
    }

    fn string_literal(&mut self) -> Result<String, PathParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                q
            }
            _ => return Err(self.error("expected a string literal")),
        };
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let s = self.input[start..self.pos].to_owned();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.error("unterminated string literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_paths() {
        for s in [
            "/Store/Items/Item",
            "/Item/Section",
            "//Description",
            "/Item/PictureList/Picture[1]",
            "/article/prolog",
            "/Store/*",
        ] {
            parse_path(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_paths() {
        assert!(parse_path("/a/@x/b").is_err()); // attr not final
        assert!(parse_path("/a[0]").is_err()); // 0 position
        assert!(parse_path("/a[b]").is_err());
        assert!(parse_path("/@x[1]").is_err()); // attr with position
        assert!(parse_path("").is_err());
        assert!(parse_path("/a extra").is_err());
    }

    #[test]
    fn parses_paper_predicates() {
        let cases = [
            r#"/Item/Section = "CD""#,
            r#"/Item/Section != "CD""#,
            r#"contains(//Description, "good")"#,
            r#"not(contains(//Description, "good"))"#,
            "/Item/PictureList",
            "empty(/Item/PictureList)",
            "count(/Item/PictureList/Picture) >= 2",
            r#"/Item/Section != "CD" and /Item/Section != "DVD""#,
            r#"/Item/Section = "CD" or /Item/Section = "DVD""#,
            "number(/Item/PricesHistory/PriceHistory/Price) < 10.5",
        ];
        for s in cases {
            parse_predicate(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn unicode_operators() {
        let p = parse_predicate(r#"/Item/Section ≠ "CD""#).unwrap();
        assert!(matches!(p, Predicate::Cmp { op: CmpOp::Ne, .. }));
        let p = parse_predicate("count(/a) ≥ 3").unwrap();
        assert!(matches!(p, Predicate::FnCmp { op: CmpOp::Ge, .. }));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let p = parse_predicate(r#"/a = "1" or /b = "2" and /c = "3""#).unwrap();
        match p {
            Predicate::Or(terms) => {
                assert_eq!(terms.len(), 2);
                assert!(matches!(terms[1], Predicate::And(_)));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let p = parse_predicate(r#"(/a = "1" or /b = "2") and /c = "3""#).unwrap();
        assert!(matches!(p, Predicate::And(_)));
    }

    #[test]
    fn name_like_function_prefix_is_a_path() {
        // an element genuinely named "counter" must not be read as count(
        let p = parse_predicate("/counter = 3").unwrap();
        assert!(matches!(p, Predicate::Cmp { .. }));
    }

    #[test]
    fn existential_bare_path() {
        let p = parse_predicate("/Item/PictureList").unwrap();
        assert!(matches!(p, Predicate::Exists(_)));
    }
}
