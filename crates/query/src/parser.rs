//! Recursive-descent parser for the XQuery subset.
//!
//! Direct element constructors are supported with computed content only:
//! children are `{ expr }` blocks or nested constructors (write literal
//! text as `{"text"}`). This keeps the token stream uniform; every query
//! shape in the paper is expressible.

use crate::ast::{ArithOp, Binding, Clause, Expr, PathSource, PathStart, Query, SortDir};
use crate::lexer::{tokenize, Spanned, Token};
use partix_path::{Axis, CmpOp, NodeTest, PathExpr, Step, MAX_DEPTH};
use std::fmt;

/// Parse error with byte offset into the query text.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// Parse a query.
pub fn parse_query(input: &str) -> Result<Query, QueryParseError> {
    let tokens = tokenize(input)
        .map_err(|e| QueryParseError { offset: e.offset, message: e.message })?;
    let mut p = Parser { tokens, pos: 0, depth: 0, height: 0 };
    let expr = p.expr()?;
    p.expect(&Token::Eof)?;
    Ok(Query { expr })
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Open nested constructs around the cursor: bounds the parser's own
    /// recursion.
    depth: usize,
    /// Height of the expression parsed last, counted the way everything
    /// that walks an `Expr` recurses over it: one level per node — a
    /// chain of `n` binary operators is `n` levels, since it nests to the
    /// left — and one per `for` / `let` clause, each of which scopes what
    /// follows it. Bounded by [`MAX_DEPTH`] like `depth`.
    height: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> QueryParseError {
        QueryParseError { offset: self.offset(), message: message.into() }
    }

    fn expect(&mut self, token: &Token) -> Result<(), QueryParseError> {
        if self.peek() == token {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {token}, found {}", self.peek())))
        }
    }

    fn at_name(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Name(n) if n == kw)
    }

    fn eat_name(&mut self, kw: &str) -> bool {
        if self.at_name(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn too_deep(&self) -> QueryParseError {
        self.error(format!("expression nested deeper than {MAX_DEPTH} levels"))
    }

    /// Go one nesting level down; the caller comes back up with
    /// `self.depth -= 1` once the nested construct is parsed.
    fn enter(&mut self) -> Result<(), QueryParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        Ok(())
    }

    /// Record a node just built over children of height `children`.
    fn built(&mut self, children: usize) -> Result<(), QueryParseError> {
        self.height = children + 1;
        if self.height > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn expr(&mut self) -> Result<Expr, QueryParseError> {
        self.enter()?;
        let parsed = if self.at_name("for") || self.at_name("let") {
            self.flwor()
        } else {
            self.or_expr()
        };
        self.depth -= 1;
        parsed
    }

    fn flwor(&mut self) -> Result<Expr, QueryParseError> {
        let mut clauses = Vec::new();
        // each part sits below the clauses bound before it
        let mut height = 0;
        loop {
            if self.eat_name("for") {
                loop {
                    let var = self.var_name()?;
                    if !self.eat_name("in") {
                        return Err(self.error("expected 'in'"));
                    }
                    let expr = self.or_expr()?;
                    height = height.max(clauses.len() + self.height);
                    clauses.push(Clause::For(Binding { var, expr }));
                    if self.peek() != &Token::Comma {
                        break;
                    }
                    self.bump();
                }
            } else if self.eat_name("let") {
                loop {
                    let var = self.var_name()?;
                    self.expect(&Token::Assign)?;
                    let expr = self.or_expr()?;
                    height = height.max(clauses.len() + self.height);
                    clauses.push(Clause::Let(Binding { var, expr }));
                    if self.peek() != &Token::Comma {
                        break;
                    }
                    self.bump();
                }
            } else {
                break;
            }
        }
        let where_clause = if self.eat_name("where") {
            let filter = self.or_expr()?;
            height = height.max(clauses.len() + self.height);
            Some(Box::new(filter))
        } else {
            None
        };
        let order_by = if self.eat_name("order") {
            if !self.eat_name("by") {
                return Err(self.error("expected 'by' after 'order'"));
            }
            let key = self.or_expr()?;
            height = height.max(clauses.len() + self.height);
            let dir = if self.eat_name("descending") {
                SortDir::Descending
            } else {
                self.eat_name("ascending");
                SortDir::Ascending
            };
            Some((Box::new(key), dir))
        } else {
            None
        };
        if !self.eat_name("return") {
            return Err(self.error("expected 'return'"));
        }
        let ret = Box::new(self.expr()?);
        self.built(height.max(clauses.len() + self.height))?;
        Ok(Expr::Flwor { clauses, where_clause, order_by, ret })
    }

    fn var_name(&mut self) -> Result<String, QueryParseError> {
        match self.bump() {
            Token::Var(v) => Ok(v),
            other => Err(QueryParseError {
                offset: self.tokens[self.pos.saturating_sub(1)].offset,
                message: format!("expected a variable, found {other}"),
            }),
        }
    }

    // The operator levels pass a lone operand straight through and leave
    // the loops to `joined` / `chain`: nesting goes through every level,
    // and in an unoptimised build each level's frame is paid per nesting.

    fn or_expr(&mut self) -> Result<Expr, QueryParseError> {
        let first = self.and_expr()?;
        if self.at_name("or") {
            self.joined("or", first, Parser::and_expr, Expr::Or)
        } else {
            Ok(first)
        }
    }

    fn and_expr(&mut self) -> Result<Expr, QueryParseError> {
        let first = self.cmp_expr()?;
        if self.at_name("and") {
            self.joined("and", first, Parser::cmp_expr, Expr::And)
        } else {
            Ok(first)
        }
    }

    /// `first keyword operand keyword operand …`, joined into one node.
    fn joined(
        &mut self,
        keyword: &str,
        first: Expr,
        operand: fn(&mut Parser) -> Result<Expr, QueryParseError>,
        join: fn(Vec<Expr>) -> Expr,
    ) -> Result<Expr, QueryParseError> {
        let mut terms = vec![first];
        let mut height = self.height;
        while self.eat_name(keyword) {
            terms.push(operand(self)?);
            height = height.max(self.height);
        }
        self.built(height)?;
        Ok(join(terms))
    }

    fn cmp_expr(&mut self) -> Result<Expr, QueryParseError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.comparison(lhs, op)
    }

    fn comparison(&mut self, lhs: Expr, op: CmpOp) -> Result<Expr, QueryParseError> {
        let height = self.height;
        self.bump();
        let rhs = self.additive()?;
        self.built(height.max(self.height))?;
        Ok(Expr::Cmp { lhs: Box::new(lhs), op, rhs: Box::new(rhs) })
    }

    // additive ::= multiplicative (('+' | '-') multiplicative)*
    fn additive(&mut self) -> Result<Expr, QueryParseError> {
        let lhs = self.multiplicative()?;
        if self.additive_op().is_some() {
            self.chain(lhs, Parser::additive_op, Parser::multiplicative)
        } else {
            Ok(lhs)
        }
    }

    fn additive_op(&self) -> Option<ArithOp> {
        match self.peek() {
            Token::Plus => Some(ArithOp::Add),
            Token::Minus => Some(ArithOp::Sub),
            _ => None,
        }
    }

    // multiplicative ::= unary (('*' | 'div' | 'mod') unary)*
    fn multiplicative(&mut self) -> Result<Expr, QueryParseError> {
        let lhs = self.unary()?;
        if self.multiplicative_op().is_some() {
            self.chain(lhs, Parser::multiplicative_op, Parser::unary)
        } else {
            Ok(lhs)
        }
    }

    fn multiplicative_op(&self) -> Option<ArithOp> {
        if self.peek() == &Token::Star {
            Some(ArithOp::Mul)
        } else if self.at_name("div") {
            Some(ArithOp::Div)
        } else if self.at_name("mod") {
            Some(ArithOp::Mod)
        } else {
            None
        }
    }

    /// `lhs op operand op operand …`, nested to the left.
    fn chain(
        &mut self,
        mut lhs: Expr,
        operator: fn(&Parser) -> Option<ArithOp>,
        operand: fn(&mut Parser) -> Result<Expr, QueryParseError>,
    ) -> Result<Expr, QueryParseError> {
        while let Some(op) = operator(self) {
            let height = self.height;
            self.bump();
            let rhs = operand(self)?;
            self.built(height.max(self.height))?;
            lhs = Expr::Arith { lhs: Box::new(lhs), op, rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    // unary ::= '-' unary | primary
    fn unary(&mut self) -> Result<Expr, QueryParseError> {
        if self.peek() == &Token::Minus {
            self.bump();
            self.enter()?;
            let operand = self.unary()?;
            self.depth -= 1;
            self.built(self.height)?;
            return Ok(Expr::Neg(Box::new(operand)));
        }
        self.primary()
    }

    // one method per construct: a nested construct then costs the stack
    // of its own locals, not of every alternative's
    fn primary(&mut self) -> Result<Expr, QueryParseError> {
        match self.peek() {
            Token::Str(_) | Token::Num(_) => {
                self.height = 1;
                Ok(match self.bump() {
                    Token::Str(s) => Expr::Str(s),
                    Token::Num(n) => Expr::Num(n),
                    _ => unreachable!("peeked a literal"),
                })
            }
            Token::Var(_) => self.path_from_var(),
            Token::LParen => self.parenthesized(),
            Token::TagOpen(_) => match self.bump() {
                Token::TagOpen(name) => self.element_ctor(name),
                _ => unreachable!("peeked a tag"),
            },
            Token::Name(name) if name == "if" && self.peek2() == &Token::LParen => {
                self.conditional()
            }
            Token::Name(_) if self.peek2() == &Token::LParen => self.call(),
            Token::Name(name) => Err(self.error(format!(
                "unexpected name '{name}' — paths must start at collection(), doc() or a variable"
            ))),
            other => Err(self.error(format!("unexpected {other}"))),
        }
    }

    /// `()`, `(e)` or `(e1, e2, …)`.
    fn parenthesized(&mut self) -> Result<Expr, QueryParseError> {
        self.bump(); // (
        if self.peek() == &Token::RParen {
            self.bump();
            self.height = 1;
            return Ok(Expr::Seq(Vec::new()));
        }
        let mut items = vec![self.expr()?];
        let mut height = self.height;
        while self.peek() == &Token::Comma {
            self.bump();
            items.push(self.expr()?);
            height = height.max(self.height);
        }
        self.expect(&Token::RParen)?;
        if items.len() == 1 {
            return Ok(items.pop().expect("one"));
        }
        self.built(height)?;
        Ok(Expr::Seq(items))
    }

    /// `if (cond) then … else …`.
    fn conditional(&mut self) -> Result<Expr, QueryParseError> {
        self.bump(); // if
        self.bump(); // (
        let cond = Box::new(self.expr()?);
        let mut height = self.height;
        self.expect(&Token::RParen)?;
        if !self.eat_name("then") {
            return Err(self.error("expected 'then'"));
        }
        let then = Box::new(self.expr()?);
        height = height.max(self.height);
        if !self.eat_name("else") {
            return Err(self.error("expected 'else'"));
        }
        let els = Box::new(self.expr()?);
        self.built(height.max(self.height))?;
        Ok(Expr::If { cond, then, els })
    }

    /// `name(…)`: a `collection` / `doc` path source, or a function call.
    fn call(&mut self) -> Result<Expr, QueryParseError> {
        let Token::Name(name) = self.bump() else {
            unreachable!("peeked a name");
        };
        self.bump(); // (
        if name == "collection" || name == "doc" {
            let arg = match self.bump() {
                Token::Str(s) => s,
                other => {
                    return Err(self.error(format!(
                        "{name}() takes a string literal, found {other}"
                    )))
                }
            };
            self.expect(&Token::RParen)?;
            let start = if name == "collection" {
                PathStart::Collection(arg)
            } else {
                PathStart::Doc(arg)
            };
            let path = self.steps()?;
            self.height = 1;
            return Ok(Expr::Path(PathSource { start, path }));
        }
        let mut args = Vec::new();
        let mut height = 0;
        if self.peek() != &Token::RParen {
            args.push(self.expr()?);
            height = self.height;
            while self.peek() == &Token::Comma {
                self.bump();
                args.push(self.expr()?);
                height = height.max(self.height);
            }
        }
        self.expect(&Token::RParen)?;
        self.built(height)?;
        Ok(Expr::Call { name, args })
    }

    fn path_from_var(&mut self) -> Result<Expr, QueryParseError> {
        let var = self.var_name()?;
        let path = self.steps()?;
        self.height = 1;
        Ok(Expr::Path(PathSource { start: PathStart::Var(var), path }))
    }

    /// Parse `(/step | //step)*` into a relative [`PathExpr`].
    fn steps(&mut self) -> Result<PathExpr, QueryParseError> {
        let mut steps = Vec::new();
        loop {
            let axis = match self.peek() {
                Token::Slash => Axis::Child,
                Token::DoubleSlash => Axis::Descendant,
                _ => break,
            };
            self.bump();
            let test = match self.bump() {
                Token::Name(n) => NodeTest::Name(n),
                Token::Star => NodeTest::AnyElement,
                Token::At => match self.bump() {
                    Token::Name(n) => NodeTest::Attribute(n),
                    other => return Err(self.error(format!("expected attribute name, found {other}"))),
                },
                other => return Err(self.error(format!("expected a step, found {other}"))),
            };
            let mut position = None;
            if self.peek() == &Token::LBracket {
                self.bump();
                match self.bump() {
                    Token::Num(n) if n.fract() == 0.0 && n >= 1.0 => {
                        position = Some(n as u32);
                    }
                    other => {
                        return Err(self.error(format!(
                            "only positional predicates [i] are supported in paths, found {other}"
                        )))
                    }
                }
                self.expect(&Token::RBracket)?;
            }
            if steps.len() == MAX_DEPTH {
                return Err(self.error(format!("path longer than {MAX_DEPTH} steps")));
            }
            steps.push(Step { axis, test, position });
        }
        Ok(PathExpr { absolute: false, steps })
    }

    /// Parse the remainder of `<name …`.
    fn element_ctor(&mut self, name: String) -> Result<Expr, QueryParseError> {
        let mut attrs = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Name(attr_name) => {
                    self.bump();
                    self.expect(&Token::Eq)?;
                    match self.bump() {
                        Token::Str(v) => attrs.push((attr_name, v)),
                        other => {
                            return Err(self.error(format!(
                                "attribute values must be string literals, found {other}"
                            )))
                        }
                    }
                }
                Token::Slash => {
                    self.bump();
                    self.expect(&Token::Gt)?;
                    self.height = 1;
                    return Ok(Expr::Element { name, attrs, children: Vec::new() });
                }
                Token::Gt => {
                    self.bump();
                    break;
                }
                other => return Err(self.error(format!("unexpected {other} in start tag"))),
            }
        }
        let mut children = Vec::new();
        let mut height = 0;
        loop {
            match self.peek().clone() {
                Token::LBrace => {
                    self.bump();
                    children.push(self.expr()?);
                    height = height.max(self.height);
                    self.expect(&Token::RBrace)?;
                }
                Token::TagOpen(child_name) => {
                    self.bump();
                    self.enter()?;
                    children.push(self.element_ctor(child_name)?);
                    self.depth -= 1;
                    height = height.max(self.height);
                }
                Token::Lt => {
                    self.bump();
                    self.expect(&Token::Slash)?;
                    match self.bump() {
                        Token::Name(n) if n == name => {}
                        other => {
                            return Err(self.error(format!(
                                "mismatched closing tag: expected </{name}>, found {other}"
                            )))
                        }
                    }
                    self.expect(&Token::Gt)?;
                    self.built(height)?;
                    return Ok(Expr::Element { name, attrs, children });
                }
                other => {
                    return Err(self.error(format!(
                        "unexpected {other} in element content (write literal text as {{\"text\"}})"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_flwor() {
        let q = parse_query(
            r#"for $i in collection("items")/Item
               where $i/Section = "CD"
               return $i/Name"#,
        )
        .unwrap();
        let Expr::Flwor { clauses, where_clause, ret, .. } = q.expr else {
            panic!("expected FLWOR");
        };
        assert_eq!(clauses.len(), 1);
        assert!(where_clause.is_some());
        assert!(matches!(*ret, Expr::Path(_)));
    }

    #[test]
    fn let_and_multiple_fors() {
        let q = parse_query(
            r#"for $i in collection("a")/x, $j in collection("b")/y
               let $n := $i/name
               where $n = $j/name
               return ($n, $j)"#,
        )
        .unwrap();
        let Expr::Flwor { clauses, .. } = q.expr else { panic!() };
        assert_eq!(clauses.len(), 3);
        assert!(matches!(clauses[2], Clause::Let(_)));
    }

    #[test]
    fn aggregation_call() {
        let q = parse_query(
            r#"count(for $i in collection("items")/Item where contains($i//Description, "good") return $i)"#,
        )
        .unwrap();
        let Expr::Call { name, args } = q.expr else { panic!() };
        assert_eq!(name, "count");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn order_by_descending() {
        let q = parse_query(
            r#"for $i in collection("c")/a order by $i/k descending return $i"#,
        )
        .unwrap();
        let Expr::Flwor { order_by, .. } = q.expr else { panic!() };
        assert_eq!(order_by.unwrap().1, SortDir::Descending);
    }

    #[test]
    fn element_constructor() {
        let q = parse_query(
            r#"for $i in collection("c")/a return <hit id="1"><name>{$i/n}</name></hit>"#,
        )
        .unwrap();
        let Expr::Flwor { ret, .. } = q.expr else { panic!() };
        let Expr::Element { name, attrs, children } = *ret else { panic!() };
        assert_eq!(name, "hit");
        assert_eq!(attrs, [("id".to_owned(), "1".to_owned())]);
        assert_eq!(children.len(), 1);
    }

    #[test]
    fn self_closing_constructor() {
        let q = parse_query(r#"<empty/>"#).unwrap();
        assert!(matches!(q.expr, Expr::Element { ref children, .. } if children.is_empty()));
    }

    #[test]
    fn positional_path_step() {
        let q = parse_query(r#"for $i in collection("c")/a return $i/b[2]/c"#).unwrap();
        let Expr::Flwor { ret, .. } = q.expr else { panic!() };
        let Expr::Path(ps) = *ret else { panic!() };
        assert_eq!(ps.path.steps[0].position, Some(2));
    }

    #[test]
    fn attribute_step_and_wildcards() {
        parse_query(r#"for $i in collection("c")//x return $i/@id"#).unwrap();
        parse_query(r#"for $i in collection("c")/a/* return $i"#).unwrap();
    }

    #[test]
    fn errors_are_informative() {
        let err = parse_query("for $i in").unwrap_err();
        assert!(err.message.contains("unexpected"));
        let err = parse_query(r#"bare/path"#).unwrap_err();
        assert!(err.message.contains("collection"));
        let err = parse_query(r#"for $i in collection("c")/a return <a><b>{$i}</c></a>"#)
            .unwrap_err();
        assert!(err.message.contains("mismatched"), "{}", err.message);
    }

    #[test]
    fn comparison_chain_is_single() {
        let q = parse_query(r#"count(collection("c")/a) > 3"#).unwrap();
        assert!(matches!(q.expr, Expr::Cmp { op: CmpOp::Gt, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse_query(r#"1 + 2 * 3"#).unwrap();
        let Expr::Arith { op: ArithOp::Add, rhs, .. } = q.expr else { panic!() };
        assert!(matches!(*rhs, Expr::Arith { op: ArithOp::Mul, .. }));
        // div/mod as keywords
        parse_query(r#"10 div 2"#).unwrap();
        parse_query(r#"10 mod 3"#).unwrap();
        // unary minus
        let q = parse_query(r#"-5 + 1"#).unwrap();
        assert!(matches!(q.expr, Expr::Arith { op: ArithOp::Add, .. }));
    }

    #[test]
    fn arithmetic_with_paths_and_comparisons() {
        let q = parse_query(
            r#"for $i in collection("c")/a where $i/p * 2 > 10 return $i"#,
        )
        .unwrap();
        let Expr::Flwor { where_clause, .. } = q.expr else { panic!() };
        let Expr::Cmp { lhs, .. } = *where_clause.unwrap() else { panic!() };
        assert!(matches!(*lhs, Expr::Arith { op: ArithOp::Mul, .. }));
    }

    #[test]
    fn if_then_else() {
        let q = parse_query(
            r#"for $i in collection("c")/a
               return if ($i/p > 10) then "big" else "small""#,
        )
        .unwrap();
        let Expr::Flwor { ret, .. } = q.expr else { panic!() };
        assert!(matches!(*ret, Expr::If { .. }));
        // an element genuinely named "if" in a path still works
        parse_query(r#"for $i in collection("c")/if return $i"#).unwrap();
    }

    #[test]
    fn empty_sequence() {
        let q = parse_query("()").unwrap();
        assert_eq!(q.expr, Expr::Seq(vec![]));
    }
}
