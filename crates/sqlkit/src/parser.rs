//! Recursive-descent SQL parser.
//!
//! Grammar coverage matches what BIRD/Spider gold SQL exercises: SELECT
//! cores with joins, subqueries (scalar / IN / EXISTS / FROM), compound
//! selects, CASE, CAST, BETWEEN, LIKE, aggregate calls with DISTINCT,
//! ORDER BY / LIMIT / OFFSET, plus CREATE TABLE and INSERT for loading.

use crate::ast::*;
use crate::diag::Span;
use crate::error::{SqlError, SqlResult};
use crate::token::{tokenize, Punct, Token, TokenKind};
use crate::value::Value;

/// How deeply the parser lets nested constructs stack: parenthesised
/// expressions and subqueries, function arguments, CASE, CAST and prefix
/// operators (`NOT`, unary `-`/`+`) share this one budget. Past it,
/// parsing fails with [`SqlError::Syntax`].
///
/// Every later stage (analysis, binding, lowering, execution, printing)
/// recurses over the tree the parser builds, so this bound is what keeps
/// untrusted SQL from overflowing a thread stack. Nested scalar
/// subqueries cost the most stack per level: at this depth they need
/// about 1.1 MiB in a debug build and 0.3 MiB in release, inside the
/// 2 MiB a spawned thread gets by default; unbounded, a debug build
/// overflowed at 59 levels.
pub const MAX_NESTING_DEPTH: usize = 32;

/// Parse a single statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> SqlResult<Stmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let stmt = p.statement()?;
    p.eat_punct(Punct::Semi);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a query, requiring it to be a SELECT.
pub fn parse_select(sql: &str) -> SqlResult<SelectStmt> {
    match parse_statement(sql)? {
        Stmt::Select(s) => Ok(s),
        _ => Err(SqlError::Syntax { pos: 0, msg: "expected a SELECT statement".into() }),
    }
}

/// Parse a script of `;`-separated statements.
pub fn parse_script(sql: &str) -> SqlResult<Vec<Stmt>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_punct(Punct::Semi) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nested constructs currently open, bounded by [`MAX_NESTING_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    /// Byte span from `start` to the end of the most recently consumed
    /// token, which must be an identifier (quoted identifiers include
    /// their delimiters; doubled escapes inside make the span run a few
    /// bytes short, which only shortens rendered carets).
    fn span_from(&self, start: usize) -> Span {
        let t = &self.tokens[self.pos.saturating_sub(1)];
        let len = match &t.kind {
            TokenKind::Ident(s, quoted) => s.len() + if *quoted { 2 } else { 0 },
            _ => 0,
        };
        Span::new(start, (t.pos + len).max(start))
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn err<T>(&self, msg: impl Into<String>) -> SqlResult<T> {
        Err(SqlError::Syntax { pos: self.peek_pos(), msg: msg.into() })
    }

    /// Parse one nested construct, charging a level of [`MAX_NESTING_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> SqlResult<T>) -> SqlResult<T> {
        if self.depth == MAX_NESTING_DEPTH {
            return self.err(format!("nesting deeper than {MAX_NESTING_DEPTH} levels"));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Is the current token the given (unquoted) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s, false) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}"))
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), TokenKind::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> SqlResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected {p:?}"))
        }
    }

    fn expect_eof(&self) -> SqlResult<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(SqlError::Syntax {
                pos: self.peek_pos(),
                msg: format!("unexpected trailing input: {:?}", self.peek()),
            })
        }
    }

    /// Any identifier (quoted or not); keywords are allowed as names when
    /// quoted.
    fn ident(&mut self) -> SqlResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s, _) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn statement(&mut self) -> SqlResult<Stmt> {
        if self.at_kw("SELECT") {
            Ok(Stmt::Select(self.select_stmt()?))
        } else if self.at_kw("CREATE") {
            self.create_table()
        } else if self.at_kw("INSERT") {
            self.insert()
        } else if self.at_kw("UPDATE") {
            self.update()
        } else if self.at_kw("DELETE") {
            self.delete()
        } else {
            self.err("expected SELECT, CREATE, INSERT, UPDATE or DELETE")
        }
    }

    fn update(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.ident()?;
            self.expect_punct(Punct::Eq)?;
            assignments.push((column, self.expr()?));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Update(UpdateStmt { table, assignments, where_clause }))
    }

    fn delete(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Delete(DeleteStmt { table, where_clause }))
    }

    // ---------------- SELECT ----------------

    fn select_stmt(&mut self) -> SqlResult<SelectStmt> {
        let core = self.select_core()?;
        let mut compounds = Vec::new();
        loop {
            let op = if self.eat_kw("UNION") {
                if self.eat_kw("ALL") {
                    CompoundOp::UnionAll
                } else {
                    CompoundOp::Union
                }
            } else if self.eat_kw("INTERSECT") {
                CompoundOp::Intersect
            } else if self.eat_kw("EXCEPT") {
                CompoundOp::Except
            } else {
                break;
            };
            compounds.push((op, self.select_core()?));
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            let first = self.expr()?;
            if self.eat_kw("OFFSET") {
                limit = Some(first);
                offset = Some(self.expr()?);
            } else if self.eat_punct(Punct::Comma) {
                // LIMIT offset, count
                offset = Some(first);
                limit = Some(self.expr()?);
            } else {
                limit = Some(first);
            }
        }
        Ok(SelectStmt { core, compounds, order_by, limit, offset })
    }

    fn select_core(&mut self) -> SqlResult<SelectCore> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("FROM") { Some(self.from_clause()?) } else { None };
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        Ok(SelectCore { distinct, items, from, where_clause, group_by, having })
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        if self.eat_punct(Punct::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Ident(name, _) = self.peek().clone() {
            if matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind), Some(TokenKind::Punct(Punct::Dot)))
                && matches!(
                    self.tokens.get(self.pos + 2).map(|t| &t.kind),
                    Some(TokenKind::Punct(Punct::Star))
                )
            {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::TableWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = self.opt_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] alias`, where a bare identifier is only an alias when it is
    /// not a clause keyword.
    fn opt_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if let TokenKind::Ident(s, quoted) = self.peek().clone() {
            if quoted || !is_clause_keyword(&s) {
                self.bump();
                return Ok(Some(s));
            }
        }
        Ok(None)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_clause(&mut self) -> SqlResult<FromClause> {
        let base = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_punct(Punct::Comma) {
                joins.push(Join { kind: JoinKind::Cross, table: self.table_ref()?, on: None });
                continue;
            }
            let kind = if self.at_kw("JOIN") {
                self.bump();
                JoinKind::Inner
            } else if self.at_kw("INNER") {
                self.bump();
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.at_kw("LEFT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.at_kw("CROSS") {
                self.bump();
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else {
                break;
            };
            let table = self.table_ref()?;
            let on = if self.eat_kw("ON") { Some(self.expr()?) } else { None };
            joins.push(Join { kind, table, on });
        }
        Ok(FromClause { base, joins })
    }

    fn table_ref(&mut self) -> SqlResult<TableRef> {
        if self.eat_punct(Punct::LParen) {
            let query = self.nested(Self::select_stmt)?;
            self.expect_punct(Punct::RParen)?;
            self.eat_kw("AS");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let start = self.peek_pos();
        let name = self.ident()?;
        let span = self.span_from(start);
        let alias = self.opt_alias()?;
        Ok(TableRef::Named { name, alias, span })
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> SqlResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> SqlResult<Expr> {
        if self.at_kw("NOT") && !self.next_is_kw("EXISTS") {
            self.bump();
            let inner = self.nested(Self::not_expr)?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.predicate()
    }

    fn next_is_kw(&self, kw: &str) -> bool {
        matches!(
            self.tokens.get(self.pos + 1).map(|t| &t.kind),
            Some(TokenKind::Ident(s, false)) if s.eq_ignore_ascii_case(kw)
        )
    }

    /// Equality-level operators plus LIKE / IN / BETWEEN / IS.
    fn predicate(&mut self) -> SqlResult<Expr> {
        let mut left = self.comparison()?;
        loop {
            let negated = if self.at_kw("NOT")
                && (self.next_is_kw("LIKE") || self.next_is_kw("IN") || self.next_is_kw("BETWEEN"))
            {
                self.bump();
                true
            } else {
                false
            };
            if self.eat_kw("LIKE") {
                let pattern = self.comparison()?;
                left = Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated };
            } else if self.eat_kw("BETWEEN") {
                let low = self.comparison()?;
                self.expect_kw("AND")?;
                let high = self.comparison()?;
                left = Expr::Between {
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
            } else if self.eat_kw("IN") {
                self.expect_punct(Punct::LParen)?;
                if self.at_kw("SELECT") {
                    let q = self.nested(Self::select_stmt)?;
                    self.expect_punct(Punct::RParen)?;
                    left = Expr::InSubquery { expr: Box::new(left), query: Box::new(q), negated };
                } else {
                    let mut list = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            list.push(self.nested(Self::expr)?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    left = Expr::InList { expr: Box::new(left), list, negated };
                }
            } else if negated {
                return self.err("expected LIKE, IN or BETWEEN after NOT");
            } else if self.eat_kw("IS") {
                let negated = self.eat_kw("NOT");
                self.expect_kw("NULL")?;
                left = Expr::IsNull { expr: Box::new(left), negated };
            } else if self.at_punct(Punct::Eq) || self.at_punct(Punct::Ne) {
                let op = if self.eat_punct(Punct::Eq) {
                    BinOp::Eq
                } else {
                    self.bump();
                    BinOp::Ne
                };
                let right = self.comparison()?;
                left = Expr::binary(left, op, right);
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn comparison(&mut self) -> SqlResult<Expr> {
        let mut left = self.additive()?;
        loop {
            let op = if self.eat_punct(Punct::Lt) {
                BinOp::Lt
            } else if self.eat_punct(Punct::Le) {
                BinOp::Le
            } else if self.eat_punct(Punct::Gt) {
                BinOp::Gt
            } else if self.eat_punct(Punct::Ge) {
                BinOp::Ge
            } else {
                break;
            };
            let right = self.additive()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn additive(&mut self) -> SqlResult<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_punct(Punct::Plus) {
                BinOp::Add
            } else if self.eat_punct(Punct::Minus) {
                BinOp::Sub
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> SqlResult<Expr> {
        let mut left = self.concat()?;
        loop {
            let op = if self.eat_punct(Punct::Star) {
                BinOp::Mul
            } else if self.eat_punct(Punct::Slash) {
                BinOp::Div
            } else if self.eat_punct(Punct::Percent) {
                BinOp::Mod
            } else {
                break;
            };
            let right = self.concat()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn concat(&mut self) -> SqlResult<Expr> {
        let mut left = self.unary()?;
        while self.eat_punct(Punct::Concat) {
            let right = self.unary()?;
            left = Expr::binary(left, BinOp::Concat, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> SqlResult<Expr> {
        if self.eat_punct(Punct::Minus) {
            let inner = self.nested(Self::unary)?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat_punct(Punct::Plus) {
            return self.nested(Self::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(v)))
            }
            TokenKind::Real(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Real(v)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Text(s)))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = if self.at_kw("SELECT") {
                    Expr::Subquery(Box::new(self.nested(Self::select_stmt)?))
                } else {
                    self.nested(Self::expr)?
                };
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name, quoted) => {
                if !quoted {
                    if name.eq_ignore_ascii_case("NULL") {
                        self.bump();
                        return Ok(Expr::Literal(Value::Null));
                    }
                    if name.eq_ignore_ascii_case("CASE") {
                        return self.nested(Self::case_expr);
                    }
                    if name.eq_ignore_ascii_case("CAST") {
                        return self.nested(Self::cast_expr);
                    }
                    if name.eq_ignore_ascii_case("EXISTS") || self.at_kw("NOT") {
                        let negated = self.eat_kw("NOT");
                        self.expect_kw("EXISTS")?;
                        self.expect_punct(Punct::LParen)?;
                        let q = self.nested(Self::select_stmt)?;
                        self.expect_punct(Punct::RParen)?;
                        return Ok(Expr::Exists { query: Box::new(q), negated });
                    }
                }
                if !quoted && is_clause_keyword(&name) {
                    return self.err(format!("unexpected keyword {name}"));
                }
                let start = self.peek_pos();
                self.bump();
                // function call?
                if !quoted && self.at_punct(Punct::LParen) {
                    let span = Span::new(start, start + name.len());
                    return self.nested(|p| p.function_call(name, span));
                }
                // qualified column?
                if self.eat_punct(Punct::Dot) {
                    let column = self.ident()?;
                    let span = self.span_from(start);
                    return Ok(Expr::Column { table: Some(name), column, span });
                }
                Ok(Expr::Column { table: None, column: name, span: self.span_from(start) })
            }
            other => self.err(format!("unexpected token {other:?}")),
        }
    }

    fn function_call(&mut self, name: String, span: Span) -> SqlResult<Expr> {
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        let mut distinct = false;
        if !self.at_punct(Punct::RParen) {
            if self.eat_punct(Punct::Star) {
                args.push(Expr::Wildcard);
            } else {
                distinct = self.eat_kw("DISTINCT");
                loop {
                    args.push(self.expr()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(Expr::Function { name: name.to_lowercase(), args, distinct, span })
    }

    fn case_expr(&mut self) -> SqlResult<Expr> {
        self.expect_kw("CASE")?;
        let operand = if self.at_kw("WHEN") { None } else { Some(Box::new(self.expr()?)) };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.expr()?;
            self.expect_kw("THEN")?;
            let t = self.expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return self.err("CASE requires at least one WHEN branch");
        }
        let else_expr = if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }

    fn cast_expr(&mut self) -> SqlResult<Expr> {
        self.expect_kw("CAST")?;
        self.expect_punct(Punct::LParen)?;
        let inner = self.expr()?;
        self.expect_kw("AS")?;
        let ty = self.type_name()?;
        self.expect_punct(Punct::RParen)?;
        Ok(Expr::Cast { expr: Box::new(inner), ty })
    }

    fn type_name(&mut self) -> SqlResult<TypeName> {
        let name = self.ident()?.to_uppercase();
        // swallow optional (n) / (n, m)
        if self.eat_punct(Punct::LParen) {
            while !self.eat_punct(Punct::RParen) {
                self.bump();
                if self.at_eof() {
                    return self.err("unterminated type arguments");
                }
            }
        }
        Ok(affinity_of(&name))
    }

    // ---------------- DDL / DML ----------------

    fn create_table(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
        }
        let name = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        let mut foreign_keys = Vec::new();
        loop {
            if self.at_kw("PRIMARY") {
                self.bump();
                self.expect_kw("KEY")?;
                self.expect_punct(Punct::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::RParen)?;
            } else if self.at_kw("FOREIGN") {
                self.bump();
                self.expect_kw("KEY")?;
                self.expect_punct(Punct::LParen)?;
                let column = self.ident()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_kw("REFERENCES")?;
                let ref_table = self.ident()?;
                self.expect_punct(Punct::LParen)?;
                let ref_column = self.ident()?;
                self.expect_punct(Punct::RParen)?;
                foreign_keys.push(ForeignKeyDecl { column, ref_table, ref_column });
            } else {
                let col_name = self.ident()?;
                let ty = if matches!(self.peek(), TokenKind::Ident(_, _))
                    && !self.at_kw("PRIMARY")
                {
                    self.type_name()?
                } else {
                    TypeName::Blob
                };
                let mut pk = false;
                // column constraints we accept: PRIMARY KEY, NOT NULL, UNIQUE
                loop {
                    if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        pk = true;
                    } else if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                    } else if self.eat_kw("UNIQUE") {
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDecl { name: col_name, ty, primary_key: pk });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(Stmt::CreateTable(CreateTableStmt { name, columns, primary_key, foreign_keys }))
    }

    fn insert(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_punct(Punct::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct(Punct::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
            rows.push(row);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert(InsertStmt { table, columns, rows }))
    }
}

/// SQLite type-affinity resolution from a declared type name.
pub fn affinity_of(decl: &str) -> TypeName {
    let d = decl.to_uppercase();
    if d.contains("INT") {
        TypeName::Integer
    } else if d.contains("CHAR") || d.contains("CLOB") || d.contains("TEXT") || d.contains("DATE") {
        TypeName::Text
    } else if d.contains("REAL") || d.contains("FLOA") || d.contains("DOUB") || d.contains("NUMERIC")
        || d.contains("DECIMAL")
    {
        TypeName::Real
    } else {
        TypeName::Blob
    }
}

/// Keywords that terminate an implicit alias position.
fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT",
        "RIGHT", "CROSS", "ON", "AND", "OR", "NOT", "AS", "UNION", "INTERSECT", "EXCEPT", "SELECT",
        "BY", "ASC", "DESC", "SET", "VALUES", "WHEN", "THEN", "ELSE", "END", "CASE", "IN", "IS",
        "LIKE", "BETWEEN", "EXISTS", "OUTER", "USING", "ALL", "DISTINCT",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // the running example from the paper's Listing 5
        let sql = "SELECT COUNT(DISTINCT T1.ID) FROM Patient AS T1 INNER JOIN Laboratory AS T2 \
                   ON T1.ID = T2.ID WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
                   strftime('%Y', T1.`First Date`) >= '1990'";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.core.items.len(), 1);
        let from = stmt.core.from.as_ref().unwrap();
        assert_eq!(from.joins.len(), 1);
        assert_eq!(from.joins[0].kind, JoinKind::Inner);
        assert!(stmt.core.where_clause.is_some());
    }

    #[test]
    fn parses_group_order_limit() {
        let s = parse_select(
            "SELECT city, COUNT(*) AS n FROM shops GROUP BY city HAVING COUNT(*) > 2 \
             ORDER BY n DESC, city LIMIT 5 OFFSET 2",
        )
        .unwrap();
        assert_eq!(s.core.group_by.len(), 1);
        assert!(s.core.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(Expr::lit(5i64)));
        assert_eq!(s.offset, Some(Expr::lit(2i64)));
    }

    #[test]
    fn limit_comma_form() {
        let s = parse_select("SELECT a FROM t LIMIT 2, 10").unwrap();
        assert_eq!(s.offset, Some(Expr::lit(2i64)));
        assert_eq!(s.limit, Some(Expr::lit(10i64)));
    }

    #[test]
    fn parses_subqueries() {
        let s = parse_select(
            "SELECT name FROM t WHERE score = (SELECT MAX(score) FROM t) AND id IN \
             (SELECT id FROM u WHERE ok = 1)",
        )
        .unwrap();
        let w = s.core.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, Expr::Subquery(_))));
        assert!(w.any(&mut |e| matches!(e, Expr::InSubquery { .. })));
    }

    #[test]
    fn parses_from_subquery() {
        let s = parse_select("SELECT x.n FROM (SELECT COUNT(*) AS n FROM t) AS x").unwrap();
        assert!(matches!(s.core.from.unwrap().base, TableRef::Subquery { .. }));
    }

    #[test]
    fn parses_case_cast_between_like() {
        let s = parse_select(
            "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END, CAST(b AS INTEGER) \
             FROM t WHERE c BETWEEN 1 AND 5 AND d LIKE '%x%' AND e NOT LIKE 'y%'",
        )
        .unwrap();
        assert_eq!(s.core.items.len(), 2);
    }

    #[test]
    fn parses_compound_selects() {
        let s = parse_select("SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v")
            .unwrap();
        assert_eq!(s.compounds.len(), 2);
        assert_eq!(s.compounds[0].0, CompoundOp::Union);
        assert_eq!(s.compounds[1].0, CompoundOp::UnionAll);
    }

    #[test]
    fn parses_exists() {
        let s = parse_select("SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u)").unwrap();
        assert!(s
            .core
            .where_clause
            .unwrap()
            .any(&mut |e| matches!(e, Expr::Exists { negated: true, .. })));
    }

    #[test]
    fn parses_is_not_null_and_not_in() {
        let s =
            parse_select("SELECT a FROM t WHERE a IS NOT NULL AND b NOT IN (1, 2)").unwrap();
        let w = s.core.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, Expr::IsNull { negated: true, .. })));
        assert!(w.any(&mut |e| matches!(e, Expr::InList { negated: true, .. })));
    }

    #[test]
    fn create_and_insert() {
        let stmts = parse_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL, \
             FOREIGN KEY (id) REFERENCES u (uid));\n\
             INSERT INTO t (id, name, score) VALUES (1, 'a', 2.5), (2, 'b', NULL);",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        match &stmts[0] {
            Stmt::CreateTable(c) => {
                assert_eq!(c.columns.len(), 3);
                assert!(c.columns[0].primary_key);
                assert_eq!(c.foreign_keys.len(), 1);
            }
            _ => panic!("expected CREATE TABLE"),
        }
        match &stmts[1] {
            Stmt::Insert(i) => assert_eq!(i.rows.len(), 2),
            _ => panic!("expected INSERT"),
        }
    }

    #[test]
    fn precedence_and_or() {
        // a = 1 OR b = 2 AND c = 3  ==>  a=1 OR (b=2 AND c=3)
        let s = parse_select("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match s.core.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }))
            }
            other => panic!("bad tree: {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT 1 + 2 * 3").unwrap();
        match &s.core.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }))
            }
            other => panic!("bad tree: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_select("SELECT FROM").is_err());
        assert!(parse_select("SELEC a FROM t").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t trailing garbage, here").is_err());
    }

    #[test]
    fn implicit_alias_not_keyword() {
        let s = parse_select("SELECT a b FROM t x WHERE x.a = 1").unwrap();
        match &s.core.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("b")),
            _ => panic!(),
        }
        match s.core.from.unwrap().base {
            TableRef::Named { alias, .. } => assert_eq!(alias.as_deref(), Some("x")),
            _ => panic!(),
        }
    }

    #[test]
    fn count_star_and_distinct_arg() {
        let s = parse_select("SELECT COUNT(*), COUNT(DISTINCT a) FROM t").unwrap();
        match &s.core.items[0] {
            SelectItem::Expr { expr: Expr::Function { name, args, .. }, .. } => {
                assert_eq!(name, "count");
                assert_eq!(args[0], Expr::Wildcard);
            }
            _ => panic!(),
        }
        match &s.core.items[1] {
            SelectItem::Expr { expr: Expr::Function { distinct, .. }, .. } => assert!(distinct),
            _ => panic!(),
        }
    }
}
