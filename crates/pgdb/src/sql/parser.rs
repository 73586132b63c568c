//! Recursive-descent SQL parser with standard operator precedence
//! (OR < AND < NOT < comparison < additive < multiplicative < unary <
//! `::` cast < primary).

use crate::engine::DbError;
use crate::sql::ast::*;
use crate::sql::lexer::{lex, SqlTok};
use crate::types::{Cell, PgType};

/// Parse a single SQL statement.
pub fn parse_statement(src: &str) -> Result<Stmt, DbError> {
    let tokens = lex(src)?;
    let mut p = P { t: tokens, i: 0 };
    let stmt = p.statement()?;
    // Optional trailing semicolon.
    if p.peek_sym(";") {
        p.i += 1;
    }
    if p.i != p.t.len() {
        return Err(DbError::syntax(format!("trailing tokens: {:?}", &p.t[p.i..])));
    }
    Ok(stmt)
}

struct P {
    t: Vec<SqlTok>,
    i: usize,
}

impl P {
    fn peek(&self) -> Option<&SqlTok> {
        self.t.get(self.i)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn peek_sym(&self, s: &str) -> bool {
        matches!(self.peek(), Some(SqlTok::Sym(x)) if *x == s)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek_sym(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::syntax(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), DbError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(DbError::syntax(format!("expected {s:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, DbError> {
        match self.peek().cloned() {
            Some(SqlTok::Ident(s)) => {
                self.i += 1;
                Ok(s)
            }
            Some(SqlTok::QuotedIdent(s)) => {
                self.i += 1;
                Ok(s)
            }
            other => Err(DbError::syntax(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, DbError> {
        if self.peek_kw("select") {
            return Ok(Stmt::Select(self.select()?));
        }
        if self.eat_kw("create") {
            let temp = self.eat_kw("temporary") || self.eat_kw("temp");
            self.expect_kw("table")?;
            let name = self.ident()?;
            if self.eat_kw("as") {
                let query = self.select()?;
                return Ok(Stmt::CreateTableAs { name, query, temp });
            }
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty = self.type_name()?;
                columns.push((col, ty));
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Stmt::CreateTable { name, columns, temp });
        }
        if self.eat_kw("insert") {
            self.expect_kw("into")?;
            let table = self.ident()?;
            let columns = if self.eat_sym("(") {
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
                Some(cols)
            } else {
                None
            };
            self.expect_kw("values")?;
            let rows = self.values_rows()?;
            return Ok(Stmt::Insert { table, columns, rows });
        }
        if self.eat_kw("drop") {
            self.expect_kw("table")?;
            let if_exists = if self.eat_kw("if") {
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(Stmt::DropTable { name, if_exists });
        }
        for noop in ["begin", "commit", "rollback", "set"] {
            if self.peek_kw(noop) {
                // Swallow the rest of the statement.
                let tag = noop.to_uppercase();
                while self.peek().is_some() && !self.peek_sym(";") {
                    self.i += 1;
                }
                return Ok(Stmt::NoOp(tag));
            }
        }
        Err(DbError::syntax(format!("unrecognized statement start: {:?}", self.peek())))
    }

    fn values_rows(&mut self) -> Result<Vec<Vec<SqlExpr>>, DbError> {
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(rows)
    }

    fn select(&mut self) -> Result<SelectStmt, DbError> {
        self.expect_kw("select")?;
        let mut stmt = SelectStmt::default();

        // Select list.
        loop {
            if self.eat_sym("*") {
                stmt.items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    match self.peek() {
                        Some(SqlTok::Ident(s))
                            if !is_reserved(s) =>
                        {
                            let a = s.clone();
                            self.i += 1;
                            Some(a)
                        }
                        Some(SqlTok::QuotedIdent(s)) => {
                            let a = s.clone();
                            self.i += 1;
                            Some(a)
                        }
                        _ => None,
                    }
                };
                stmt.items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }

        if self.eat_kw("from") {
            stmt.from = Some(self.parse_from_item()?);
        }
        if self.eat_kw("where") {
            stmt.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("having") {
            stmt.having = Some(self.expr()?);
        }
        // Set operations bind before ORDER BY/LIMIT of the whole chain;
        // we attach ORDER BY to the left block, which matches how the
        // serializer emits (it wraps when it needs the other reading).
        if self.peek_kw("union") || self.peek_kw("except") || self.peek_kw("intersect") {
            let op = if self.eat_kw("union") {
                if self.eat_kw("all") {
                    SetOp::UnionAll
                } else {
                    SetOp::Union
                }
            } else if self.eat_kw("except") {
                SetOp::Except
            } else {
                self.expect_kw("intersect")?;
                SetOp::Intersect
            };
            let rhs = self.select()?;
            stmt.set_op = Some((op, Box::new(rhs)));
            return Ok(stmt);
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                stmt.order_by.push((e, desc));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            match self.peek().cloned() {
                Some(SqlTok::Int(n)) if n >= 0 => {
                    self.i += 1;
                    stmt.limit = Some(n as u64);
                }
                other => return Err(DbError::syntax(format!("bad LIMIT: {other:?}"))),
            }
        }
        if self.eat_kw("offset") {
            match self.peek().cloned() {
                Some(SqlTok::Int(n)) if n >= 0 => {
                    self.i += 1;
                    stmt.offset = Some(n as u64);
                }
                other => return Err(DbError::syntax(format!("bad OFFSET: {other:?}"))),
            }
        }
        Ok(stmt)
    }

    fn parse_from_item(&mut self) -> Result<FromItem, DbError> {
        let mut left = self.parse_from_primary()?;
        loop {
            let kind = if self.eat_kw("inner") {
                self.expect_kw("join")?;
                JoinType::Inner
            } else if self.eat_kw("left") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinType::Left
            } else if self.eat_kw("cross") {
                self.expect_kw("join")?;
                JoinType::Cross
            } else if self.eat_kw("join") {
                JoinType::Inner
            } else {
                break;
            };
            let right = self.parse_from_primary()?;
            let on = if kind == JoinType::Cross {
                None
            } else {
                self.expect_kw("on")?;
                Some(self.expr()?)
            };
            left = FromItem::Join {
                kind,
                left: Box::new(left),
                right: Box::new(right),
                on,
            };
        }
        Ok(left)
    }

    fn parse_from_primary(&mut self) -> Result<FromItem, DbError> {
        if self.eat_sym("(") {
            if self.peek_kw("values") {
                self.i += 1;
                let rows = self.values_rows()?;
                self.expect_sym(")")?;
                self.eat_kw("as");
                let alias = self.ident()?;
                let mut columns = Vec::new();
                if self.eat_sym("(") {
                    loop {
                        columns.push(self.ident()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                    self.expect_sym(")")?;
                }
                return Ok(FromItem::Values { rows, alias, columns });
            }
            let query = self.select()?;
            self.expect_sym(")")?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(FromItem::Subquery { query: Box::new(query), alias });
        }
        let mut name = self.ident()?;
        // Schema-qualified name (information_schema.columns).
        if self.eat_sym(".") {
            let rest = self.ident()?;
            name = format!("{name}.{rest}");
        }
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                Some(SqlTok::Ident(s)) if !is_reserved(s) => {
                    let a = s.clone();
                    self.i += 1;
                    Some(a)
                }
                Some(SqlTok::QuotedIdent(s)) => {
                    let a = s.clone();
                    self.i += 1;
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(FromItem::Table { name, alias })
    }

    fn type_name(&mut self) -> Result<PgType, DbError> {
        let first = self.ident()?;
        let full = if first == "double" && self.peek_kw("precision") {
            self.i += 1;
            "double precision".to_string()
        } else if first == "character" && self.peek_kw("varying") {
            self.i += 1;
            "varchar".to_string()
        } else {
            first
        };
        PgType::parse(&full).ok_or_else(|| DbError::syntax(format!("unknown type {full}")))
    }

    // ----- expressions -----

    fn expr(&mut self) -> Result<SqlExpr, DbError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = SqlExpr::Binary { op: SqlBinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = SqlExpr::Binary { op: SqlBinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, DbError> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(SqlExpr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<SqlExpr, DbError> {
        let lhs = self.additive()?;
        // IS [NOT] NULL / IS [NOT] DISTINCT FROM.
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            if self.eat_kw("null") {
                return Ok(SqlExpr::IsNull { expr: Box::new(lhs), negated });
            }
            self.expect_kw("distinct")?;
            self.expect_kw("from")?;
            let rhs = self.additive()?;
            let op = if negated { SqlBinOp::IsNotDistinctFrom } else { SqlBinOp::IsDistinctFrom };
            return Ok(SqlExpr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        // [NOT] IN.
        let negated_in = if self.peek_kw("not") {
            // Lookahead for IN.
            if matches!(self.t.get(self.i + 1), Some(t) if t.is_kw("in")) {
                self.i += 2;
                true
            } else {
                false
            }
        } else if self.eat_kw("in") {
            false
        } else {
            // Comparisons (=, <>, <, <=, >, >=) and LIKE.
            if self.eat_kw("like") {
                let rhs = self.additive()?;
                return Ok(SqlExpr::Binary {
                    op: SqlBinOp::Like,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                });
            }
            for (sym, op) in [
                ("=", SqlBinOp::Eq),
                ("<>", SqlBinOp::Neq),
                ("<=", SqlBinOp::Le),
                (">=", SqlBinOp::Ge),
                ("<", SqlBinOp::Lt),
                (">", SqlBinOp::Gt),
            ] {
                if self.eat_sym(sym) {
                    let rhs = self.additive()?;
                    return Ok(SqlExpr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
                }
            }
            return Ok(lhs);
        };
        // IN list.
        if !negated_in {
            // `in` already consumed above when negated_in is false via eat_kw.
        }
        self.expect_sym("(")?;
        // Subquery form: IN (SELECT ...).
        if self.peek_kw("select") {
            let query = self.select()?;
            self.expect_sym(")")?;
            return Ok(SqlExpr::InSubquery {
                expr: Box::new(lhs),
                query: Box::new(query),
                negated: negated_in,
            });
        }
        let mut list = Vec::new();
        loop {
            list.push(self.expr()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(SqlExpr::InList { expr: Box::new(lhs), list, negated: negated_in })
    }

    fn additive(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = if self.eat_sym("+") {
                SqlBinOp::Add
            } else if self.eat_sym("-") {
                SqlBinOp::Sub
            } else if self.eat_sym("||") {
                SqlBinOp::Concat
            } else {
                break;
            };
            let rhs = self.multiplicative()?;
            lhs = SqlExpr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr, DbError> {
        let mut lhs = self.unary()?;
        loop {
            let op = if self.eat_sym("*") {
                SqlBinOp::Mul
            } else if self.eat_sym("/") {
                SqlBinOp::Div
            } else if self.eat_sym("%") {
                SqlBinOp::Mod
            } else {
                break;
            };
            let rhs = self.unary()?;
            lhs = SqlExpr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<SqlExpr, DbError> {
        if self.eat_sym("-") {
            let inner = self.unary()?;
            return Ok(SqlExpr::Neg(Box::new(inner)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<SqlExpr, DbError> {
        let mut e = self.primary()?;
        while self.eat_sym("::") {
            let ty = self.type_name()?;
            e = SqlExpr::Cast { expr: Box::new(e), ty };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<SqlExpr, DbError> {
        match self.peek().cloned() {
            Some(SqlTok::Int(n)) => {
                self.i += 1;
                Ok(SqlExpr::Literal(Cell::Int(n)))
            }
            Some(SqlTok::Float(f)) => {
                self.i += 1;
                Ok(SqlExpr::Literal(Cell::Float(f)))
            }
            Some(SqlTok::Str(s)) => {
                self.i += 1;
                Ok(SqlExpr::Literal(Cell::Text(s)))
            }
            Some(SqlTok::Sym("(")) => {
                self.i += 1;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(SqlTok::Sym("*")) => {
                self.i += 1;
                Ok(SqlExpr::Star)
            }
            Some(SqlTok::QuotedIdent(name)) => {
                self.i += 1;
                // Qualified reference "t"."c".
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    return Ok(SqlExpr::Column { qualifier: Some(name), name: col });
                }
                Ok(SqlExpr::Column { qualifier: None, name })
            }
            Some(SqlTok::Ident(word)) => {
                // Keyword literals.
                if word == "true" {
                    self.i += 1;
                    return Ok(SqlExpr::Literal(Cell::Bool(true)));
                }
                if word == "false" {
                    self.i += 1;
                    return Ok(SqlExpr::Literal(Cell::Bool(false)));
                }
                if word == "null" {
                    self.i += 1;
                    return Ok(SqlExpr::Literal(Cell::Null));
                }
                // Typed literals: DATE '...' TIME '...' TIMESTAMP '...'.
                if matches!(word.as_str(), "date" | "time" | "timestamp") {
                    if let Some(SqlTok::Str(text)) = self.t.get(self.i + 1).cloned() {
                        self.i += 2;
                        let ty = PgType::parse(&word).unwrap();
                        let cell = Cell::from_wire_text(&text, ty).ok_or_else(|| {
                            DbError::syntax(format!("bad {word} literal '{text}'"))
                        })?;
                        return Ok(SqlExpr::Literal(cell));
                    }
                }
                if word == "case" {
                    self.i += 1;
                    return self.case_expr();
                }
                if word == "cast" {
                    self.i += 1;
                    self.expect_sym("(")?;
                    let e = self.expr()?;
                    self.expect_kw("as")?;
                    let ty = self.type_name()?;
                    self.expect_sym(")")?;
                    return Ok(SqlExpr::Cast { expr: Box::new(e), ty });
                }
                if is_reserved(&word) {
                    return Err(DbError::syntax(format!(
                        "unexpected keyword {word} in expression"
                    )));
                }
                self.i += 1;
                // Function call?
                if self.peek_sym("(") {
                    self.i += 1;
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if !self.peek_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                    }
                    self.expect_sym(")")?;
                    // OVER clause → window function.
                    if self.eat_kw("over") {
                        self.expect_sym("(")?;
                        let mut partition_by = Vec::new();
                        let mut order_by = Vec::new();
                        if self.eat_kw("partition") {
                            self.expect_kw("by")?;
                            loop {
                                partition_by.push(self.expr()?);
                                if !self.eat_sym(",") {
                                    break;
                                }
                            }
                        }
                        if self.eat_kw("order") {
                            self.expect_kw("by")?;
                            loop {
                                let e = self.expr()?;
                                let desc = if self.eat_kw("desc") {
                                    true
                                } else {
                                    self.eat_kw("asc");
                                    false
                                };
                                order_by.push((e, desc));
                                if !self.eat_sym(",") {
                                    break;
                                }
                            }
                        }
                        self.expect_sym(")")?;
                        return Ok(SqlExpr::WindowFunc { name: word, args, partition_by, order_by });
                    }
                    return Ok(SqlExpr::Func { name: word, args, distinct });
                }
                // Qualified column t.c.
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    return Ok(SqlExpr::Column { qualifier: Some(word), name: col });
                }
                Ok(SqlExpr::Column { qualifier: None, name: word })
            }
            other => Err(DbError::syntax(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn case_expr(&mut self) -> Result<SqlExpr, DbError> {
        let mut branches = Vec::new();
        let mut else_result = None;
        loop {
            if self.eat_kw("when") {
                let cond = self.expr()?;
                self.expect_kw("then")?;
                let result = self.expr()?;
                branches.push((cond, result));
            } else if self.eat_kw("else") {
                else_result = Some(Box::new(self.expr()?));
            } else {
                self.expect_kw("end")?;
                break;
            }
        }
        Ok(SqlExpr::Case { branches, else_result })
    }
}

/// Words that cannot be implicit aliases.
fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "select"
            | "from"
            | "where"
            | "group"
            | "having"
            | "order"
            | "limit"
            | "offset"
            | "union"
            | "except"
            | "intersect"
            | "inner"
            | "left"
            | "right"
            | "cross"
            | "join"
            | "on"
            | "as"
            | "and"
            | "or"
            | "not"
            | "in"
            | "is"
            | "like"
            | "case"
            | "when"
            | "then"
            | "else"
            | "end"
            | "asc"
            | "desc"
            | "values"
            | "all"
            | "distinct"
            | "by"
            | "over"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> SelectStmt {
        match parse_statement(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}")) {
            Stmt::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn basic_select() {
        let s = sel(r#"SELECT "Price" FROM "trades""#);
        assert_eq!(s.items.len(), 1);
        assert!(matches!(&s.from, Some(FromItem::Table { name, .. }) if name == "trades"));
    }

    #[test]
    fn where_and_order_limit() {
        let s = sel(r#"SELECT "a" FROM "t" WHERE "a" > 1 ORDER BY "a" DESC LIMIT 5 OFFSET 2"#);
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].1, "desc");
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.offset, Some(2));
    }

    #[test]
    fn is_not_distinct_from() {
        let s = sel(r#"SELECT 1 FROM "t" WHERE "s" IS NOT DISTINCT FROM 'GOOG'::varchar"#);
        match s.where_clause.unwrap() {
            SqlExpr::Binary { op: SqlBinOp::IsNotDistinctFrom, rhs, .. } => {
                assert!(matches!(*rhs, SqlExpr::Cast { .. }));
            }
            other => panic!("expected INDF, got {other:?}"),
        }
    }

    #[test]
    fn group_by_and_aggregates() {
        let s = sel(r#"SELECT "Symbol", max("Price") AS "mx" FROM "t" GROUP BY "Symbol""#);
        assert_eq!(s.group_by.len(), 1);
        match &s.items[1] {
            SelectItem::Expr { expr, alias } => {
                assert!(expr.contains_aggregate());
                assert_eq!(alias.as_deref(), Some("mx"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let s = sel(r#"SELECT count(*) FROM "t""#);
        match &s.items[0] {
            SelectItem::Expr { expr: SqlExpr::Func { name, args, .. }, .. } => {
                assert_eq!(name, "count");
                assert_eq!(args, &vec![SqlExpr::Star]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn window_function() {
        let s = sel(
            r#"SELECT lead("Time") OVER (PARTITION BY "Symbol" ORDER BY "Time" ASC) AS "nxt" FROM "q""#,
        );
        match &s.items[0] {
            SelectItem::Expr { expr: SqlExpr::WindowFunc { name, partition_by, order_by, .. }, .. } => {
                assert_eq!(name, "lead");
                assert_eq!(partition_by.len(), 1);
                assert_eq!(order_by.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn joins() {
        let s = sel(
            r#"SELECT * FROM (SELECT "a" FROM "t") AS l LEFT OUTER JOIN (SELECT "b" FROM "u") AS r ON "a" = "b""#,
        );
        match s.from.unwrap() {
            FromItem::Join { kind: JoinType::Left, on, .. } => assert!(on.is_some()),
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn values_in_from() {
        let s = sel(r#"SELECT "c1" FROM (VALUES (1, 'a'), (2, 'b')) AS v("c1", "c2")"#);
        match s.from.unwrap() {
            FromItem::Values { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns, vec!["c1".to_string(), "c2".into()]);
            }
            other => panic!("expected values, got {other:?}"),
        }
    }

    #[test]
    fn union_all_chain() {
        let s = sel(r#"SELECT 1 UNION ALL SELECT 2"#);
        assert!(matches!(s.set_op, Some((SetOp::UnionAll, _))));
    }

    #[test]
    fn create_temp_table_as() {
        let stmt = parse_statement(
            r#"CREATE TEMPORARY TABLE "HQ_TEMP_1" AS SELECT "ordcol", "Price" FROM "trades""#,
        )
        .unwrap();
        match stmt {
            Stmt::CreateTableAs { name, temp, .. } => {
                assert_eq!(name, "HQ_TEMP_1");
                assert!(temp);
            }
            other => panic!("expected CTAS, got {other:?}"),
        }
    }

    #[test]
    fn create_table_and_insert() {
        let stmt = parse_statement(
            "CREATE TABLE t (a bigint, b varchar, c double precision, d date)",
        )
        .unwrap();
        match stmt {
            Stmt::CreateTable { columns, temp, .. } => {
                assert!(!temp);
                assert_eq!(columns[2].1, PgType::Float8);
                assert_eq!(columns[3].1, PgType::Date);
            }
            other => panic!("expected create, got {other:?}"),
        }
        let ins = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match ins {
            Stmt::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap().len(), 2);
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn typed_literals() {
        let s = sel("SELECT DATE '2016-06-26', TIME '09:30:00', TIMESTAMP '2016-06-26 09:30:00'");
        assert_eq!(s.items.len(), 3);
        match &s.items[0] {
            SelectItem::Expr { expr: SqlExpr::Literal(Cell::Date(d)), .. } => assert_eq!(*d, 6021),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_list_and_not_in() {
        let s = sel(r#"SELECT 1 FROM "t" WHERE "s" IN ('a', 'b') AND "x" NOT IN (1, 2)"#);
        let w = s.where_clause.unwrap();
        match w {
            SqlExpr::Binary { op: SqlBinOp::And, lhs, rhs } => {
                assert!(matches!(*lhs, SqlExpr::InList { negated: false, .. }));
                assert!(matches!(*rhs, SqlExpr::InList { negated: true, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_when() {
        let s = sel(r#"SELECT CASE WHEN "a" > 0 THEN 1 ELSE 0 END FROM "t""#);
        match &s.items[0] {
            SelectItem::Expr { expr: SqlExpr::Case { branches, else_result }, .. } => {
                assert_eq!(branches.len(), 1);
                assert!(else_result.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 parses as 1 + (2*3).
        let s = sel("SELECT 1 + 2 * 3");
        match &s.items[0] {
            SelectItem::Expr { expr: SqlExpr::Binary { op: SqlBinOp::Add, rhs, .. }, .. } => {
                assert!(matches!(**rhs, SqlExpr::Binary { op: SqlBinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // AND binds tighter than OR.
        let s = sel(r#"SELECT 1 FROM "t" WHERE "a" = 1 OR "b" = 2 AND "c" = 3"#);
        match s.where_clause.unwrap() {
            SqlExpr::Binary { op: SqlBinOp::Or, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn information_schema_names_parse() {
        let s = sel("SELECT column_name FROM information_schema.columns WHERE table_name = 'trades'");
        assert!(matches!(
            s.from,
            Some(FromItem::Table { ref name, .. }) if name == "information_schema.columns"
        ));
    }

    #[test]
    fn noop_statements() {
        assert!(matches!(parse_statement("BEGIN").unwrap(), Stmt::NoOp(_)));
        assert!(matches!(parse_statement("SET client_encoding = 'UTF8'").unwrap(), Stmt::NoOp(_)));
    }

    #[test]
    fn drop_table_if_exists() {
        match parse_statement("DROP TABLE IF EXISTS t").unwrap() {
            Stmt::DropTable { if_exists, .. } => assert!(if_exists),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_are_clean() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT 1 extra garbage ,").is_err());
    }
}
