//! Rendering ASTs back to SQL text.
//!
//! The alignment agents parse a candidate SQL, rewrite the tree, and print
//! it again; round-tripping (`print(parse(x))` reparses to the same tree)
//! is covered by property tests in `tests/` at the workspace root.

use crate::ast::*;
use crate::value::Value;
use std::fmt::Write;

/// Render a statement as SQL text.
pub fn print_stmt(stmt: &Stmt) -> String {
    match stmt {
        Stmt::Select(s) => print_select(s),
        Stmt::CreateTable(c) => print_create(c),
        Stmt::Insert(i) => print_insert(i),
        Stmt::Update(u) => print_update(u),
        Stmt::Delete(d) => print_delete(d),
    }
}

fn print_update(u: &UpdateStmt) -> String {
    let mut out = format!("UPDATE {} SET ", ident(&u.table));
    for (i, (c, e)) in u.assignments.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} = {}", ident(c), print_expr(e));
    }
    if let Some(w) = &u.where_clause {
        let _ = write!(out, " WHERE {}", print_expr(w));
    }
    out
}

fn print_delete(d: &DeleteStmt) -> String {
    let mut out = format!("DELETE FROM {}", ident(&d.table));
    if let Some(w) = &d.where_clause {
        let _ = write!(out, " WHERE {}", print_expr(w));
    }
    out
}

/// Render a select statement.
pub fn print_select(stmt: &SelectStmt) -> String {
    let mut out = String::with_capacity(64);
    write_core(&mut out, &stmt.core);
    for (op, core) in &stmt.compounds {
        let _ = write!(out, " {} ", op.keyword());
        write_core(&mut out, core);
    }
    if !stmt.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, o) in stmt.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&print_expr(&o.expr));
            if o.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(l) = &stmt.limit {
        let _ = write!(out, " LIMIT {}", print_expr(l));
    }
    if let Some(o) = &stmt.offset {
        let _ = write!(out, " OFFSET {}", print_expr(o));
    }
    out
}

fn write_core(out: &mut String, core: &SelectCore) {
    out.push_str("SELECT ");
    if core.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in core.items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::TableWildcard(t) => {
                let _ = write!(out, "{}.*", ident(t));
            }
            SelectItem::Expr { expr, alias } => {
                out.push_str(&print_expr(expr));
                if let Some(a) = alias {
                    let _ = write!(out, " AS {}", ident(a));
                }
            }
        }
    }
    if let Some(from) = &core.from {
        out.push_str(" FROM ");
        write_table_ref(out, &from.base);
        for j in &from.joins {
            let kw = match j.kind {
                JoinKind::Inner => " INNER JOIN ",
                JoinKind::Left => " LEFT JOIN ",
                JoinKind::Cross => " CROSS JOIN ",
            };
            out.push_str(kw);
            write_table_ref(out, &j.table);
            if let Some(on) = &j.on {
                let _ = write!(out, " ON {}", print_expr(on));
            }
        }
    }
    if let Some(w) = &core.where_clause {
        let _ = write!(out, " WHERE {}", print_expr(w));
    }
    if !core.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, g) in core.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&print_expr(g));
        }
    }
    if let Some(h) = &core.having {
        let _ = write!(out, " HAVING {}", print_expr(h));
    }
}

fn write_table_ref(out: &mut String, t: &TableRef) {
    match t {
        TableRef::Named { name, alias, .. } => {
            out.push_str(&ident(name));
            if let Some(a) = alias {
                let _ = write!(out, " AS {}", ident(a));
            }
        }
        TableRef::Subquery { query, alias } => {
            let _ = write!(out, "({}) AS {}", print_select(query), ident(alias));
        }
    }
}

/// Render an expression.
pub fn print_expr(e: &Expr) -> String {
    let mut s = String::with_capacity(16);
    write_expr(&mut s, e, 0);
    s
}

/// Parent binding strength; children with strictly weaker binding get
/// parenthesised.
fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne => 3,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
        BinOp::Add | BinOp::Sub => 5,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        BinOp::Concat => 7,
    }
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Concat => "||",
        BinOp::Eq => "=",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
    }
}

fn write_expr(out: &mut String, e: &Expr, parent_prec: u8) {
    match e {
        Expr::Literal(v) => out.push_str(&literal(v)),
        Expr::Column { table, column, .. } => {
            if let Some(t) = table {
                let _ = write!(out, "{}.{}", ident(t), ident(column));
            } else {
                out.push_str(&ident(column));
            }
        }
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => {
                out.push('-');
                let start = out.len();
                write_expr(out, expr, 8);
                // `--` would open a comment
                if out[start..].starts_with('-') {
                    out.insert(start, ' ');
                }
            }
            UnaryOp::Not => {
                out.push_str("NOT ");
                write_expr(out, expr, 2);
            }
        },
        Expr::Binary { left, op, right } => {
            let p = prec(*op);
            let need = p < parent_prec;
            if need {
                out.push('(');
            }
            write_expr(out, left, p);
            let _ = write!(out, " {} ", op_str(*op));
            // right side binds one tighter to keep left-associativity on
            // reparse for non-commutative operators
            write_expr(out, right, p + 1);
            if need {
                out.push(')');
            }
        }
        Expr::Like { expr, pattern, negated } => {
            wrap_pred(out, parent_prec, |out| {
                write_expr(out, expr, 4);
                out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
                write_expr(out, pattern, 4);
            });
        }
        Expr::Between { expr, low, high, negated } => {
            wrap_pred(out, parent_prec, |out| {
                write_expr(out, expr, 4);
                out.push_str(if *negated { " NOT BETWEEN " } else { " BETWEEN " });
                write_expr(out, low, 4);
                out.push_str(" AND ");
                write_expr(out, high, 4);
            });
        }
        Expr::InList { expr, list, negated } => {
            wrap_pred(out, parent_prec, |out| {
                write_expr(out, expr, 4);
                out.push_str(if *negated { " NOT IN (" } else { " IN (" });
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, item, 0);
                }
                out.push(')');
            });
        }
        Expr::InSubquery { expr, query, negated } => {
            wrap_pred(out, parent_prec, |out| {
                write_expr(out, expr, 4);
                out.push_str(if *negated { " NOT IN (" } else { " IN (" });
                out.push_str(&print_select(query));
                out.push(')');
            });
        }
        Expr::IsNull { expr, negated } => {
            wrap_pred(out, parent_prec, |out| {
                write_expr(out, expr, 4);
                out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            });
        }
        Expr::Case { operand, branches, else_expr } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                write_expr(out, op, 0);
            }
            for (w, t) in branches {
                out.push_str(" WHEN ");
                write_expr(out, w, 0);
                out.push_str(" THEN ");
                write_expr(out, t, 0);
            }
            if let Some(el) = else_expr {
                out.push_str(" ELSE ");
                write_expr(out, el, 0);
            }
            out.push_str(" END");
        }
        Expr::Function { name, args, distinct, .. } => {
            let _ = write!(out, "{}(", name.to_uppercase());
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, 0);
            }
            out.push(')');
        }
        Expr::Wildcard => out.push('*'),
        Expr::Cast { expr, ty } => {
            out.push_str("CAST(");
            write_expr(out, expr, 0);
            let _ = write!(out, " AS {})", ty.as_sql());
        }
        Expr::Subquery(q) => {
            let _ = write!(out, "({})", print_select(q));
        }
        Expr::Exists { query, negated } => {
            if *negated {
                out.push_str("NOT ");
            }
            let _ = write!(out, "EXISTS ({})", print_select(query));
        }
        // Bound references only appear in prepared plans, which are never
        // printed back to user-facing SQL; render a debug-ish form anyway
        // so diagnostics stay readable.
        Expr::BoundColumn { index } => {
            let _ = write!(out, "@{index}");
        }
        Expr::OuterColumn { up, index } => {
            let _ = write!(out, "@outer{up}.{index}");
        }
    }
}

/// Predicates sit at equality precedence (3); parenthesise under tighter
/// parents.
fn wrap_pred(out: &mut String, parent_prec: u8, f: impl FnOnce(&mut String)) {
    let need = parent_prec > 3;
    if need {
        out.push('(');
    }
    f(out);
    if need {
        out.push(')');
    }
}

/// Quote an identifier only when needed (non-alphanumeric or keyword-ish).
pub fn ident(name: &str) -> String {
    let simple = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !name.chars().next().unwrap().is_ascii_digit()
        && !is_reserved(name);
    if simple {
        name.to_owned()
    } else {
        format!("`{}`", name.replace('`', "``"))
    }
}

fn is_reserved(name: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN",
        "INNER", "LEFT", "CROSS", "ON", "AND", "OR", "NOT", "AS", "UNION", "INTERSECT", "EXCEPT",
        "CASE", "WHEN", "THEN", "ELSE", "END", "IN", "IS", "NULL", "LIKE", "BETWEEN", "EXISTS",
        "CAST", "DISTINCT", "ALL", "ASC", "DESC", "VALUES", "INSERT", "INTO", "CREATE", "TABLE",
        "PRIMARY", "KEY", "FOREIGN", "REFERENCES", "OUTER",
    ];
    RESERVED.iter().any(|k| name.eq_ignore_ascii_case(k))
}

/// Render a literal value as SQL source.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Real(r) => {
            if r.fract() == 0.0 && r.is_finite() && r.abs() < 1.0e15 {
                format!("{r:.1}")
            } else {
                format!("{r}")
            }
        }
        Value::Text(t) => format!("'{}'", t.replace('\'', "''")),
    }
}

fn print_create(c: &CreateTableStmt) -> String {
    let mut out = format!("CREATE TABLE {} (", ident(&c.name));
    for (i, col) in c.columns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {}", ident(&col.name), col.ty.as_sql());
        if col.primary_key {
            out.push_str(" PRIMARY KEY");
        }
    }
    if !c.primary_key.is_empty() {
        out.push_str(", PRIMARY KEY (");
        out.push_str(&c.primary_key.iter().map(|s| ident(s)).collect::<Vec<_>>().join(", "));
        out.push(')');
    }
    for fk in &c.foreign_keys {
        let _ = write!(
            out,
            ", FOREIGN KEY ({}) REFERENCES {} ({})",
            ident(&fk.column),
            ident(&fk.ref_table),
            ident(&fk.ref_column)
        );
    }
    out.push(')');
    out
}

fn print_insert(i: &InsertStmt) -> String {
    let mut out = format!("INSERT INTO {}", ident(&i.table));
    if let Some(cols) = &i.columns {
        let _ = write!(
            out,
            " ({})",
            cols.iter().map(|s| ident(s)).collect::<Vec<_>>().join(", ")
        );
    }
    out.push_str(" VALUES ");
    for (ri, row) in i.rows.iter().enumerate() {
        if ri > 0 {
            out.push_str(", ");
        }
        out.push('(');
        for (ci, e) in row.iter().enumerate() {
            if ci > 0 {
                out.push_str(", ");
            }
            out.push_str(&print_expr(e));
        }
        out.push(')');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_select, parse_statement};

    fn roundtrip(sql: &str) {
        let ast = parse_select(sql).unwrap();
        let printed = print_select(&ast);
        let reparsed = parse_select(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(ast, reparsed, "printed: {printed}");
    }

    #[test]
    fn roundtrips() {
        roundtrip("SELECT COUNT(DISTINCT T1.ID) FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID WHERE T2.IGA > 80");
        roundtrip("SELECT a, b AS c FROM t WHERE x = 'it''s' AND y IS NOT NULL ORDER BY a DESC LIMIT 1");
        roundtrip("SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t");
        roundtrip("SELECT `First Date` FROM t WHERE a BETWEEN 1 AND 2 OR b NOT LIKE '%q%'");
        roundtrip("SELECT x FROM (SELECT y AS x FROM u) AS s WHERE x IN (SELECT z FROM v)");
        roundtrip("SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 LIMIT 3");
        roundtrip("SELECT -a * (b + c) / 2 FROM t");
        roundtrip("SELECT 1 WHERE NOT EXISTS (SELECT 1 FROM t)");
    }

    #[test]
    fn quotes_awkward_identifiers() {
        assert_eq!(ident("First Date"), "`First Date`");
        assert_eq!(ident("order"), "`order`");
        assert_eq!(ident("simple_name"), "simple_name");
        assert_eq!(ident("2fast"), "`2fast`");
    }

    #[test]
    fn escapes_string_literals() {
        assert_eq!(literal(&Value::text("it's")), "'it''s'");
        assert_eq!(literal(&Value::Real(2.0)), "2.0");
    }

    #[test]
    fn parenthesises_or_under_and() {
        let sql = "SELECT 1 FROM t WHERE (a = 1 OR b = 2) AND c = 3";
        let ast = parse_select(sql).unwrap();
        let printed = print_select(&ast);
        assert!(printed.contains("(a = 1 OR b = 2)"), "printed: {printed}");
        roundtrip(sql);
    }

    #[test]
    fn double_negation_does_not_print_a_comment() {
        roundtrip("SELECT - -x, - - -1 FROM t");
    }

    #[test]
    fn create_insert_roundtrip() {
        for sql in [
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, FOREIGN KEY (id) REFERENCES u (uid))",
            "INSERT INTO t (id, name) VALUES (1, 'a'), (2, NULL)",
            "UPDATE t SET name = 'b', id = id + 1 WHERE name = 'a'",
            "DELETE FROM t WHERE id IN (1, 2)",
        ] {
            let ast = parse_statement(sql).unwrap();
            let printed = print_stmt(&ast);
            assert_eq!(parse_statement(&printed).unwrap(), ast, "printed: {printed}");
        }
    }

    #[test]
    fn left_assoc_subtraction_survives() {
        let ast = parse_select("SELECT 10 - 4 - 3").unwrap();
        let printed = print_select(&ast);
        assert_eq!(parse_select(&printed).unwrap(), ast, "printed: {printed}");
    }
}
