//! Schema-aware semantic analysis of SELECT statements.
//!
//! [`analyze`] runs three passes over a parsed statement and returns an
//! [`Analysis`]:
//!
//! 1. **Name resolution** over the frozen FROM layout (the same scope rules
//!    as [`crate::exec`]): `E0101` unknown table, `E0102` unknown column,
//!    `E0103` ambiguous column, each with did-you-mean help drawn from the
//!    schema. Every failed resolution is also surfaced as a machine-readable
//!    [`UnresolvedColumn`] so callers (the alignment agents) can remap
//!    columns without re-walking the AST.
//! 2. **Type/shape checks** (`E02xx`): aggregate misuse, incompatible
//!    comparison operands, ORDER BY ordinals, set-operator arity, unknown
//!    functions and arities.
//! 3. **Lints** (`W03xx`) via a pluggable [`LintRule`] registry.
//!
//! [`Analysis::certain_error`] is `Some` exactly when the SQL does not
//! parse: execution calls the same [`crate::parser::parse_select`] first,
//! so that error is the one execution would return, byte for byte. Every
//! other finding may depend on the data (a per-row failure over an empty
//! table never fires), so only execution decides whether it fails.

use crate::ast::{
    BinOp, Expr, OrderItem, SelectCore, SelectItem, SelectStmt, TableRef, TypeName,
};
use crate::diag::{Diagnostic, Severity, Span};
use crate::error::SqlError;
use crate::exec::{contains_aggregate, default_label, eval_const, substitute_aliases};
use crate::functions::is_aggregate_name;
use crate::printer::print_expr;
use crate::schema::DbSchema;
use crate::value::Value;

// ---------------- public API ----------------

/// The result of analyzing one statement against a schema.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Everything the analyzer found, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// The parse error, when the SQL does not parse. Execution parses
    /// first, so it must fail with exactly this value. `None` whenever the
    /// SQL parses, even with error-severity diagnostics: only execution
    /// decides whether those fail.
    pub certain_error: Option<SqlError>,
    /// Machine-readable resolution failures, for column remapping.
    pub unresolved: Vec<UnresolvedColumn>,
}

impl Analysis {
    /// Does the analysis contain any error-severity diagnostic?
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Is the statement fully clean (no errors, no warnings)?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render every diagnostic against the analyzed SQL.
    pub fn rendered(&self, sql: &str) -> String {
        crate::diag::render_all(&self.diagnostics, sql)
    }
}

/// One column reference the resolver could not bind, with repair candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct UnresolvedColumn {
    /// Qualifier as written (`T1` in `T1.Nam`), if any.
    pub table: Option<String>,
    /// Column name as written.
    pub column: String,
    /// Where the reference appears in the source.
    pub span: Span,
    /// Ranked repair candidates as `(binding, column)` pairs that *do*
    /// resolve in the statement's scope, best first.
    pub suggestions: Vec<(Option<String>, String)>,
}

/// Analyze a parsed statement with the default lint set.
pub fn analyze(schema: &DbSchema, stmt: &SelectStmt) -> Analysis {
    analyze_with_lints(schema, stmt, &default_lints())
}

/// Analyze a parsed statement with an explicit lint registry.
pub fn analyze_with_lints(
    schema: &DbSchema,
    stmt: &SelectStmt,
    lints: &[Box<dyn LintRule>],
) -> Analysis {
    let mut ck = Checker { schema, diags: Vec::new(), unresolved: Vec::new(), unused: Vec::new() };
    let mut chain: Vec<Scope> = Vec::new();
    ck.check_stmt(stmt, &mut chain);
    let summary = ResolutionSummary { unused_bindings: std::mem::take(&mut ck.unused) };
    let mut diagnostics = std::mem::take(&mut ck.diags);
    let cx = LintContext { schema, stmt, resolution: &summary };
    for rule in lints {
        diagnostics.extend(rule.check(&cx));
    }
    Analysis { diagnostics, certain_error: None, unresolved: ck.unresolved }
}

/// Parse and analyze a SQL string. A parse failure becomes an `E0001`
/// diagnostic and, since execution must fail the same way, the certain
/// error.
pub fn analyze_sql(schema: &DbSchema, sql: &str) -> Analysis {
    match crate::parser::parse_select(sql) {
        Ok(stmt) => analyze(schema, &stmt),
        Err(e) => {
            let span = match &e {
                SqlError::Syntax { pos, .. } => Span::new(*pos, (*pos + 1).min(sql.len().max(1))),
                _ => Span::empty(),
            };
            Analysis {
                diagnostics: vec![Diagnostic::error("E0001", span, e.to_string())],
                certain_error: Some(e),
                unresolved: Vec::new(),
            }
        }
    }
}

// ---------------- lint registry ----------------

/// Resolution facts shared with lint rules.
#[derive(Debug, Default)]
pub struct ResolutionSummary {
    /// FROM bindings never referenced by any expression, `*`, or qualifier.
    pub unused_bindings: Vec<(String, Span)>,
}

/// Everything a lint rule may inspect.
pub struct LintContext<'a> {
    /// The schema the statement was resolved against.
    pub schema: &'a DbSchema,
    /// The analyzed statement.
    pub stmt: &'a SelectStmt,
    /// Resolution facts from the name-resolution pass.
    pub resolution: &'a ResolutionSummary,
}

/// A pluggable lint rule producing `W03xx` warnings.
pub trait LintRule: Send + Sync {
    /// Stable diagnostic code, e.g. `"W0303"`.
    fn code(&self) -> &'static str;
    /// Short human-readable rule name.
    fn name(&self) -> &'static str;
    /// Inspect the statement and return warnings.
    fn check(&self, cx: &LintContext<'_>) -> Vec<Diagnostic>;
}

///// The built-in lint set: `W0301` star-in-scalar-subquery, `W0302`
/// always-false literal predicate, `W0303` unused FROM table.
pub fn default_lints() -> Vec<Box<dyn LintRule>> {
    vec![Box::new(StarInScalarSubquery), Box::new(AlwaysFalsePredicate), Box::new(UnusedFromTable)]
}

// ---------------- scopes & resolution ----------------

#[derive(Debug, Clone)]
struct Binding {
    /// Name this binding is addressed by (alias, or the table name).
    name: String,
    /// Schema table backing it (None for FROM-subqueries).
    table: Option<String>,
    /// Column names, in layout order. Empty when `known` is false.
    columns: Vec<String>,
    span: Span,
    /// False when the table failed to resolve (suppresses cascades).
    known: bool,
    used: bool,
}

type Scope = Vec<Binding>;

/// Outcome of resolving one column ref against a single scope, mirroring
/// `exec::resolve` but keeping the failure modes apart.
enum Res {
    Hit { bind: usize },
    /// The qualifier names a poisoned (unknown-table) binding: swallow.
    Poisoned { bind: usize },
    NotFound,
    Ambiguous(Vec<usize>),
}

fn resolve_in(scope: &Scope, table: Option<&str>, column: &str) -> Res {
    match table {
        Some(t) => {
            for (i, b) in scope.iter().enumerate() {
                if !b.name.eq_ignore_ascii_case(t) {
                    continue;
                }
                if !b.known {
                    return Res::Poisoned { bind: i };
                }
                if b.columns.iter().any(|c| c.eq_ignore_ascii_case(column)) {
                    return Res::Hit { bind: i };
                }
            }
            Res::NotFound
        }
        None => {
            let hits: Vec<usize> = scope
                .iter()
                .enumerate()
                .filter(|(_, b)| b.columns.iter().any(|c| c.eq_ignore_ascii_case(column)))
                .map(|(i, _)| i)
                .collect();
            match hits.len() {
                0 => {
                    if scope.iter().any(|b| !b.known) {
                        // an unknown table could have held it; stay quiet
                        Res::Poisoned { bind: 0 }
                    } else {
                        Res::NotFound
                    }
                }
                1 => Res::Hit { bind: hits[0] },
                _ => Res::Ambiguous(hits),
            }
        }
    }
}

/// Case-insensitive Levenshtein distance, for did-you-mean ranking.
fn name_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(|c| c.to_lowercase()).collect();
    let b: Vec<char> = b.chars().flat_map(|c| c.to_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// `name` rendered for help text.
fn tick(name: &str) -> String {
    format!("`{name}`")
}

// ---------------- diagnostics pass ----------------

struct Checker<'a> {
    schema: &'a DbSchema,
    diags: Vec<Diagnostic>,
    unresolved: Vec<UnresolvedColumn>,
    unused: Vec<(String, Span)>,
}

impl<'a> Checker<'a> {
    /// Check one statement; returns the output labels of the first core
    /// when statically known (None if a wildcard over a poisoned binding
    /// makes the width unknowable).
    fn check_stmt(&mut self, stmt: &SelectStmt, chain: &mut Vec<Scope>) -> Option<Vec<String>> {
        let simple = stmt.compounds.is_empty();
        let order: &[OrderItem] = if simple { &stmt.order_by } else { &[] };
        let labels = self.check_core(&stmt.core, chain, order);
        if !simple {
            let w1 = labels.as_ref().map(Vec::len);
            for (_, core) in &stmt.compounds {
                let li = self.check_core(core, chain, &[]);
                if let (Some(a), Some(b)) = (w1, li.as_ref().map(Vec::len)) {
                    if a != b {
                        self.diags.push(Diagnostic::error(
                            "E0206",
                            Span::empty(),
                            format!("set-operator arms select {a} vs {b} columns"),
                        ));
                    }
                }
            }
            self.check_compound_order(&stmt.order_by, labels.as_deref());
        }
        for e in stmt.limit.iter().chain(stmt.offset.iter()) {
            self.check_limit_expr(e, chain);
        }
        labels
    }

    fn check_compound_order(&mut self, order_by: &[OrderItem], labels: Option<&[String]>) {
        for o in order_by {
            match &o.expr {
                Expr::Literal(Value::Int(k)) => {
                    if let Some(labels) = labels {
                        if *k < 1 || *k as usize > labels.len() {
                            self.diags.push(Diagnostic::error(
                                "E0205",
                                Span::empty(),
                                format!(
                                    "ORDER BY position {k} is out of range (1..={})",
                                    labels.len()
                                ),
                            ));
                        }
                    }
                }
                Expr::Column { table: None, column, span } => {
                    if let Some(labels) = labels {
                        if !labels.iter().any(|l| l.eq_ignore_ascii_case(column)) {
                            self.diags.push(
                                Diagnostic::error(
                                    "E0102",
                                    *span,
                                    format!("no such column: {column}"),
                                )
                                .with_help(
                                    "a compound ORDER BY term must name an output label of \
                                     the first SELECT",
                                ),
                            );
                        }
                    }
                }
                other => {
                    let span = expr_span(other);
                    self.diags.push(Diagnostic::error(
                        "E0205",
                        span,
                        "ORDER BY term of a compound SELECT must be a column label or position",
                    ));
                }
            }
        }
    }

    fn check_limit_expr(&mut self, e: &Expr, chain: &mut Vec<Scope>) {
        if contains_aggregate(e) {
            let span = first_aggregate_span(e);
            self.diags.push(Diagnostic::error(
                "E0208",
                span,
                "aggregate used in LIMIT/OFFSET, outside of an aggregate context",
            ));
        }
        if let Expr::Literal(v) = e {
            if v.as_i64().is_none() {
                self.diags.push(Diagnostic::error(
                    "E0210",
                    Span::empty(),
                    "LIMIT/OFFSET must be an integer",
                ));
            }
        }
        // LIMIT evaluates against an empty layout: only enclosing rows.
        chain.push(Scope::new());
        self.check_expr(e, chain, None);
        chain.pop();
    }
}

/// Span of the first aggregate call inside `e`, for pointing diagnostics.
fn first_aggregate_span(e: &Expr) -> Span {
    let mut span = Span::empty();
    e.walk(&mut |node| {
        if span.is_empty() {
            if let Expr::Function { name, args, span: s, .. } = node {
                if is_aggregate_name(name, args.len()) {
                    span = *s;
                }
            }
        }
    });
    span
}

/// Best-effort source span of an expression (its first spanned node).
fn expr_span(e: &Expr) -> Span {
    let mut span = Span::empty();
    e.walk(&mut |node| {
        if span.is_empty() {
            match node {
                Expr::Column { span: s, .. } | Expr::Function { span: s, .. } => span = *s,
                _ => {}
            }
        }
    });
    span
}

impl<'a> Checker<'a> {
    /// Check one SELECT core with its own scope pushed onto `chain`.
    /// Returns the core's output labels when statically known.
    fn check_core(
        &mut self,
        core: &SelectCore,
        chain: &mut Vec<Scope>,
        order_by: &[OrderItem],
    ) -> Option<Vec<String>> {
        chain.push(Scope::new());
        if let Some(from) = &core.from {
            // FROM-subqueries see only the *enclosing* row environments,
            // never their sibling tables, so pop the scope-in-progress
            // while building each binding.
            let refs: Vec<&TableRef> =
                std::iter::once(&from.base).chain(from.joins.iter().map(|j| &j.table)).collect();
            for (i, tref) in refs.into_iter().enumerate() {
                let cur = chain.pop().expect("scope pushed above");
                let bind = self.make_binding(tref, chain);
                chain.push(cur);
                chain.last_mut().expect("scope pushed above").push(bind);
                // the ON predicate sees the partial layout built so far,
                // exactly as the executor evaluates it
                if i > 0 {
                    if let Some(on) = &from.joins[i - 1].on {
                        if contains_aggregate(on) {
                            self.diags.push(Diagnostic::error(
                                "E0208",
                                first_aggregate_span(on),
                                "aggregate in JOIN ON clause",
                            ));
                        }
                        self.check_expr(on, chain, None);
                    }
                }
            }
        }

        if let Some(w) = &core.where_clause {
            if contains_aggregate(w) {
                self.diags.push(
                    Diagnostic::error(
                        "E0201",
                        first_aggregate_span(w),
                        "aggregate in WHERE clause",
                    )
                    .with_help("filter on aggregates with HAVING instead"),
                );
            }
            self.check_expr(w, chain, None);
        }

        // Expand the projection for labels and the alias map.
        let (items, labels) = self.expand_for_check(core, chain);

        // GROUP BY / HAVING with projection aliases substituted, as the
        // executor evaluates them.
        let group_by: Vec<Expr> =
            core.group_by.iter().map(|g| substitute_aliases(g, &items)).collect();
        for g in &group_by {
            if contains_aggregate(g) {
                self.diags.push(Diagnostic::error(
                    "E0208",
                    first_aggregate_span(g),
                    "aggregate in GROUP BY",
                ));
            }
            self.check_expr(g, chain, None);
        }
        if let Some(h) = &core.having {
            let h = substitute_aliases(h, &items);
            self.check_expr(&h, chain, None);
        }

        for item in &core.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.check_expr(expr, chain, None);
            }
        }
        if !group_by.is_empty() {
            for item in &core.items {
                if let SelectItem::Expr { expr, .. } = item {
                    self.check_group_coverage(expr, &group_by);
                }
            }
        }

        // ORDER BY of a simple statement: positions, aliases, then plain
        // row/group expressions.
        for o in order_by {
            match &o.expr {
                Expr::Literal(Value::Int(k)) => {
                    if let Some(labels) = &labels {
                        if *k < 1 || *k as usize > labels.len() {
                            self.diags.push(Diagnostic::error(
                                "E0205",
                                Span::empty(),
                                format!(
                                    "ORDER BY position {k} is out of range (1..={})",
                                    labels.len()
                                ),
                            ));
                        }
                    }
                }
                Expr::Column { table: None, column, .. }
                    if labels
                        .as_ref()
                        .is_some_and(|ls| ls.iter().any(|l| l.eq_ignore_ascii_case(column))) =>
                {
                    // alias reference to a projected value
                }
                other => self.check_expr(other, chain, None),
            }
        }

        let scope = chain.pop().expect("scope pushed above");
        for b in &scope {
            if b.known && !b.used {
                self.unused.push((b.name.clone(), b.span));
            }
        }
        labels
    }

    /// Build a binding for one FROM table reference, diagnosing unknown
    /// tables (`E0101`) with did-you-mean help.
    fn make_binding(&mut self, tref: &TableRef, chain: &mut Vec<Scope>) -> Binding {
        match tref {
            TableRef::Named { name, alias, span } => match self.schema.table(name) {
                Some(info) => Binding {
                    name: alias.clone().unwrap_or_else(|| info.name.clone()),
                    table: Some(info.name.clone()),
                    columns: info.columns.iter().map(|c| c.name.clone()).collect(),
                    span: *span,
                    known: true,
                    used: false,
                },
                None => {
                    let mut d = Diagnostic::error(
                        "E0101",
                        *span,
                        format!("no such table: {name}"),
                    );
                    let mut cands: Vec<&str> =
                        self.schema.tables.iter().map(|t| t.name.as_str()).collect();
                    cands.sort_by_key(|t| name_distance(t, name));
                    if let Some(best) = cands.first() {
                        if name_distance(best, name) <= 3 {
                            d = d.with_help(format!("did you mean {}?", tick(best)));
                        }
                    }
                    self.diags.push(d);
                    Binding {
                        name: alias.clone().unwrap_or_else(|| name.clone()),
                        table: None,
                        columns: Vec::new(),
                        span: *span,
                        known: false,
                        used: true, // poisoned bindings never lint as unused
                    }
                }
            },
            TableRef::Subquery { query, alias } => {
                let labels = self.check_stmt(query, chain);
                Binding {
                    name: alias.clone(),
                    table: None,
                    columns: labels.unwrap_or_default(),
                    span: Span::empty(),
                    known: true,
                    used: false,
                }
            }
        }
    }

    /// Expand projection items against the current scope for label/alias
    /// bookkeeping; also checks `*` / `t.*` shape errors.
    fn expand_for_check(
        &mut self,
        core: &SelectCore,
        chain: &mut [Scope],
    ) -> (Vec<(Expr, String)>, Option<Vec<String>>) {
        let mut items: Vec<(Expr, String)> = Vec::new();
        let mut width_known = true;
        let scope_len = chain.last().map_or(0, Vec::len);
        for item in &core.items {
            match item {
                SelectItem::Wildcard => {
                    if scope_len == 0 {
                        self.diags.push(Diagnostic::error(
                            "E0209",
                            Span::empty(),
                            "SELECT * with no FROM clause",
                        ));
                        width_known = false;
                        continue;
                    }
                    let scope = chain.last_mut().expect("non-empty checked above");
                    for b in scope.iter_mut() {
                        b.used = true;
                        if !b.known {
                            width_known = false;
                        }
                        for c in b.columns.clone() {
                            items.push((Expr::qcol(b.name.clone(), c.clone()), c));
                        }
                    }
                }
                SelectItem::TableWildcard(t) => {
                    let scope = chain.last_mut().expect("scope pushed in check_core");
                    match scope.iter_mut().find(|b| b.name.eq_ignore_ascii_case(t)) {
                        Some(b) => {
                            b.used = true;
                            if !b.known {
                                width_known = false;
                            }
                            for c in b.columns.clone() {
                                items.push((Expr::qcol(b.name.clone(), c.clone()), c));
                            }
                        }
                        None => {
                            self.diags.push(Diagnostic::error(
                                "E0101",
                                Span::empty(),
                                format!("no such table: {t}"),
                            ));
                            width_known = false;
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let label = alias.clone().unwrap_or_else(|| default_label(expr));
                    items.push((expr.clone(), label));
                }
            }
        }
        let labels = width_known.then(|| items.iter().map(|(_, l)| l.clone()).collect());
        (items, labels)
    }
}

impl<'a> Checker<'a> {
    /// Recursive expression check. `in_agg` carries the name of the
    /// enclosing aggregate call, for nested-aggregate diagnostics.
    fn check_expr(&mut self, e: &Expr, chain: &mut Vec<Scope>, in_agg: Option<&str>) {
        match e {
            Expr::Column { table, column, span } => {
                self.resolve_use(chain, table.as_deref(), column, *span);
            }
            Expr::Function { name, args, span, .. } => {
                if is_aggregate_name(name, args.len()) {
                    if let Some(outer) = in_agg {
                        self.diags.push(
                            Diagnostic::error(
                                "E0202",
                                *span,
                                format!("nested aggregate in {outer}()"),
                            )
                            .with_help("aggregate calls cannot contain other aggregates"),
                        );
                    }
                    let counts_rows = name == "count"
                        && (args.is_empty() || matches!(args.first(), Some(Expr::Wildcard)));
                    if args.is_empty() && !counts_rows {
                        self.diags.push(Diagnostic::error(
                            "E0207",
                            *span,
                            format!("{name}() needs an argument"),
                        ));
                    }
                    for a in args {
                        self.check_expr(a, chain, Some(name));
                    }
                } else {
                    match scalar_arity(name) {
                        None => {
                            let mut d = Diagnostic::error(
                                "E0207",
                                *span,
                                format!("no such function: {name}"),
                            );
                            let mut cands: Vec<&str> = KNOWN_FUNCTIONS.to_vec();
                            cands.sort_by_key(|c| name_distance(c, name));
                            if let Some(best) = cands.first() {
                                if name_distance(best, name) <= 2 {
                                    d = d.with_help(format!("did you mean {}?", tick(best)));
                                }
                            }
                            self.diags.push(d);
                        }
                        Some((lo, hi, want)) => {
                            if args.len() < lo || args.len() > hi {
                                self.diags.push(Diagnostic::error(
                                    "E0207",
                                    *span,
                                    format!(
                                        "{name}() expects {want} argument(s), got {}",
                                        args.len()
                                    ),
                                ));
                            }
                        }
                    }
                    for a in args {
                        self.check_expr(a, chain, in_agg);
                    }
                }
            }
            Expr::Binary { left, op, right } => {
                if op.is_comparison() {
                    self.check_comparison(left, right, chain);
                }
                self.check_expr(left, chain, in_agg);
                self.check_expr(right, chain, in_agg);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                self.check_expr(expr, chain, in_agg);
            }
            Expr::Like { expr, pattern, .. } => {
                self.check_expr(expr, chain, in_agg);
                self.check_expr(pattern, chain, in_agg);
            }
            Expr::Between { expr, low, high, .. } => {
                self.check_expr(expr, chain, in_agg);
                self.check_expr(low, chain, in_agg);
                self.check_expr(high, chain, in_agg);
            }
            Expr::InList { expr, list, .. } => {
                self.check_expr(expr, chain, in_agg);
                for item in list {
                    self.check_expr(item, chain, in_agg);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    self.check_expr(o, chain, in_agg);
                }
                for (w, t) in branches {
                    self.check_expr(w, chain, in_agg);
                    self.check_expr(t, chain, in_agg);
                }
                if let Some(el) = else_expr {
                    self.check_expr(el, chain, in_agg);
                }
            }
            Expr::Subquery(q) => {
                self.check_stmt(q, chain);
            }
            Expr::InSubquery { expr, query, .. } => {
                self.check_expr(expr, chain, in_agg);
                self.check_stmt(query, chain);
            }
            Expr::Exists { query, .. } => {
                self.check_stmt(query, chain);
            }
            Expr::Wildcard => {
                // `COUNT(*)` counts rows of the whole join, so every
                // binding in the current scope is in use.
                if let Some(scope) = chain.last_mut() {
                    for b in scope.iter_mut() {
                        b.used = true;
                    }
                }
            }
            Expr::Literal(_) | Expr::BoundColumn { .. } | Expr::OuterColumn { .. } => {}
        }
    }

    /// Resolve one column reference with the executor's scope rules: the
    /// innermost scope first, then each enclosing environment. Diagnoses
    /// only when every scope fails, using the innermost failure mode.
    fn resolve_use(
        &mut self,
        chain: &mut [Scope],
        table: Option<&str>,
        column: &str,
        span: Span,
    ) {
        let mut innermost: Option<Res> = None;
        for depth in (0..chain.len()).rev() {
            let res = resolve_in(&chain[depth], table, column);
            match res {
                Res::Hit { bind } | Res::Poisoned { bind } => {
                    if let Some(b) = chain[depth].get_mut(bind) {
                        b.used = true;
                    }
                    return;
                }
                other => {
                    if innermost.is_none() {
                        innermost = Some(other);
                    }
                }
            }
        }
        // A failed resolution leaves us unsure which table was meant, so
        // conservatively mark every visible binding used — an E01xx finding
        // must not cascade into W0303 noise.
        for scope in chain.iter_mut() {
            for b in scope.iter_mut() {
                b.used = true;
            }
        }
        match innermost {
            Some(Res::Ambiguous(hits)) => {
                let scope = chain.last().expect("ambiguity implies a scope");
                let suggestions: Vec<(Option<String>, String)> = hits
                    .iter()
                    .filter_map(|&i| scope.get(i))
                    .map(|b| (Some(b.name.clone()), column.to_owned()))
                    .collect();
                let help = suggestions
                    .iter()
                    .map(|(t, c)| tick(&format!("{}.{c}", t.as_deref().unwrap_or(""))))
                    .collect::<Vec<_>>()
                    .join(" or ");
                self.diags.push(
                    Diagnostic::error(
                        "E0103",
                        span,
                        format!("ambiguous column name: {column}"),
                    )
                    .with_help(format!("qualify it: {help}")),
                );
                self.unresolved.push(UnresolvedColumn {
                    table: table.map(str::to_owned),
                    column: column.to_owned(),
                    span,
                    suggestions,
                });
            }
            Some(Res::NotFound) | None => {
                let shown = match table {
                    Some(t) => format!("{t}.{column}"),
                    None => column.to_owned(),
                };
                let suggestions = self.column_suggestions(chain, table, column);
                let mut d = Diagnostic::error(
                    "E0102",
                    span,
                    format!("no such column: {shown}"),
                );
                if let Some((t, c)) = suggestions.first() {
                    let full = match t {
                        Some(t) => format!("{t}.{c}"),
                        None => c.clone(),
                    };
                    d = d.with_help(format!("did you mean {}?", tick(&full)));
                } else if let Some(owner) = self.schema_owner_of(column) {
                    d = d.with_help(format!(
                        "column {} exists in table {}, which is not in FROM",
                        tick(column),
                        tick(&owner)
                    ));
                }
                self.diags.push(d);
                self.unresolved.push(UnresolvedColumn {
                    table: table.map(str::to_owned),
                    column: column.to_owned(),
                    span,
                    suggestions,
                });
            }
            Some(Res::Hit { .. }) | Some(Res::Poisoned { .. }) => unreachable!("returned above"),
        }
    }

    /// Ranked repair candidates for a failed resolution: exact-name columns
    /// under other qualifiers first, then fuzzy matches within scope.
    fn column_suggestions(
        &self,
        chain: &[Scope],
        table: Option<&str>,
        column: &str,
    ) -> Vec<(Option<String>, String)> {
        let mut scored: Vec<(usize, Option<String>, String)> = Vec::new();
        for scope in chain.iter().rev() {
            for b in scope {
                for c in &b.columns {
                    let d = name_distance(c, column);
                    if d > 2 {
                        continue;
                    }
                    // prefer same-qualifier fixes when one was written
                    let qualifier_penalty = match table {
                        Some(t) if b.name.eq_ignore_ascii_case(t) => 0,
                        Some(_) => 1,
                        None => 0,
                    };
                    scored.push((d * 2 + qualifier_penalty, Some(b.name.clone()), c.clone()));
                }
            }
            if !scored.is_empty() {
                break; // innermost scope with candidates wins
            }
        }
        scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        scored.truncate(3);
        scored.into_iter().map(|(_, t, c)| (t, c)).collect()
    }

    /// Schema-wide owner of an exactly-named column outside the FROM scope.
    fn schema_owner_of(&self, column: &str) -> Option<String> {
        self.schema
            .tables
            .iter()
            .find(|t| t.columns.iter().any(|c| c.name.eq_ignore_ascii_case(column)))
            .map(|t| t.name.clone())
    }

    /// `E0203`: a typed column compared against a literal of the opposite
    /// storage class never matches under SQLite's strict dynamic typing.
    fn check_comparison(&mut self, left: &Expr, right: &Expr, chain: &[Scope]) {
        let col = |e: &Expr| -> Option<(TypeName, Span)> {
            let Expr::Column { table, column, span } = e else { return None };
            for scope in chain.iter().rev() {
                if let Res::Hit { bind } = resolve_in(scope, table.as_deref(), column) {
                    let b = &scope[bind];
                    let tname = b.table.as_deref()?;
                    let info = self.schema.table(tname)?;
                    return info.column(column).map(|c| (c.ty, *span));
                }
            }
            None
        };
        fn lit(e: &Expr) -> Option<&Value> {
            match e {
                Expr::Literal(v) if !v.is_null() => Some(v),
                _ => None,
            }
        }
        let pairs = [(left, right), (right, left)];
        for (a, b) in pairs {
            let (Some((ty, span)), Some(v)) = (col(a), lit(b)) else { continue };
            let mismatch = match ty {
                TypeName::Integer | TypeName::Real => matches!(v, Value::Text(_)),
                TypeName::Text => matches!(v, Value::Int(_) | Value::Real(_)),
                TypeName::Blob => false,
            };
            if mismatch {
                let (have, want) = match ty {
                    TypeName::Text => ("a numeric literal", "quoting the value"),
                    _ => ("a text literal", "removing the quotes"),
                };
                self.diags.push(
                    Diagnostic::error(
                        "E0203",
                        span,
                        format!(
                            "column of {} affinity compared with {have}; the comparison \
                             never matches",
                            ty.as_sql()
                        ),
                    )
                    .with_help(format!("try {want}")),
                );
                return; // one finding per comparison
            }
        }
    }

    /// `E0204`: in a grouped query, a bare column in the projection that is
    /// neither grouped on nor inside an aggregate reads an arbitrary row.
    fn check_group_coverage(&mut self, e: &Expr, group_by: &[Expr]) {
        // Spans compare equal, so `==` here is structural modulo location.
        if group_by.contains(e) {
            return;
        }
        match e {
            Expr::Function { name, args, .. } if is_aggregate_name(name, args.len()) => {}
            Expr::Column { table, column, span } => {
                let covered = group_by.iter().any(|g| match g {
                    Expr::Column { table: gt, column: gc, .. } => {
                        gc.eq_ignore_ascii_case(column)
                            && match (table, gt) {
                                (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                                _ => true, // same column name, qualifier elided
                            }
                    }
                    _ => false,
                });
                if !covered {
                    self.diags.push(
                        Diagnostic::error(
                            "E0204",
                            *span,
                            format!("column {} is not in GROUP BY", tick(column)),
                        )
                        .with_help(
                            "SQLite picks an arbitrary row; group on it or wrap it in an \
                             aggregate",
                        ),
                    );
                }
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                self.check_group_coverage(expr, group_by);
            }
            Expr::Binary { left, right, .. } => {
                self.check_group_coverage(left, group_by);
                self.check_group_coverage(right, group_by);
            }
            Expr::Like { expr, pattern, .. } => {
                self.check_group_coverage(expr, group_by);
                self.check_group_coverage(pattern, group_by);
            }
            Expr::Between { expr, low, high, .. } => {
                self.check_group_coverage(expr, group_by);
                self.check_group_coverage(low, group_by);
                self.check_group_coverage(high, group_by);
            }
            Expr::InList { expr, list, .. } => {
                self.check_group_coverage(expr, group_by);
                for item in list {
                    self.check_group_coverage(item, group_by);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    self.check_group_coverage(o, group_by);
                }
                for (w, t) in branches {
                    self.check_group_coverage(w, group_by);
                    self.check_group_coverage(t, group_by);
                }
                if let Some(el) = else_expr {
                    self.check_group_coverage(el, group_by);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    self.check_group_coverage(a, group_by);
                }
            }
            _ => {}
        }
    }
}

/// Scalar functions the engine knows: `(min_args, max_args, want_text)`,
/// mirroring `functions::call_scalar` exactly (including the `want` string
/// its arity errors print).
fn scalar_arity(name: &str) -> Option<(usize, usize, &'static str)> {
    Some(match name {
        "abs" | "length" | "upper" | "lower" | "trim" | "ltrim" | "rtrim" | "typeof" | "date" => {
            (1, 1, "1")
        }
        "round" => (1, 2, "1 or 2"),
        "substr" | "substring" => (2, 3, "2 or 3"),
        "instr" | "ifnull" | "nullif" | "strftime" => (2, 2, "2"),
        "replace" | "iif" => (3, 3, "3"),
        "coalesce" => (0, usize::MAX, ""),
        "min" | "max" => (2, usize::MAX, ""), // 0..=1 args routes to the aggregate
        _ => return None,
    })
}

/// Every function name the engine accepts, for did-you-mean ranking.
const KNOWN_FUNCTIONS: &[&str] = &[
    "abs", "avg", "coalesce", "count", "date", "group_concat", "ifnull", "iif", "instr", "length",
    "lower", "ltrim", "max", "min", "nullif", "replace", "round", "rtrim", "strftime", "substr",
    "substring", "sum", "total", "trim", "typeof", "upper",
];

// ---------------- lint rules ----------------

/// Visit every [`SelectCore`] reachable from `stmt`: the root core, all
/// compound arms, and the cores of every subquery (in FROM clauses and in
/// expressions), recursively.
fn for_each_core(stmt: &SelectStmt, f: &mut dyn FnMut(&SelectCore)) {
    fn visit_core(core: &SelectCore, f: &mut dyn FnMut(&SelectCore)) {
        f(core);
        if let Some(from) = &core.from {
            visit_tref(&from.base, f);
            for j in &from.joins {
                visit_tref(&j.table, f);
                if let Some(on) = &j.on {
                    visit_expr(on, f);
                }
            }
        }
        for item in &core.items {
            if let SelectItem::Expr { expr, .. } = item {
                visit_expr(expr, f);
            }
        }
        if let Some(w) = &core.where_clause {
            visit_expr(w, f);
        }
        for g in &core.group_by {
            visit_expr(g, f);
        }
        if let Some(h) = &core.having {
            visit_expr(h, f);
        }
    }
    fn visit_tref(t: &TableRef, f: &mut dyn FnMut(&SelectCore)) {
        if let TableRef::Subquery { query, .. } = t {
            for_each_core(query, f);
        }
    }
    fn visit_expr(e: &Expr, f: &mut dyn FnMut(&SelectCore)) {
        e.walk(&mut |x| match x {
            Expr::Subquery(q) | Expr::InSubquery { query: q, .. } | Expr::Exists { query: q, .. } => {
                for_each_core(q, f)
            }
            _ => {}
        });
    }
    visit_core(&stmt.core, f);
    for (_, core) in &stmt.compounds {
        visit_core(core, f);
    }
    for o in &stmt.order_by {
        visit_expr(&o.expr, f);
    }
    if let Some(l) = &stmt.limit {
        visit_expr(l, f);
    }
    if let Some(o) = &stmt.offset {
        visit_expr(o, f);
    }
}

/// Visit every expression in the statement, descending into subqueries.
fn for_each_expr_deep(stmt: &SelectStmt, f: &mut dyn FnMut(&Expr)) {
    for_each_core(stmt, &mut |core| {
        let mut go = |e: &Expr| e.walk(f);
        for item in &core.items {
            if let SelectItem::Expr { expr, .. } = item {
                go(expr);
            }
        }
        if let Some(w) = &core.where_clause {
            go(w);
        }
        for g in &core.group_by {
            go(g);
        }
        if let Some(h) = &core.having {
            go(h);
        }
        if let Some(from) = &core.from {
            for j in &from.joins {
                if let Some(on) = &j.on {
                    go(on);
                }
            }
        }
    });
}

/// Split an expression into its top-level AND conjuncts.
fn and_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary { left, op: BinOp::And, right } = e {
        and_conjuncts(left, out);
        and_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// `W0301`: `SELECT *` inside a scalar or `IN` subquery. The executor
/// requires such subqueries to yield exactly one column, so a star
/// projection only works by accident of the schema.
struct StarInScalarSubquery;

impl LintRule for StarInScalarSubquery {
    fn code(&self) -> &'static str {
        "W0301"
    }
    fn name(&self) -> &'static str {
        "star-in-scalar-subquery"
    }
    fn check(&self, cx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for_each_expr_deep(cx.stmt, &mut |e| {
            let q = match e {
                Expr::Subquery(q) | Expr::InSubquery { query: q, .. } => q,
                _ => return,
            };
            let starred = q.core.items.iter().any(|i| {
                matches!(i, SelectItem::Wildcard | SelectItem::TableWildcard(_))
            });
            if starred {
                out.push(Diagnostic::warning(
                    self.code(),
                    Span::empty(),
                    "SELECT * inside a scalar/IN subquery; it must return exactly one column",
                ).with_help("project the one column the outer query compares against"));
            }
        });
        out
    }
}

/// `W0302`: a WHERE/HAVING/ON conjunct built only from literals that
/// constant-folds to false — the predicate can never match, which in a
/// generated candidate usually means a mistranscribed filter value.
struct AlwaysFalsePredicate;

impl LintRule for AlwaysFalsePredicate {
    fn code(&self) -> &'static str {
        "W0302"
    }
    fn name(&self) -> &'static str {
        "always-false-predicate"
    }
    fn check(&self, cx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut check_pred = |pred: &Expr, what: &str| {
            let mut conjuncts = Vec::new();
            and_conjuncts(pred, &mut conjuncts);
            for c in conjuncts {
                if !is_const_foldable(c) {
                    continue;
                }
                if let Ok(v) = eval_const(c) {
                    if v.truthiness() == Some(false) {
                        out.push(Diagnostic::warning(
                            self.code(),
                            Span::empty(),
                            format!(
                                "{what} conjunct `{}` is always false; the {what} never matches",
                                print_expr(c)
                            ),
                        ).with_help("a literal-only predicate that folds to false usually means a wrong constant"));
                    }
                }
            }
        };
        for_each_core(cx.stmt, &mut |core| {
            if let Some(w) = &core.where_clause {
                check_pred(w, "WHERE");
            }
            if let Some(h) = &core.having {
                check_pred(h, "HAVING");
            }
            if let Some(from) = &core.from {
                for j in &from.joins {
                    if let Some(on) = &j.on {
                        check_pred(on, "ON");
                    }
                }
            }
        });
        out
    }
}

/// Is this expression a pure literal computation — no columns, bindings,
/// subqueries, or aggregates — so that [`eval_const`] decides it?
fn is_const_foldable(e: &Expr) -> bool {
    !e.any(&mut |x| {
        matches!(
            x,
            Expr::Column { .. }
                | Expr::BoundColumn { .. }
                | Expr::OuterColumn { .. }
                | Expr::Wildcard
                | Expr::Subquery(_)
                | Expr::InSubquery { .. }
                | Expr::Exists { .. }
        ) || matches!(x, Expr::Function { name, args, .. } if is_aggregate_name(name, args.len()))
    })
}

/// `W0303`: a FROM table none of whose columns are referenced anywhere —
/// usually a leftover join that only multiplies rows.
struct UnusedFromTable;

impl LintRule for UnusedFromTable {
    fn code(&self) -> &'static str {
        "W0303"
    }
    fn name(&self) -> &'static str {
        "unused-from-table"
    }
    fn check(&self, cx: &LintContext<'_>) -> Vec<Diagnostic> {
        cx.resolution
            .unused_bindings
            .iter()
            .map(|(name, span)| {
                Diagnostic::warning(
                    self.code(),
                    *span,
                    format!("table {} appears in FROM but none of its columns are used", tick(name)),
                )
                .with_help("drop the table from FROM, or reference one of its columns")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn db() -> Database {
        let mut db = Database::new("clinic");
        db.execute_script(
            "CREATE TABLE Patient (id INTEGER PRIMARY KEY, Name TEXT, age INTEGER);
             CREATE TABLE Visit (id INTEGER PRIMARY KEY, patient_id INTEGER, score REAL,
                                 FOREIGN KEY (patient_id) REFERENCES Patient(id));
             INSERT INTO Patient VALUES (1, 'ann', 34), (2, 'bob', 41);
             INSERT INTO Visit VALUES (10, 1, 7.5), (11, 2, 9.0);",
        )
        .unwrap();
        db
    }

    fn codes(a: &Analysis) -> Vec<&str> {
        a.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_query_has_no_findings() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT Name, age FROM Patient WHERE age > 40");
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.is_clean());
    }

    #[test]
    fn unknown_table_is_e0101_with_suggestion() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Pateint");
        assert_eq!(codes(&a), ["E0101"]);
        let d = &a.diagnostics[0];
        assert_eq!(d.message, "no such table: Pateint");
        assert!(d.help.as_deref().unwrap_or("").contains("`Patient`"), "{:?}", d.help);
    }

    #[test]
    fn unknown_table_poisons_dependent_column_refs() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT Ghost.x, y FROM Ghost");
        // one E0101; no cascading E0102 for Ghost.x or the unqualified y
        assert_eq!(codes(&a), ["E0101"]);
    }

    #[test]
    fn unknown_column_is_e0102_with_suggestion_and_unresolved_record() {
        let db = db();
        let sql = "SELECT Nam FROM Patient";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0102"]);
        assert_eq!(a.diagnostics[0].message, "no such column: Nam");
        assert!(a.diagnostics[0].help.as_deref().unwrap().contains("Name"));
        assert_eq!(a.unresolved.len(), 1);
        assert_eq!(a.unresolved[0].column, "Nam");
        assert_eq!(a.unresolved[0].suggestions[0].1, "Name");
        // the span points at the identifier in the source
        let sp = a.unresolved[0].span;
        assert_eq!(&sql[sp.start..sp.end], "Nam");
    }

    #[test]
    fn qualified_unknown_column_names_the_qualifier() {
        let db = db();
        let sql = "SELECT T1.Nam FROM Patient AS T1";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0102"]);
        assert_eq!(a.diagnostics[0].message, "no such column: T1.Nam");
    }

    #[test]
    fn ambiguous_column_is_e0103() {
        let db = db();
        let sql = "SELECT id FROM Patient, Visit";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0103"]);
    }

    #[test]
    fn column_owned_by_out_of_scope_table_gets_ownership_help() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT score FROM Patient");
        assert_eq!(codes(&a), ["E0102"]);
        assert!(a.diagnostics[0].help.as_deref().unwrap().contains("Visit"), "{:?}", a.diagnostics[0].help);
    }

    #[test]
    fn aggregate_in_where_is_e0201() {
        let db = db();
        let sql = "SELECT id FROM Patient WHERE COUNT(*) > 1";
        let a = analyze_sql(&db.schema, sql);
        assert!(codes(&a).contains(&"E0201"), "{:?}", codes(&a));
    }

    #[test]
    fn nested_aggregate_is_e0202() {
        let db = db();
        let sql = "SELECT SUM(COUNT(id)) FROM Patient";
        let a = analyze_sql(&db.schema, sql);
        assert!(codes(&a).contains(&"E0202"), "{:?}", codes(&a));
    }

    #[test]
    fn text_literal_against_numeric_column_is_e0203() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE age = '41'");
        assert_eq!(codes(&a), ["E0203"]);
        assert!(a.diagnostics[0].help.as_deref().unwrap().contains("removing the quotes"));
        let b = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE Name = 7");
        assert_eq!(codes(&b), ["E0203"]);
    }

    #[test]
    fn bare_column_outside_group_by_is_e0204_but_not_gating() {
        let db = db();
        let sql = "SELECT Name, COUNT(*) FROM Patient GROUP BY age";
        let a = analyze_sql(&db.schema, sql);
        assert!(codes(&a).contains(&"E0204"), "{:?}", codes(&a));
        assert!(db.query(sql).is_ok());
    }

    #[test]
    fn order_by_ordinal_out_of_range_is_e0205() {
        let db = db();
        // simple select: the executor sorts by a constant, no error
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient ORDER BY 3");
        assert!(codes(&a).contains(&"E0205"), "{:?}", codes(&a));
        // compound select: the executor rejects it
        let sql = "SELECT id FROM Patient UNION SELECT id FROM Visit ORDER BY 3";
        let b = analyze_sql(&db.schema, sql);
        assert!(codes(&b).contains(&"E0205"), "{:?}", codes(&b));
    }

    #[test]
    fn set_op_arity_mismatch_is_e0206() {
        let db = db();
        let sql = "SELECT id, age FROM Patient UNION SELECT id FROM Visit";
        let a = analyze_sql(&db.schema, sql);
        assert!(codes(&a).contains(&"E0206"), "{:?}", codes(&a));
    }

    #[test]
    fn unknown_function_is_e0207_with_suggestion() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT lenght(Name) FROM Patient");
        assert_eq!(codes(&a), ["E0207"]);
        assert!(a.diagnostics[0].help.as_deref().unwrap().contains("`length`"));
    }

    #[test]
    fn wrong_arity_is_e0207() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT round(age, 1, 2) FROM Patient");
        assert_eq!(codes(&a), ["E0207"]);
    }

    #[test]
    fn parse_error_is_e0001_and_certain() {
        let db = db();
        let sql = "SELECT FROM WHERE";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0001"]);
        assert!(a.certain_error.is_some());
        assert_eq!(a.certain_error, db.query(sql).err());
    }

    #[test]
    fn non_integer_limit_is_e0210() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient LIMIT 2.5");
        assert_eq!(codes(&a), ["E0210"]);
        // a numeric text literal coerces fine
        let sql = "SELECT id FROM Patient LIMIT '1'";
        assert!(analyze_sql(&db.schema, sql).is_clean());
        assert!(db.query(sql).is_ok());
    }

    #[test]
    fn gold_shaped_statements_are_never_gated() {
        let db = db();
        for sql in [
            "SELECT Name FROM Patient WHERE age BETWEEN 30 AND 50",
            "SELECT COUNT(DISTINCT patient_id) FROM Visit",
            "SELECT T1.Name FROM Patient AS T1 INNER JOIN Visit AS T2 ON T1.id = T2.patient_id WHERE T2.score > 8.0",
            "SELECT age, COUNT(*) FROM Patient GROUP BY age",
            "SELECT Name FROM Patient WHERE strftime('%Y', Name) = '2020'",
        ] {
            let a = analyze_sql(&db.schema, sql);
            assert!(a.is_clean(), "{sql}: {:?}", a.diagnostics);
            assert!(db.query(sql).is_ok(), "{sql}");
        }
    }

    #[test]
    fn lint_star_in_scalar_subquery_fires() {
        let db = db();
        let a = analyze_sql(
            &db.schema,
            "SELECT Name FROM Patient WHERE id IN (SELECT * FROM Visit)",
        );
        assert!(codes(&a).contains(&"W0301"), "{:?}", codes(&a));
    }

    #[test]
    fn lint_always_false_predicate_fires_on_literal_conjunct() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE 1 = 2 AND age > 0");
        assert!(codes(&a).contains(&"W0302"), "{:?}", codes(&a));
        // data-dependent conjuncts never fire
        let b = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE age = 0");
        assert!(!codes(&b).contains(&"W0302"));
    }

    #[test]
    fn lint_unused_from_table_fires_and_respects_usage() {
        let db = db();
        let a = analyze_sql(
            &db.schema,
            "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON T1.id = T1.age",
        );
        assert!(codes(&a).contains(&"W0303"), "{:?}", codes(&a));
        // referencing the join in ON marks it used
        let b = analyze_sql(
            &db.schema,
            "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON T1.id = T2.patient_id",
        );
        assert!(!codes(&b).contains(&"W0303"), "{:?}", codes(&b));
        // COUNT(*) counts every table as used
        let c = analyze_sql(&db.schema, "SELECT COUNT(*) FROM Visit");
        assert!(!codes(&c).contains(&"W0303"), "{:?}", codes(&c));
    }

    #[test]
    fn rendered_diagnostics_point_at_source() {
        let db = db();
        let sql = "SELECT Nam FROM Patient";
        let a = analyze_sql(&db.schema, sql);
        let r = a.rendered(sql);
        assert!(r.contains("error[E0102]"), "{r}");
        assert!(r.contains("^^^"), "{r}");
    }
}
