//! Cost-based physical planning: lowering a bound [`SelectStmt`] into an
//! explicit [`PhysicalPlan`] executed by the pipelined executor
//! (`crate::pipelined`).
//!
//! [`lower`] is total: every statement the binder accepts gets a plan,
//! and that plan is the only way sqlkit runs a SELECT. Each select core
//! (a compound select has several) lowers on its own. The lowering walks
//! the FROM chain left to right, turning each table or FROM subquery into
//! a [`Stage`]; a FROM-less core has no stages and runs once over one
//! zero-width row. Sargable conjuncts of the WHERE clause (`col = lit`,
//! `col < lit`, `BETWEEN`, `IN (lits)`, `IS NULL`) are extracted and
//! pushed down to the stage that owns the column; everything else stays
//! in the ordered residual chain, which the executor evaluates per output
//! tuple with SQL's three-valued-logic AND semantics. Access paths
//! (`FullScan` vs `IxScan`) and join operators (`HashJoin` vs `IxJoin`
//! vs nested loop) are chosen by comparing cost estimates derived from
//! table row counts and secondary-index selectivity
//! ([`crate::index::ColumnIndex`]).
//!
//! Pushdown only ever runs on fully resolved predicates. An unresolved
//! column in WHERE, or one in a nested-loop ON that its join prefix does
//! not resolve, turns pushdown off for the whole core, so every conjunct
//! is evaluated per tuple in order and the `no such column` error fires
//! on exactly the rows it always did. One divergence remains by design:
//! a pushed-down sarg drops rows whose column is NULL (or fails the sarg)
//! at scan time, so a *different*, resolved conjunct that would raise a
//! runtime error on such a row (a subquery shape error, say) may not get
//! the chance to. The golden-oracle differential suites pin the executor
//! to the frozen interpreter output across the whole generated corpus.

use crate::ast::{
    BinOp, CompoundOp, Expr, JoinKind, SelectCore, SelectItem, SelectStmt, TableRef,
};
use crate::db::Database;
use crate::error::SqlResult;
use crate::exec::{self, contains_aggregate, equi_join_indices, ColBinding};
use crate::index::ColumnIndex;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt::Write as _;

// ---------------- sargable predicates ----------------

/// The operator of a sargable predicate.
#[derive(Debug, Clone)]
pub(crate) enum SargOp {
    /// `col = key` (key non-NULL, non-NaN).
    Eq(Value),
    /// `col <op> key` for `<`, `<=`, `>`, `>=`.
    Cmp {
        /// One of [`BinOp::Lt`], [`BinOp::Le`], [`BinOp::Gt`], [`BinOp::Ge`],
        /// already normalised so the column is on the left.
        op: BinOp,
        /// The literal bound.
        key: Value,
    },
    /// `col BETWEEN lo AND hi` (non-negated).
    Between(Value, Value),
    /// `col IN (k1, k2, ...)` (non-negated, all keys non-NULL literals).
    InList(Vec<Value>),
    /// `col IS [NOT] NULL` — filter-only, never drives an index scan.
    IsNull {
        /// IS NOT NULL when true.
        negated: bool,
    },
}

/// A sargable predicate pushed down to one stage.
#[derive(Debug, Clone)]
pub(crate) struct Sarg {
    /// Column offset local to the owning stage's table.
    pub(crate) col: usize,
    /// Column name (for index lookup and EXPLAIN).
    pub(crate) column: String,
    /// The predicate itself.
    pub(crate) op: SargOp,
}

impl Sarg {
    /// Does `v` satisfy the predicate? Exactly equivalent to the
    /// expression evaluator's `truthiness() == Some(true)` on the
    /// original conjunct (NULL and "false" both filter the row out).
    pub(crate) fn matches(&self, v: &Value) -> bool {
        match &self.op {
            SargOp::Eq(k) => v.sql_eq(k) == Some(true),
            SargOp::Cmp { op, key } => {
                if v.is_null() {
                    return false;
                }
                let ord = v.sql_cmp(key);
                match op {
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::Le => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    BinOp::Ge => ord != Ordering::Less,
                    _ => false,
                }
            }
            SargOp::Between(lo, hi) => {
                !v.is_null()
                    && v.sql_cmp(lo) != Ordering::Less
                    && v.sql_cmp(hi) != Ordering::Greater
            }
            SargOp::InList(keys) => keys.iter().any(|k| v.sql_eq(k) == Some(true)),
            SargOp::IsNull { negated } => v.is_null() != *negated,
        }
    }

    /// Can this predicate drive an index scan (as opposed to only
    /// filtering)?
    pub(crate) fn indexable(&self) -> bool {
        !matches!(self.op, SargOp::IsNull { .. })
    }

    /// Matching row ids from an index, ascending — `None` for predicates
    /// that cannot use an index.
    pub(crate) fn lookup(&self, ix: &ColumnIndex) -> Option<Vec<u32>> {
        match &self.op {
            SargOp::Eq(k) => Some(ix.rids_eq(k)),
            SargOp::Cmp { op, key } => Some(match op {
                BinOp::Lt => ix.rids_range(None, Some((key, false))),
                BinOp::Le => ix.rids_range(None, Some((key, true))),
                BinOp::Gt => ix.rids_range(Some((key, false)), None),
                BinOp::Ge => ix.rids_range(Some((key, true)), None),
                _ => return None,
            }),
            SargOp::Between(lo, hi) => Some(ix.rids_range(Some((lo, true)), Some((hi, true)))),
            SargOp::InList(keys) => Some(ix.rids_in(keys)),
            SargOp::IsNull { .. } => None,
        }
    }

    /// Estimated fraction of table rows the predicate keeps.
    pub(crate) fn selectivity(&self, ix: Option<&ColumnIndex>) -> f64 {
        let per_class = |ix: Option<&ColumnIndex>| {
            ix.map(|i| 1.0 / i.distinct().max(1) as f64).unwrap_or(0.1)
        };
        match &self.op {
            SargOp::Eq(_) => per_class(ix),
            SargOp::Cmp { .. } => 1.0 / 3.0,
            SargOp::Between(..) => 0.25,
            SargOp::InList(keys) => (keys.len() as f64 * per_class(ix)).min(1.0),
            SargOp::IsNull { negated } => {
                if *negated {
                    0.9
                } else {
                    0.1
                }
            }
        }
    }

    /// Human-readable form for EXPLAIN output.
    pub(crate) fn describe(&self) -> String {
        match &self.op {
            SargOp::Eq(k) => format!("{} = {}", self.column, fmt_key(k)),
            SargOp::Cmp { op, key } => {
                let sym = match op {
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    _ => "?",
                };
                format!("{} {} {}", self.column, sym, fmt_key(key))
            }
            SargOp::Between(lo, hi) => {
                format!("{} BETWEEN {} AND {}", self.column, fmt_key(lo), fmt_key(hi))
            }
            SargOp::InList(keys) => format!("{} IN ({} keys)", self.column, keys.len()),
            SargOp::IsNull { negated } => {
                format!("{} IS {}NULL", self.column, if *negated { "NOT " } else { "" })
            }
        }
    }
}

fn fmt_key(v: &Value) -> String {
    match v {
        Value::Text(t) => format!("'{t}'"),
        other => other.to_string(),
    }
}

// ---------------- plan structure ----------------

/// Where a stage's rows come from.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    /// A base table: its canonical schema name, or the name as written
    /// when the schema does not know it (reading it then raises the
    /// `no such table` error).
    Table(String),
    /// A FROM subquery, materialised by running its own plan.
    Subquery,
}

/// How a stage's base rows are read.
#[derive(Debug, Clone)]
pub(crate) enum Access {
    /// Read every row.
    FullScan,
    /// Read only the rows matching a sarg through the column's index. A
    /// missing or unusable index at execution time degrades this to a
    /// full scan that applies the sarg as a filter.
    IxScan(Sarg),
}

/// How a stage joins into the tuples accumulated so far.
#[derive(Debug, Clone)]
pub(crate) enum JoinOp {
    /// Build a hash table over the stage's (filtered) rows, probe per
    /// accumulated tuple.
    Hash {
        /// Key offset in the accumulated tuple (global layout index).
        left_key: usize,
        /// Key offset local to this stage's table.
        right_key: usize,
    },
    /// Probe this stage's secondary index once per accumulated tuple
    /// (a hash join when the index is unusable at execution time).
    IxJoin {
        /// Key offset in the accumulated tuple (global layout index).
        left_key: usize,
        /// Key offset local to this stage's table.
        right_key: usize,
        /// Indexed column name.
        column: String,
    },
    /// Nested-loop cross product (CROSS JOIN / comma join / ON-less).
    Cross,
    /// Nested loop evaluating an arbitrary (non-equi) ON per pair.
    Nested(Expr),
}

/// One FROM-chain stage of a physical plan.
#[derive(Debug, Clone)]
pub(crate) struct Stage {
    /// Where the rows come from.
    pub(crate) source: Source,
    /// Binding name (alias or table name) in the layout.
    pub(crate) binding: String,
    /// Offset of this stage's first column in the global layout.
    pub(crate) col_offset: usize,
    /// Number of columns this stage contributes.
    pub(crate) width: usize,
    /// Access path for the stage's rows.
    pub(crate) access: Access,
    /// Join operator (`None` for the base stage).
    pub(crate) join: Option<JoinOp>,
    /// Join kind (`Inner` for the base stage).
    pub(crate) kind: JoinKind,
    /// Pushed sargs applied as filters (not consumed by the access path).
    pub(crate) filters: Vec<Sarg>,
    /// Estimated rows produced by access + filters.
    pub(crate) est_rows: f64,
    /// Estimated accumulated tuples after joining this stage.
    pub(crate) est_tuples: f64,
}

/// One step of the ordered residual predicate chain, evaluated per
/// output tuple with three-valued-logic semantics.
#[derive(Debug, Clone)]
pub(crate) enum ResidualStep {
    /// An arbitrary conjunct evaluated through the expression evaluator.
    Pred(Expr),
    /// A whole-conjunct `IN (SELECT ...)` or `[NOT] EXISTS (SELECT ...)`
    /// the executor can turn into a semi-join when the subquery turns
    /// out to be uncorrelated.
    Semi(Expr),
}

/// The plan of one select core: its FROM + WHERE front half.
#[derive(Debug, Clone)]
pub(crate) struct CorePlan {
    /// The set operator joining this core to the ones before it (`None`
    /// for the first core).
    pub(crate) set_op: Option<CompoundOp>,
    /// FROM-chain stages, in join order (empty for a FROM-less core).
    pub(crate) stages: Vec<Stage>,
    /// Ordered residual WHERE conjuncts.
    pub(crate) residual: Vec<ResidualStep>,
    /// WHERE holds an aggregate: execution fails once FROM is built.
    pub(crate) where_aggregate: bool,
    /// The joined row layout.
    pub(crate) layout: Vec<ColBinding>,
    /// Estimated tuples reaching the residual filter.
    pub(crate) est_out: f64,
}

/// An executable physical plan: one [`CorePlan`] per select core, run in
/// order and combined by the statement's set operators.
#[derive(Debug, Clone)]
pub(crate) struct PhysicalPlan {
    pub(crate) cores: Vec<CorePlan>,
}

/// Per-operator execution metrics captured by the pipelined executor;
/// per core, one entry per stage plus one for the residual filter.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Operator description (access path, join keys, chosen index).
    pub label: String,
    /// The planner's row estimate for this operator's output.
    pub est_rows: f64,
    /// Rows/tuples the operator actually produced.
    pub actual_rows: u64,
    /// Index probes performed (IxScan / IxJoin only).
    pub seeks: u64,
}

impl CorePlan {
    /// Number of [`OpStats`] entries this core reports.
    pub(crate) fn n_ops(&self) -> usize {
        self.stages.len() + 1
    }

    /// Operator labels + estimates, in the order the executor reports
    /// actuals: one per stage, then the residual filter.
    fn op_templates(&self) -> Vec<OpStats> {
        let mut ops: Vec<OpStats> = Vec::with_capacity(self.n_ops());
        for st in &self.stages {
            ops.push(OpStats {
                label: st.describe(self),
                est_rows: if st.join.is_some() { st.est_tuples } else { st.est_rows },
                ..OpStats::default()
            });
        }
        let n_semi = self
            .residual
            .iter()
            .filter(|s| matches!(s, ResidualStep::Semi(_)))
            .count();
        let label = if self.where_aggregate {
            "Residual (aggregate in WHERE)".to_owned()
        } else if self.residual.is_empty() {
            "Residual (none)".to_owned()
        } else if n_semi > 0 {
            format!("Residual ({} conjuncts, {} semi-join)", self.residual.len(), n_semi)
        } else {
            format!("Residual ({} conjuncts)", self.residual.len())
        };
        ops.push(OpStats { label, est_rows: self.est_out, ..OpStats::default() });
        ops
    }
}

impl PhysicalPlan {
    /// Number of [`OpStats`] entries an execution reports.
    pub(crate) fn n_ops(&self) -> usize {
        self.cores.iter().map(CorePlan::n_ops).sum()
    }

    /// Render the plan as indented operator pipelines, one per core;
    /// when `actual` from an execution is supplied, estimated and actual
    /// row counts are shown side by side.
    pub(crate) fn render(&self, actual: Option<&[OpStats]>) -> String {
        let mut out = String::new();
        let mut offset = 0;
        for core in &self.cores {
            if let Some(op) = core.set_op {
                let _ = writeln!(out, "{}", op.keyword());
            }
            let _ = writeln!(
                out,
                "physical plan: {} stage(s), {} residual conjunct(s)",
                core.stages.len(),
                core.residual.len()
            );
            let mut depth = 0;
            if core.stages.is_empty() {
                let _ = writeln!(out, "  -> Unit (one zero-width row)");
                depth = 1;
            }
            for (i, op) in core.op_templates().iter().enumerate() {
                let got = actual.map(|a| &a[offset + i]);
                let _ = write!(out, "{:indent$}-> {}", "", op.label, indent = 2 + 2 * (depth + i));
                let _ = write!(out, "  [est≈{:.0}", op.est_rows.round());
                if let Some(got) = got {
                    let _ = write!(out, ", actual={}", got.actual_rows);
                    if got.seeks > 0 {
                        let _ = write!(out, ", seeks={}", got.seeks);
                    }
                }
                let _ = writeln!(out, "]");
            }
            offset += core.n_ops();
        }
        out
    }
}

impl Stage {
    /// The stage's table name, or `None` for a FROM subquery.
    pub(crate) fn table(&self) -> Option<&str> {
        match &self.source {
            Source::Table(t) => Some(t),
            Source::Subquery => None,
        }
    }

    fn describe(&self, plan: &CorePlan) -> String {
        let name = match self.table() {
            Some(t) if self.binding.eq_ignore_ascii_case(t) => t.to_owned(),
            Some(t) => format!("{t} AS {}", self.binding),
            None => format!("(subquery) AS {}", self.binding),
        };
        let access = match (&self.access, &self.source) {
            (Access::FullScan, Source::Table(_)) => format!("Scan {name}"),
            (Access::FullScan, Source::Subquery) => format!("Materialize {name}"),
            (Access::IxScan(s), _) => format!("IxScan {name} ({})", s.describe()),
        };
        let filters = if self.filters.is_empty() {
            String::new()
        } else {
            format!(
                " | filter: {}",
                self.filters.iter().map(Sarg::describe).collect::<Vec<_>>().join(", ")
            )
        };
        let left = |k: usize| {
            plan.layout
                .get(k)
                .map(|b| format!("{}.{}", b.binding, b.column))
                .unwrap_or_else(|| format!("#{k}"))
        };
        let kind = match self.kind {
            JoinKind::Left => "Left",
            _ => "",
        };
        match &self.join {
            None => format!("{access}{filters}"),
            Some(JoinOp::Hash { left_key, right_key }) => {
                let rcol = &plan.layout[self.col_offset + right_key].column;
                format!(
                    "{kind}HashJoin {name} ON {}.{rcol} = {} (build: {access}{filters})",
                    self.binding,
                    left(*left_key)
                )
            }
            Some(JoinOp::IxJoin { left_key, column, .. }) => format!(
                "{kind}IxJoin {name} ON {}.{column} = {} (ix {}.{column}){filters}",
                self.binding,
                left(*left_key),
                self.table().unwrap_or_default()
            ),
            Some(JoinOp::Cross) => format!("{kind}CrossJoin {name} ({access}{filters})"),
            Some(JoinOp::Nested(on)) => format!(
                "{kind}NestedLoop {name} ON {} ({access}{filters})",
                crate::printer::print_expr(on)
            ),
        }
    }
}

// ---------------- lowering ----------------

/// Flatten a left-associative AND chain into ordered conjuncts.
fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { left, op: BinOp::And, right } = e {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e);
    }
}

/// A non-NULL, non-NaN literal key usable as a sarg bound.
fn sarg_key(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) if !v.is_null() && !matches!(v, Value::Real(r) if r.is_nan()) => Some(v),
        _ => None,
    }
}

/// A bound column slot (the binder resolves every local column of a
/// prepared statement into one of these).
fn bound_col(e: &Expr) -> Option<usize> {
    match e {
        Expr::BoundColumn { index } => Some(*index),
        _ => None,
    }
}

fn mirror_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Try to extract a sargable predicate from one conjunct. Returns the
/// global layout column index and the operation.
fn extract_sarg(e: &Expr) -> Option<(usize, SargOp)> {
    match e {
        Expr::Binary { left, op, right }
            if matches!(op, BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) =>
        {
            if let (Some(col), Some(key)) = (bound_col(left), sarg_key(right)) {
                let sop = if *op == BinOp::Eq {
                    SargOp::Eq(key.clone())
                } else {
                    SargOp::Cmp { op: *op, key: key.clone() }
                };
                return Some((col, sop));
            }
            if let (Some(key), Some(col)) = (sarg_key(left), bound_col(right)) {
                let sop = if *op == BinOp::Eq {
                    SargOp::Eq(key.clone())
                } else {
                    SargOp::Cmp { op: mirror_cmp(*op), key: key.clone() }
                };
                return Some((col, sop));
            }
            None
        }
        Expr::Between { expr, low, high, negated: false } => {
            let col = bound_col(expr)?;
            let (lo, hi) = (sarg_key(low)?, sarg_key(high)?);
            Some((col, SargOp::Between(lo.clone(), hi.clone())))
        }
        Expr::InList { expr, list, negated: false } => {
            let col = bound_col(expr)?;
            let keys: Option<Vec<Value>> =
                list.iter().map(|i| sarg_key(i).cloned()).collect();
            Some((col, SargOp::InList(keys?)))
        }
        Expr::IsNull { expr, negated } => {
            let col = bound_col(expr)?;
            Some((col, SargOp::IsNull { negated: *negated }))
        }
        _ => None,
    }
}

/// Does the conjunct still contain an unresolved (raw) column reference?
/// The binder leaves those raw so the runtime raises the exact
/// `no such column` error — which pushdown could otherwise suppress by
/// filtering rows out first.
fn has_raw_column(e: &Expr) -> bool {
    e.any(&mut |n| matches!(n, Expr::Column { .. }))
}

/// Does an ON expression (always left raw by the binder) reference a
/// column its join prefix cannot resolve? Evaluating it then fails, and
/// pushdown must not hide the rows it fails on.
fn on_may_fail(on: &Expr, prefix: &[ColBinding]) -> bool {
    on.any(&mut |n| match n {
        Expr::Column { table, column, .. } => {
            exec::resolve(prefix, table.as_deref(), column).is_err()
        }
        _ => false,
    })
}

/// Output labels of a FROM subquery, from its bound first core. An
/// unexpanded wildcard means the binder could not resolve the
/// subquery's FROM or items, so running it fails and its columns never
/// matter.
fn subquery_labels(query: &SelectStmt) -> Vec<String> {
    query
        .core
        .items
        .iter()
        .filter_map(|item| match item {
            SelectItem::Expr { expr, alias } => {
                Some(alias.clone().unwrap_or_else(|| exec::default_label(expr)))
            }
            _ => None,
        })
        .collect()
}

/// Lower a bound SELECT into a [`PhysicalPlan`]: one [`CorePlan`] per
/// select core.
pub(crate) fn lower(db: &Database, stmt: &SelectStmt) -> PhysicalPlan {
    let mut cores = vec![lower_core(db, &stmt.core, None)];
    for (op, core) in &stmt.compounds {
        cores.push(lower_core(db, core, Some(*op)));
    }
    PhysicalPlan { cores }
}

fn lower_core(db: &Database, core: &SelectCore, set_op: Option<CompoundOp>) -> CorePlan {
    // ---- stage skeletons + joined layout ----
    struct Proto {
        source: Source,
        binding: String,
        col_offset: usize,
        width: usize,
        kind: JoinKind,
        join: Option<JoinOp>,
        n: usize,
        sargs: Vec<Sarg>,
    }
    let mut layout: Vec<ColBinding> = Vec::new();
    let mut protos: Vec<Proto> = Vec::new();

    let push_table = |tref: &TableRef, layout: &mut Vec<ColBinding>| -> Proto {
        let col_offset = layout.len();
        let (source, binding, columns, n) = match tref {
            TableRef::Named { name, alias, .. } => match db.schema.table(name) {
                Some(info) => (
                    Source::Table(info.name.clone()),
                    alias.clone().unwrap_or_else(|| info.name.clone()),
                    info.columns.iter().map(|c| c.name.clone()).collect(),
                    db.rows(&info.name).map(|r| r.len()).unwrap_or(0),
                ),
                None => (Source::Table(name.clone()), name.clone(), Vec::new(), 0),
            },
            // a subquery's size is unknown until it runs; estimate small
            TableRef::Subquery { query, alias } => {
                (Source::Subquery, alias.clone(), subquery_labels(query), 1)
            }
        };
        for c in &columns {
            layout.push(ColBinding::new(binding.clone(), c.clone()));
        }
        Proto {
            source,
            binding,
            col_offset,
            width: columns.len(),
            kind: JoinKind::Inner,
            join: None,
            n,
            sargs: Vec::new(),
        }
    };

    // Pushdown must not hide a row some predicate would fail on.
    let mut pushdown = true;
    if let Some(from) = &core.from {
        protos.push(push_table(&from.base, &mut layout));
        for join in &from.joins {
            let left_width = layout.len();
            let mut proto = push_table(&join.table, &mut layout);
            proto.kind = join.kind;
            proto.join = Some(match &join.on {
                None => JoinOp::Cross,
                Some(on) => {
                    match equi_join_indices(on, &layout[..left_width], &layout[left_width..]) {
                        // every equi join starts as a Hash op; the cost
                        // model below may upgrade it to IxJoin
                        Some((li, ri)) => JoinOp::Hash { left_key: li, right_key: ri },
                        None => {
                            pushdown &= !on_may_fail(on, &layout);
                            JoinOp::Nested(on.clone())
                        }
                    }
                }
            });
            protos.push(proto);
        }
    }

    // ---- WHERE classification ----
    let mut residual: Vec<ResidualStep> = Vec::new();
    let mut where_aggregate = false;
    if let Some(w) = &core.where_clause {
        where_aggregate = contains_aggregate(w);
        let mut conjuncts = Vec::new();
        flatten_and(w, &mut conjuncts);
        pushdown &= !conjuncts.iter().any(|c| has_raw_column(c));
        for c in conjuncts {
            if let Some((global_col, op)) = extract_sarg(c).filter(|_| pushdown) {
                if let Some(k) = protos.iter().position(|p| {
                    global_col >= p.col_offset && global_col < p.col_offset + p.width
                }) {
                    // A sarg on the right side of a LEFT JOIN cannot be
                    // pushed below the join: it would turn filtered rows
                    // into NULL pads instead of dropping the tuple.
                    if protos[k].kind != JoinKind::Left || protos[k].join.is_none() {
                        let local = global_col - protos[k].col_offset;
                        let column = layout[global_col].column.clone();
                        protos[k].sargs.push(Sarg { col: local, column, op });
                        continue;
                    }
                }
            }
            match c {
                Expr::InSubquery { .. } | Expr::Exists { .. } => {
                    residual.push(ResidualStep::Semi(c.clone()));
                }
                other => residual.push(ResidualStep::Pred(other.clone())),
            }
        }
    }

    // ---- cost-based access + join operator choice ----
    let mut stages: Vec<Stage> = Vec::new();
    let mut est_tuples = 1.0_f64;
    for (k, proto) in protos.into_iter().enumerate() {
        let Proto { source, binding, col_offset, width, kind, join, n, sargs } = proto;
        let nf = n as f64;
        let log_n = (nf.max(2.0)).log2();
        let index = |column: &str| match &source {
            Source::Table(t) => db.index(t, column),
            Source::Subquery => None,
        };

        // selectivity of every pushed sarg combined, and the best
        // index-driving candidate
        let mut sel_all = 1.0_f64;
        let mut best: Option<(usize, f64)> = None; // (sarg idx, est rows out)
        for (i, s) in sargs.iter().enumerate() {
            let ix = if s.indexable() { index(&s.column) } else { None };
            let sel = s.selectivity(ix.as_deref());
            sel_all *= sel;
            if ix.is_some() {
                let est = nf * sel;
                if best.map(|(_, b)| est < b).unwrap_or(true) {
                    best = Some((i, est));
                }
            }
        }
        let est_rows = (nf * sel_all).max(0.0);

        // access path: index the best sarg when cheaper than a full scan
        let pick_access = |sargs: &mut Vec<Sarg>| -> Access {
            match best {
                Some((i, est)) if log_n + est < nf => Access::IxScan(sargs.remove(i)),
                _ => Access::FullScan,
            }
        };

        let mut sargs = sargs;
        let (access, join) = match join {
            None => {
                let access = pick_access(&mut sargs);
                est_tuples = est_rows;
                (access, None)
            }
            Some(op @ (JoinOp::Cross | JoinOp::Nested(_))) => {
                let access = pick_access(&mut sargs);
                est_tuples *= est_rows.max(if kind == JoinKind::Left { 1.0 } else { 0.0 });
                (access, Some(op))
            }
            Some(JoinOp::Hash { left_key, right_key })
            | Some(JoinOp::IxJoin { left_key, right_key, .. }) => {
                let column = layout[col_offset + right_key].column.clone();
                let right_ix = index(&column);
                let fanout = right_ix
                    .as_deref()
                    .map(|ix| ix.len() as f64 / ix.distinct().max(1) as f64)
                    .unwrap_or(1.0);
                let est_out = {
                    let inner = est_tuples * fanout * sel_all;
                    if kind == JoinKind::Left {
                        inner.max(est_tuples)
                    } else {
                        inner
                    }
                };
                let hash_access_cost = match best {
                    Some((_, est)) if log_n + est < nf => log_n + est,
                    _ => nf,
                };
                let hash_cost = hash_access_cost + est_rows + est_tuples + est_out;
                let ix_cost = est_tuples * (log_n + fanout) + est_out;
                let use_ix = right_ix.is_some() && ix_cost < hash_cost;
                est_tuples = est_out;
                if use_ix {
                    // the index probe IS the access path; remaining sargs
                    // filter candidates per probe
                    (Access::FullScan, Some(JoinOp::IxJoin { left_key, right_key, column }))
                } else {
                    (pick_access(&mut sargs), Some(JoinOp::Hash { left_key, right_key }))
                }
            }
        };

        stages.push(Stage {
            source,
            binding,
            col_offset,
            width,
            access,
            join,
            kind: if k == 0 { JoinKind::Inner } else { kind },
            filters: sargs,
            est_rows,
            est_tuples,
        });
    }

    CorePlan { set_op, stages, residual, where_aggregate, layout, est_out: est_tuples }
}

// ---------------- EXPLAIN ----------------

/// Render the physical plan chosen for `sql` against `db`, executing the
/// statement once so estimated and actual per-operator row counts appear
/// side by side. A statement whose execution fails still prints its plan,
/// followed by the error.
pub fn explain(db: &Database, sql: &str) -> SqlResult<String> {
    let prepared = crate::prepare::prepare(db, sql)?;
    let plan = prepared.physical();
    Ok(match exec::run(db, prepared.statement(), plan) {
        Ok((rs, stats, ops)) => {
            let mut out = plan.render(Some(&ops));
            let _ = writeln!(
                out,
                "returned {} row(s), rows_scanned={}",
                rs.rows.len(),
                stats.rows_scanned
            );
            out
        }
        Err(e) => {
            let mut out = plan.render(None);
            let _ = writeln!(out, "execution error: {e}");
            out
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn sample_db() -> Database {
        let mut db = Database::new("shop");
        db.execute_script(
            "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER);
             CREATE TABLE orders (id INTEGER PRIMARY KEY, user_id INTEGER, amount REAL,
                 FOREIGN KEY (user_id) REFERENCES users(id));
             CREATE TABLE empty (id INTEGER, note TEXT);",
        )
        .unwrap();
        let mut script = String::new();
        for i in 0..200 {
            script.push_str(&format!(
                "INSERT INTO users VALUES ({i}, 'user{i}', {});\n",
                20 + i % 50
            ));
        }
        for i in 0..600 {
            script.push_str(&format!(
                "INSERT INTO orders VALUES ({i}, {}, {}.5);\n",
                i % 200,
                i * 3
            ));
        }
        db.execute_script(&script).unwrap();
        db
    }

    fn lower_sql(db: &Database, sql: &str) -> PhysicalPlan {
        let stmt = parse_select(sql).unwrap();
        crate::prepare::prepare_stmt(db, stmt).physical().clone()
    }

    #[test]
    fn selective_eq_uses_index_scan() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let plan = lower_sql(&db, "SELECT name FROM users WHERE id = 7");
        let core = &plan.cores[0];
        assert!(
            matches!(core.stages[0].access, Access::IxScan(_)),
            "expected IxScan, got {:?}",
            core.stages[0].describe(core)
        );
    }

    #[test]
    fn unindexed_column_falls_back_to_scan() {
        let db = sample_db();
        // no explicit indexes: every access is a full scan
        let plan = lower_sql(&db, "SELECT name FROM users WHERE age = 30");
        assert!(matches!(plan.cores[0].stages[0].access, Access::FullScan));
    }

    #[test]
    fn selective_join_uses_index_join() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let plan = lower_sql(
            &db,
            "SELECT o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE u.id = 3",
        );
        let core = &plan.cores[0];
        assert!(
            matches!(core.stages[1].join, Some(JoinOp::IxJoin { .. })),
            "expected IxJoin, got {:?}",
            core.stages[1].describe(core)
        );
    }

    #[test]
    fn unselective_join_stays_hash() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        // no filter: probing the index per tuple costs more than one
        // hash build over the right side
        let plan = lower_sql(&db, "SELECT o.amount FROM users u JOIN orders o ON u.id = o.user_id");
        let core = &plan.cores[0];
        assert!(
            matches!(core.stages[1].join, Some(JoinOp::Hash { .. })),
            "expected HashJoin, got {:?}",
            core.stages[1].describe(core)
        );
    }

    #[test]
    fn unresolved_where_column_disables_pushdown() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let plan = lower_sql(&db, "SELECT name FROM users WHERE id = 7 AND ghost = 1");
        let core = &plan.cores[0];
        assert!(matches!(core.stages[0].access, Access::FullScan));
        assert!(core.stages[0].filters.is_empty());
        assert_eq!(core.residual.len(), 2, "every conjunct stays residual");
    }

    /// A plan lowered against indexes runs against the same data without
    /// them: IxScan and IxJoin stages degrade to full scans and return
    /// identical rows.
    #[test]
    fn dropped_index_degrades_to_full_scan() {
        let plain = sample_db();
        let mut indexed = sample_db();
        indexed.ensure_default_indexes();
        let queries = [
            "SELECT name FROM users WHERE id = 7",
            "SELECT name, age FROM users WHERE id BETWEEN 10 AND 14 ORDER BY name",
            "SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.user_id \
             WHERE u.id = 3 ORDER BY o.amount",
            "SELECT u.name, o.amount FROM users u LEFT JOIN orders o ON u.id = o.user_id \
             WHERE u.id IN (1, 3, 5) ORDER BY u.name, o.amount",
            "SELECT COUNT(*), AVG(o.amount) FROM users u JOIN orders o ON u.id = o.user_id \
             WHERE u.id < 4",
        ];
        for sql in queries {
            let prepared = crate::prepare::prepare(&indexed, sql).unwrap();
            let plan = prepared.physical();
            let (want, _, ops) = exec::run(&indexed, prepared.statement(), plan).unwrap();
            assert!(ops.iter().any(|o| o.seeks > 0), "{sql}: plan drives no index");
            let (got, _, ops) = exec::run(&plain, prepared.statement(), plan).unwrap();
            assert!(ops.iter().all(|o| o.seeks == 0), "{sql}: a dropped index was probed");
            assert_eq!(got, want, "{sql}");
        }
    }

    #[test]
    fn fingerprint_tracks_index_set() {
        let mut db = sample_db();
        let before = crate::prepare::plan_fingerprint(&db);
        db.create_index("orders", "user_id").unwrap();
        let after = crate::prepare::plan_fingerprint(&db);
        assert_ne!(before, after, "creating an index must invalidate cached plans");
    }

    #[test]
    fn explain_renders_operators_and_actuals() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let out = explain(
            &db,
            "SELECT o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE u.id = 3",
        )
        .unwrap();
        assert!(out.contains("IxScan"), "missing IxScan in:\n{out}");
        assert!(out.contains("IxJoin"), "missing IxJoin in:\n{out}");
        assert!(out.contains("actual="), "missing actuals in:\n{out}");
        assert!(out.contains("returned 3 row(s)"), "missing row count in:\n{out}");

        // every shape prints a plan, including the ones whose execution
        // fails; none runs anywhere but the physical plan
        let shapes = [
            ("SELECT id FROM users WHERE id < 3 UNION SELECT user_id FROM orders WHERE id = 9", "UNION"),
            ("SELECT id FROM users EXCEPT SELECT user_id FROM orders", "EXCEPT"),
            ("SELECT s.n FROM (SELECT COUNT(*) AS n FROM orders) AS s", "Materialize (subquery) AS s"),
            ("SELECT 1", "Unit"),
            (
                "SELECT u.name FROM users u LEFT JOIN orders o ON o.amount > u.age WHERE u.id = 1",
                "LeftNestedLoop",
            ),
            ("SELECT id FROM empty WHERE ghost = 1", "returned 0 row(s)"),
            ("SELECT id FROM users WHERE ghost = 1", "execution error: no such column: ghost"),
            ("SELECT name FROM users WHERE COUNT(*) > 1", "Residual (aggregate in WHERE)"),
            ("SELECT name FROM users WHERE id IN (SELECT user_id FROM orders)", "semi-join"),
            (
                "SELECT name FROM users u WHERE EXISTS \
                 (SELECT 1 FROM orders o WHERE o.user_id = u.id AND o.amount > 1700.0)",
                "semi-join",
            ),
        ];
        for (sql, needle) in shapes {
            let out = explain(&db, sql).unwrap();
            assert!(out.starts_with("physical plan:"), "{sql}: no plan in:\n{out}");
            assert!(out.contains(needle), "{sql}: missing {needle:?} in:\n{out}");
            assert!(!out.contains("legacy"), "{sql}:\n{out}");
        }
    }
}
