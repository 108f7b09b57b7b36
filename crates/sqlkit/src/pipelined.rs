//! The pipelined executor: streams tuples depth-first through a core's
//! [`CorePlan`] stages instead of materialising every intermediate join
//! result. It is the FROM + WHERE front half of every SELECT sqlkit runs;
//! projection, grouping, DISTINCT, ORDER BY and LIMIT follow in the
//! shared tail ([`exec::project_filtered`]).
//!
//! One reusable tuple buffer flows through the stage chain: the base
//! stage pushes a row's values, each join stage appends its matches (or
//! a NULL pad for an unmatched LEFT JOIN) and recurses, and the residual
//! filter at the end decides whether the finished tuple is cloned into
//! the output. Truncating the buffer on the way back up makes the whole
//! pipeline allocation-free per tuple except for the rows that actually
//! survive.
//!
//! Emission order is the nested-loop order SQL's FROM clause defines:
//! base rows are visited in rid order, hash matches in build (= rid)
//! order, index equality runs are rid-ascending by construction, and a
//! nested-loop stage tries its rows in rid order per accumulated tuple.
//! Stage sources are resolved in FROM order before any tuple flows, so a
//! missing table or a failing FROM subquery raises its error first —
//! unless an earlier nested-loop ON fails, which surfaces before it, as
//! a join computed stage by stage would have it.
//!
//! Residual conjuncts follow SQL's AND protocol exactly: a `false`
//! stops evaluation and drops the tuple, a NULL marks the tuple dropped
//! but keeps evaluating later conjuncts (so their runtime errors still
//! surface), and whole-conjunct `IN (SELECT ...)` / `EXISTS` steps
//! upgrade to cached semi-joins once a first probe proves the subquery
//! uncorrelated.

use crate::ast::{Expr, JoinKind, SelectCore, TableRef};
use crate::error::{SqlError, SqlResult};
use crate::exec::{self, ColBinding, Ctx};
use crate::index::ColumnIndex;
use crate::plan::{Access, CorePlan, JoinOp, OpStats, ResidualStep, Sarg, Source, Stage};
use crate::value::{NormRef, NormValue, ResultSet, Row, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The rows a stage reads: borrowed table storage or a materialised
/// FROM subquery.
enum StageRows<'d> {
    Table(&'d [Row]),
    Derived(Arc<ResultSet>),
}

impl StageRows<'_> {
    fn slice(&self) -> &[Row] {
        match self {
            StageRows::Table(rows) => rows,
            StageRows::Derived(rs) => &rs.rows,
        }
    }
}

/// Runtime form of one stage: the stage's rows plus the access / join
/// machinery resolved against the live database.
struct StageRt<'s> {
    rows: &'s [Row],
    /// The IxScan sarg, when its index was unusable and the stage fell
    /// back to a full scan.
    degraded: Option<&'s Sarg>,
    op: OpRt<'s>,
}

enum OpRt<'s> {
    /// Base stage: iterate all rows or an index-provided rid list.
    Scan { rids: Option<Vec<u32>> },
    /// Equi join: hash table over the stage's filtered rows.
    Hash { left_key: usize, map: HashMap<NormRef<'s>, Vec<u32>> },
    /// Equi join probing the column's secondary index per tuple.
    Ix { left_key: usize, right_key: usize, ix: Arc<ColumnIndex> },
    /// Nested loop over a pre-filtered rid list, with the ON predicate
    /// evaluated per pair (`None` for a cross product).
    Loop { rids: Vec<u32>, on: Option<&'s Expr> },
}

/// Lazily-classified state of one `Semi` residual step.
enum SemiState {
    /// No probe has run yet.
    Unknown,
    /// The subquery reads the outer row: evaluate per tuple through the
    /// expression evaluator.
    Correlated,
    /// Uncorrelated `IN (SELECT ...)`: one materialised result, probed
    /// via normalised hash set when every value hashes consistently
    /// with `sql_eq`, else by linear scan.
    In { set: Option<HashSet<NormValue>>, rows: Arc<ResultSet>, has_null: bool },
    /// Uncorrelated `EXISTS`: the subquery's non-emptiness.
    Exists { non_empty: bool },
}

/// Can `v` be probed through a `NormValue` hash set without diverging
/// from `sql_eq`? Large integers collapse through `f64` in `sql_eq` but
/// not in `normalized()`, and NaN compares equal to every numeric, so
/// both force a linear scan.
fn hash_safe(v: &Value) -> bool {
    match v {
        Value::Null | Value::Text(_) => true,
        Value::Int(i) => i.checked_abs().map(|a| a < 9_000_000_000_000_000).unwrap_or(false),
        Value::Real(r) => !r.is_nan(),
    }
}

/// The FROM item stage `k` of `core` reads.
fn table_ref(core: &SelectCore, k: usize) -> &TableRef {
    let from = core.from.as_ref().expect("a core with stages has a FROM clause");
    match k {
        0 => &from.base,
        k => &from.joins[k - 1].table,
    }
}

/// Run one core's FROM + WHERE, returning the tuples that survive the
/// residual filter in emission order. `ops` receives one entry per stage
/// plus one for the residual filter.
pub(crate) fn drive(
    ctx: &mut Ctx<'_>,
    plan: &CorePlan,
    core: &SelectCore,
    ops: &mut [OpStats],
) -> SqlResult<Vec<Row>> {
    // ---- resolve stage sources in FROM order ----
    let db = ctx.db;
    let mut sources: Vec<StageRows<'_>> = Vec::with_capacity(plan.stages.len());
    let mut failure = None;
    for (k, st) in plan.stages.iter().enumerate() {
        let rows = match &st.source {
            Source::Table(name) => db.rows(name).map(StageRows::Table),
            Source::Subquery => match table_ref(core, k) {
                TableRef::Subquery { query, .. } => {
                    exec::exec_select(ctx, query).map(StageRows::Derived)
                }
                TableRef::Named { .. } => unreachable!("subquery stages lower from subqueries"),
            },
        };
        match rows {
            Ok(rows) => sources.push(rows),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    if failure.is_none() && plan.where_aggregate {
        failure = Some(SqlError::MisusedAggregate("aggregate in WHERE clause".into()));
    }

    // A failure while building FROM surfaces after the joins before it:
    // when one of them is a nested loop, drive the built prefix first so
    // a failing ON there reports instead.
    let nested_before =
        plan.stages[..sources.len()].iter().any(|st| matches!(st.join, Some(JoinOp::Nested(_))));
    if let Some(e) = failure.take_if(|_| !nested_before) {
        return Err(e);
    }

    // ---- access paths and join machinery ----
    let stages: Vec<StageRt<'_>> = plan
        .stages
        .iter()
        .zip(&sources)
        .enumerate()
        .map(|(k, (st, rows))| build_stage(ctx, st, rows.slice(), &mut ops[k]))
        .collect();
    let mut mu = MutState {
        ops,
        semi: plan.residual.iter().map(|_| SemiState::Unknown).collect(),
        out: Vec::new(),
        discard: failure.is_some(),
    };
    let mut buf: Vec<Value> = Vec::with_capacity(plan.layout.len());
    step(ctx, plan, &stages, &mut mu, 0, &mut buf)?;
    match failure {
        Some(e) => Err(e),
        None => Ok(mu.out),
    }
}

/// Does a stage row pass the stage's pushed predicates? `degraded` is
/// the IxScan sarg when its index was unusable.
fn passes(st: &Stage, degraded: Option<&Sarg>, row: &Row) -> bool {
    degraded.is_none_or(|s| s.matches(&row[s.col]))
        && st.filters.iter().all(|f| f.matches(&row[f.col]))
}

/// Resolve one stage's access path and join operator against live data.
/// Accesses charge the rows they read (the whole table for a scan, the
/// rid list for an index lookup); IxJoin stages charge per probe instead.
fn build_stage<'s>(
    ctx: &mut Ctx<'_>,
    st: &'s Stage,
    rows: &'s [Row],
    op: &mut OpStats,
) -> StageRt<'s> {
    let db = ctx.db;
    // a missing or unusable index degrades to a full scan that applies
    // the sarg itself
    let (access_rids, degraded) = match &st.access {
        Access::FullScan => (None, None),
        Access::IxScan(sarg) => {
            let ix = st.table().and_then(|t| db.index(t, &sarg.column));
            match ix.and_then(|ix| sarg.lookup(&ix)) {
                Some(rids) => {
                    op.seeks += 1;
                    (Some(rids), None)
                }
                None => (None, Some(sarg)),
            }
        }
    };
    let scanned = access_rids.as_ref().map(|r| r.len()).unwrap_or(rows.len()) as u64;
    // `degraded` is only ever set when there are no access rids
    let keep = |&rid: &u32| passes(st, degraded, &rows[rid as usize]);
    let filtered = |access_rids: Option<Vec<u32>>| -> Vec<u32> {
        match access_rids {
            Some(rids) => rids.into_iter().filter(keep).collect(),
            None => (0..rows.len() as u32).filter(keep).collect(),
        }
    };
    let hash = |left_key: usize, right_key: usize, access_rids: Option<Vec<u32>>| {
        let mut map: HashMap<NormRef<'_>, Vec<u32>> = HashMap::new();
        for rid in filtered(access_rids) {
            let key = &rows[rid as usize][right_key];
            if !key.is_null() {
                map.entry(key.normalized_ref()).or_default().push(rid);
            }
        }
        OpRt::Hash { left_key, map }
    };
    let op = match &st.join {
        None => {
            ctx.rows_scanned += scanned;
            OpRt::Scan { rids: access_rids }
        }
        Some(JoinOp::Hash { left_key, right_key }) => {
            ctx.rows_scanned += scanned;
            hash(*left_key, *right_key, access_rids)
        }
        Some(JoinOp::IxJoin { left_key, right_key, column }) => {
            match st.table().and_then(|t| db.index(t, column)) {
                Some(ix) => OpRt::Ix { left_key: *left_key, right_key: *right_key, ix },
                None => {
                    ctx.rows_scanned += rows.len() as u64;
                    hash(*left_key, *right_key, None)
                }
            }
        }
        Some(JoinOp::Cross) => {
            ctx.rows_scanned += scanned;
            OpRt::Loop { rids: filtered(access_rids), on: None }
        }
        Some(JoinOp::Nested(on)) => {
            ctx.rows_scanned += scanned;
            OpRt::Loop { rids: filtered(access_rids), on: Some(on) }
        }
    };
    StageRt { rows, degraded, op }
}

/// Mutable execution state threaded through the recursive drive,
/// separate from the immutable stage data so the borrows never fight.
struct MutState<'o> {
    ops: &'o mut [OpStats],
    semi: Vec<SemiState>,
    out: Vec<Row>,
    /// Drive for the joins' side effects (errors) only: finished tuples
    /// are dropped unfiltered.
    discard: bool,
}

fn step(
    ctx: &mut Ctx<'_>,
    plan: &CorePlan,
    stages: &[StageRt<'_>],
    mu: &mut MutState<'_>,
    k: usize,
    buf: &mut Vec<Value>,
) -> SqlResult<()> {
    if k == stages.len() {
        return finish(ctx, plan, mu, buf);
    }
    let st = &plan.stages[k];
    let rt = &stages[k];
    let descend = |ctx: &mut Ctx<'_>,
                   mu: &mut MutState<'_>,
                   buf: &mut Vec<Value>,
                   row: Option<&Row>|
     -> SqlResult<()> {
        // `None` is the NULL pad of an unmatched LEFT JOIN tuple
        let base = buf.len();
        mu.ops[k].actual_rows += 1;
        match row {
            Some(row) => buf.extend(row.iter().cloned()),
            None => buf.extend(std::iter::repeat_n(Value::Null, st.width)),
        }
        let r = step(ctx, plan, stages, mu, k + 1, buf);
        buf.truncate(base);
        r
    };
    let left_pad = st.kind == JoinKind::Left;
    match &rt.op {
        OpRt::Scan { rids: Some(rids) } => {
            for &rid in rids {
                let row = &rt.rows[rid as usize];
                if passes(st, None, row) {
                    descend(ctx, mu, buf, Some(row))?;
                }
            }
        }
        OpRt::Scan { rids: None } => {
            for row in rt.rows {
                if passes(st, rt.degraded, row) {
                    descend(ctx, mu, buf, Some(row))?;
                }
            }
        }
        OpRt::Hash { left_key, map } => {
            ctx.rows_scanned += 1;
            // clone the probe key out of the tuple buffer: the buffer is
            // extended/truncated while candidate rows stream through, so
            // the map lookup cannot keep a borrow into it
            let probe = buf[*left_key].clone();
            let matches = if probe.is_null() { None } else { map.get(&probe.normalized_ref()) };
            match matches {
                Some(rids) if !rids.is_empty() => {
                    for &rid in rids {
                        ctx.rows_scanned += 1;
                        descend(ctx, mu, buf, Some(&rt.rows[rid as usize]))?;
                    }
                }
                _ if left_pad => descend(ctx, mu, buf, None)?,
                _ => {}
            }
        }
        OpRt::Ix { left_key, right_key, ix } => {
            ctx.rows_scanned += 1;
            mu.ops[k].seeks += 1;
            let probe = buf[*left_key].clone();
            let run = ix.eq_run(&probe);
            ctx.rows_scanned += run.len() as u64;
            let mut matched = false;
            for (v, rid) in run {
                // the hash join keys on the *normalised* value, which is
                // finer than the index's sql_cmp equality runs (huge
                // integers collapse through f64 in sql_cmp only) —
                // filter candidates down to exact hash-join semantics
                if v.normalized_ref() != probe.normalized_ref() {
                    continue;
                }
                let row = &rt.rows[*rid as usize];
                debug_assert_eq!(v, &row[*right_key]);
                if !passes(st, None, row) {
                    continue;
                }
                ctx.rows_scanned += 1;
                matched = true;
                descend(ctx, mu, buf, Some(row))?;
            }
            if !matched && left_pad {
                descend(ctx, mu, buf, None)?;
            }
        }
        OpRt::Loop { rids, on } => {
            let mut matched = false;
            for &rid in rids {
                ctx.rows_scanned += 1;
                let row = &rt.rows[rid as usize];
                if let Some(on) = on {
                    let base = buf.len();
                    buf.extend(row.iter().cloned());
                    // an ON error aborts the whole drive, buffer and all
                    let v = exec::eval_expr(ctx, on, &plan.layout[..buf.len()], buf)?;
                    buf.truncate(base);
                    if v.truthiness() != Some(true) {
                        continue;
                    }
                }
                matched = true;
                descend(ctx, mu, buf, Some(row))?;
            }
            if !matched && left_pad {
                descend(ctx, mu, buf, None)?;
            }
        }
    }
    Ok(())
}

/// Run the residual chain on a finished tuple and keep it if it
/// survives. Implements SQL's AND protocol: `false` stops and
/// drops, NULL marks the tuple dropped but keeps evaluating (error
/// fidelity), anything else continues.
fn finish(
    ctx: &mut Ctx<'_>,
    plan: &CorePlan,
    mu: &mut MutState<'_>,
    buf: &[Value],
) -> SqlResult<()> {
    if mu.discard {
        return Ok(());
    }
    ctx.rows_scanned += 1;
    let mut dropped = false;
    let mut semi_idx = 0;
    for stepdef in &plan.residual {
        let v = match stepdef {
            ResidualStep::Pred(e) => exec::eval_expr(ctx, e, &plan.layout, buf)?,
            ResidualStep::Semi(e) => {
                let i = semi_idx;
                semi_idx += 1;
                eval_semi(ctx, &mut mu.semi[i], e, &plan.layout, buf)?
            }
        };
        match v.truthiness() {
            Some(true) => {}
            Some(false) => return Ok(()),
            None => dropped = true,
        }
    }
    if !dropped {
        let residual_op = mu.ops.len() - 1;
        mu.ops[residual_op].actual_rows += 1;
        mu.out.push(buf.to_vec());
    }
    Ok(())
}

/// Evaluate a `Semi` residual step, classifying the subquery as
/// correlated or not on its first executed probe and caching the
/// uncorrelated result thereafter.
fn eval_semi(
    ctx: &mut Ctx<'_>,
    state: &mut SemiState,
    conjunct: &Expr,
    layout: &[ColBinding],
    tuple: &[Value],
) -> SqlResult<Value> {
    if matches!(state, SemiState::Correlated) {
        return exec::eval_expr(ctx, conjunct, layout, tuple);
    }
    match conjunct {
        Expr::InSubquery { expr, query, negated } => {
            let v = exec::eval_expr(ctx, expr, layout, tuple)?;
            if v.is_null() {
                // a NULL operand skips the subquery entirely, so the
                // state stays unclassified
                return Ok(Value::Null);
            }
            if matches!(state, SemiState::Unknown) {
                let (rs, correlated) = exec::exec_subquery_classified(ctx, query, layout, tuple)?;
                if rs.columns.len() != 1 {
                    return Err(SqlError::SubqueryShape(
                        "IN subquery must return a single column".into(),
                    ));
                }
                if correlated {
                    *state = SemiState::Correlated;
                    // this probe's result set is already in hand —
                    // evaluate it directly
                    return Ok(in_scan(&v, &rs.rows, *negated));
                }
                let mut has_null = false;
                let mut safe = true;
                for r in &rs.rows {
                    let item = &r[0];
                    if item.is_null() {
                        has_null = true;
                    }
                    if !hash_safe(item) {
                        safe = false;
                    }
                }
                let set = safe.then(|| {
                    rs.rows
                        .iter()
                        .filter(|r| !r[0].is_null())
                        .map(|r| r[0].normalized())
                        .collect::<HashSet<NormValue>>()
                });
                *state = SemiState::In { set, rows: rs, has_null };
            }
            let SemiState::In { set, rows, has_null } = &*state else {
                unreachable!("IN semi state settled above");
            };
            match set {
                Some(set) if hash_safe(&v) => {
                    if set.contains(&v.normalized()) {
                        Ok(Value::Int(i64::from(!*negated)))
                    } else if *has_null {
                        Ok(Value::Null)
                    } else {
                        Ok(Value::Int(i64::from(*negated)))
                    }
                }
                _ => Ok(in_scan(&v, &rows.rows, *negated)),
            }
        }
        Expr::Exists { query, negated } => {
            if matches!(state, SemiState::Unknown) {
                let (rs, correlated) = exec::exec_subquery_classified(ctx, query, layout, tuple)?;
                if correlated {
                    *state = SemiState::Correlated;
                    return Ok(Value::Int(i64::from(rs.rows.is_empty() == *negated)));
                }
                *state = SemiState::Exists { non_empty: !rs.rows.is_empty() };
            }
            let SemiState::Exists { non_empty } = &*state else {
                unreachable!("EXISTS semi state settled above");
            };
            Ok(Value::Int(i64::from(*non_empty != *negated)))
        }
        // lowering only builds Semi steps from the two shapes above
        other => exec::eval_expr(ctx, other, layout, tuple),
    }
}

/// The expression evaluator's linear IN probe: first `sql_eq` hit wins,
/// NULL comparisons remembered for the three-valued miss.
fn in_scan(v: &Value, rows: &[Row], negated: bool) -> Value {
    let mut saw_null = false;
    for r in rows {
        match v.sql_eq(&r[0]) {
            Some(true) => return Value::Int(i64::from(!negated)),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    if saw_null {
        Value::Null
    } else {
        Value::Int(i64::from(negated))
    }
}
