//! Final aggregation (step (4) of the paper's pipeline): given the answer
//! of `CQ(Q)` as a [`VRelation`] over `out(Q)`, compute GROUP BY groups,
//! aggregate functions, final projection (dropping hidden rowid guards) and
//! ORDER BY.

use crate::column::{Column, ColumnData};
use crate::cops;
use crate::crel::CRel;
use crate::dict::{self, DictReader};
use crate::error::{Budget, EvalError, SpillMode};
use crate::expr::{arith, eval_scalar};
use crate::hash::{hash_key, FxHashMap};
use crate::ops::{self, sort_by};
use crate::spill::{SpillDir, SpillFile, SpillReader, MAX_SPILL_LEVEL};
use crate::value::{row_heap_bytes, Row, Value};
use crate::vrel::VRelation;
use htqo_cq::isolator::is_hidden_label;
use htqo_cq::{AggFunc, ArithOp, ConjunctiveQuery, OutputItem, ScalarExpr, SortDir};
use std::collections::HashMap;

/// Visible output items of `q` and their (uniquified) labels.
pub(crate) fn visible_output(q: &ConjunctiveQuery) -> (Vec<&OutputItem>, Vec<String>) {
    let visible: Vec<&OutputItem> = q
        .output
        .iter()
        .filter(|o| !is_hidden_label(o.label()))
        .collect();
    // SQL allows duplicate output column names (`SELECT a.x, b.x`); our
    // relations do not, so repeated labels get a numeric suffix.
    let labels = uniquify(
        &visible
            .iter()
            .map(|o| o.label().to_string())
            .collect::<Vec<_>>(),
    );
    (visible, labels)
}

/// Visible head variables in SELECT order (errors on aggregates — callers
/// check `q.has_aggregates()` first).
fn head_vars(visible: &[&OutputItem]) -> Vec<String> {
    visible
        .iter()
        .map(|o| match o {
            OutputItem::Var { var, .. } => var.clone(),
            OutputItem::Aggregate { .. } => unreachable!("filtered above"),
        })
        .collect()
}

/// Computes the final output of `q` from the answer relation of `CQ(Q)`.
///
/// `answer` must contain every variable of `out(Q)` as a column (hidden
/// rowid variables included); its rows are assumed distinct.
pub fn finalize(
    answer: &VRelation,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    crate::fail_point!("aggregate::finalize");
    let (visible, labels) = visible_output(q);
    let result = if q.has_aggregates() {
        aggregate(answer, q, &visible, &labels, budget)?
    } else {
        // No aggregates: project the answer onto the distinct visible head
        // variables (set semantics, matching the CQ answer definition),
        // then lay the columns out in SELECT order (a variable may be
        // selected more than once).
        let vars = head_vars(&visible);
        let mut distinct_vars = vars.clone();
        distinct_vars.dedup_preserving();
        let projected = crate::ops::project(answer, &distinct_vars, true, budget)?;
        let idx: Vec<usize> = vars
            .iter()
            .map(|v| projected.col_index(v).expect("just projected"))
            .collect();
        let rows: Vec<crate::value::Row> = projected
            .rows()
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        VRelation::from_rows(labels.clone(), rows)
    };
    finalize_tail(result, q, budget)
}

/// [`finalize`] over the columnar carrier: the grouping/projection front
/// runs column-at-a-time (vectorized group-key hashing, gather-based
/// layout), then the small post-aggregation result flows through the same
/// HAVING / ORDER BY / LIMIT tail as the row path.
pub fn finalize_c(
    answer: &CRel,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    crate::fail_point!("aggregate::finalize");
    let (visible, labels) = visible_output(q);
    let result = if q.has_aggregates() {
        aggregate_c(answer, q, &visible, &labels, budget)?
    } else {
        let vars = head_vars(&visible);
        let mut distinct_vars = vars.clone();
        distinct_vars.dedup_preserving();
        let projected = cops::project(answer, &distinct_vars, true, budget)?;
        // SELECT-order layout: a repeated variable is a column clone, not
        // a per-row copy.
        let idx: Vec<usize> = vars
            .iter()
            .map(|v| projected.col_index(v).expect("just projected"))
            .collect();
        let columns: Vec<crate::column::Column> =
            idx.iter().map(|&i| projected.column(i).clone()).collect();
        CRel::new(labels.clone(), columns, projected.len()).to_vrel()
    };
    finalize_tail(result, q, budget)
}

/// The shared post-aggregation tail: HAVING, ORDER BY, LIMIT.
pub(crate) fn finalize_tail(
    result: VRelation,
    q: &ConjunctiveQuery,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    // HAVING over output labels (post-aggregation row filter).
    let result = if q.having.is_empty() {
        result
    } else {
        let idx: Vec<(usize, htqo_cq::CmpOp, crate::value::Value)> = q
            .having
            .iter()
            .map(|(label, op, lit)| {
                let i = result
                    .col_index(label)
                    .ok_or_else(|| EvalError::UnknownVariable(label.clone()))?;
                Ok((i, *op, crate::value::Value::from(lit)))
            })
            .collect::<Result<_, EvalError>>()?;
        crate::ops::select_rows(
            &result,
            |row| {
                Ok(idx
                    .iter()
                    .all(|(i, op, v)| crate::expr::apply_cmp(*op, &row[*i], v)))
            },
            budget,
        )?
    };

    // ORDER BY over output labels, then LIMIT.
    let result = if q.order_by.is_empty() {
        result
    } else {
        let keys: Vec<(String, bool)> = q
            .order_by
            .iter()
            .map(|(label, dir)| (label.clone(), *dir == SortDir::Desc))
            .collect();
        sort_by(&result, &keys)?
    };
    Ok(match q.limit {
        Some(n) if n < result.len() => {
            VRelation::from_rows(result.cols().to_vec(), result.rows()[..n].to_vec())
        }
        _ => result,
    })
}

/// Appends `_2`, `_3`, … to repeated labels.
fn uniquify(labels: &[String]) -> Vec<String> {
    let mut seen: HashMap<String, usize> = HashMap::new();
    labels
        .iter()
        .map(|l| {
            let n = seen.entry(l.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                l.clone()
            } else {
                format!("{l}_{n}")
            }
        })
        .collect()
}

/// First-occurrence dedup for small vectors.
trait DedupPreserving {
    fn dedup_preserving(&mut self);
}

impl DedupPreserving for Vec<String> {
    fn dedup_preserving(&mut self) {
        let mut seen = Vec::new();
        self.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
    }
}

/// Resolves the GROUP BY column positions and validates that every
/// non-aggregate visible item is a grouping variable.
pub(crate) fn group_layout(
    cols: &[String],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
) -> Result<Vec<usize>, EvalError> {
    let group_idx: Vec<usize> = q
        .group_by
        .iter()
        .map(|v| {
            cols.iter()
                .position(|c| c == v)
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;
    for item in visible {
        if let OutputItem::Var { var, .. } = item {
            if !q.group_by.contains(var) {
                return Err(EvalError::Internal(format!(
                    "output variable `{var}` is neither aggregated nor grouped"
                )));
            }
        }
    }
    Ok(group_idx)
}

/// Resident bytes one group costs the governor: its key row, its
/// accumulators, and a map-entry allowance.
pub(crate) fn group_state_bytes(key_width: usize, n_items: usize) -> u64 {
    row_heap_bytes(key_width) + (n_items * std::mem::size_of::<Accumulator>()) as u64 + 48
}

/// A denied group-state reservation as a typed error.
pub(crate) fn group_state_exceeded(budget: &Budget, requested: u64) -> EvalError {
    EvalError::MemoryExceeded {
        requested,
        reserved: budget.mem_used(),
        pool: budget.mem_limit().unwrap_or(0),
    }
}

fn aggregate(
    answer: &VRelation,
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let group_idx = group_layout(answer.cols(), q, visible)?;
    // Spill requires a group key to partition on; a global aggregate's
    // state is one row of accumulators and never spills.
    let spillable =
        !group_idx.is_empty() && answer.len() > 1 && budget.spill_mode() != SpillMode::Off;
    if spillable && budget.spill_mode() == SpillMode::Force {
        return aggregate_spilled(
            answer.len(),
            |i| answer.rows()[i].clone(),
            |i| hash_key(&answer.rows()[i], &group_idx),
            answer.cols(),
            &group_idx,
            q,
            visible,
            labels,
            budget,
        );
    }
    match aggregate_rows(answer, &group_idx, q, visible, labels, budget) {
        Err(EvalError::MemoryExceeded { .. }) if spillable => aggregate_spilled(
            answer.len(),
            |i| answer.rows()[i].clone(),
            |i| hash_key(&answer.rows()[i], &group_idx),
            answer.cols(),
            &group_idx,
            q,
            visible,
            labels,
            budget,
        ),
        r => r,
    }
}

/// In-memory row-carrier aggregation. Group state is charged to the byte
/// pool as groups appear and released when the function returns; the
/// (usually much smaller) output rows are charged on success. A denied
/// group reservation surfaces as [`EvalError::MemoryExceeded`] — the
/// callers' cue to re-run through the spill driver.
fn aggregate_rows(
    answer: &VRelation,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let mut accrued = 0u64;
    let result = aggregate_rows_inner(answer, group_idx, q, visible, labels, budget, &mut accrued);
    budget.uncharge_bytes(accrued);
    let out = result?;
    budget.charge_bytes(out.len() as u64 * row_heap_bytes(out.cols().len()))?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn aggregate_rows_inner(
    answer: &VRelation,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    accrued: &mut u64,
) -> Result<VRelation, EvalError> {
    let group_bytes = group_state_bytes(group_idx.len(), visible.len());
    let mut groups: HashMap<Row, Vec<Accumulator>> = HashMap::new();
    // Deterministic group ordering: remember first-seen order.
    let mut order: Vec<Row> = Vec::new();

    let cols = answer.cols().to_vec();
    for row in answer.rows() {
        let key: Row = group_idx.iter().map(|&i| row[i].clone()).collect();
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => {
                if !budget.try_reserve_bytes(group_bytes) {
                    return Err(group_state_exceeded(budget, group_bytes));
                }
                *accrued += group_bytes;
                budget.charge(1)?;
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| visible.iter().map(|o| Accumulator::for_item(o)).collect())
            }
        };
        for (acc, item) in accs.iter_mut().zip(visible) {
            acc.feed(item, &cols, row)?;
        }
    }

    // Global aggregate over empty input still produces one row.
    if groups.is_empty() && q.group_by.is_empty() {
        let key: Row = Vec::new().into_boxed_slice();
        order.push(key.clone());
        groups.insert(
            key,
            visible.iter().map(|o| Accumulator::for_item(o)).collect(),
        );
    }

    let mut out = VRelation::empty(labels.to_vec());
    for key in order {
        let accs = &groups[&key];
        let mut row: Vec<Value> = Vec::with_capacity(visible.len());
        for (acc, item) in accs.iter().zip(visible) {
            row.push(match item {
                OutputItem::Var { var, .. } => {
                    let gpos = q.group_by.iter().position(|g| g == var).expect("validated");
                    key[gpos].clone()
                }
                OutputItem::Aggregate { .. } => acc.finish(),
            });
        }
        out.push(row.into_boxed_slice());
    }
    Ok(out)
}

/// Spilled aggregation driver, shared by both carriers: the input is
/// hash-partitioned by its group key to checksummed temp files (so a
/// group lives in exactly one partition and no cross-partition merge is
/// ever needed), then each partition is aggregated in memory — recursing
/// with a re-salted partition function when a partition still does not
/// fit. Rows within a group keep their input order through every level,
/// so order-sensitive float accumulation matches the in-memory path
/// bit for bit.
#[allow(clippy::too_many_arguments)]
fn aggregate_spilled(
    n: usize,
    row: impl FnMut(usize) -> Row,
    hash: impl Fn(usize) -> u64,
    cols: &[String],
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let stats = budget.spill_stats();
    let mut dir = SpillDir::create(budget.spill_dir())?;
    let parts = ops::partition_side(&dir, "g", n, row, hash, 0, &stats)?;
    let mut out = VRelation::empty(labels.to_vec());
    for p in &parts {
        aggregate_spilled_partition(
            &dir, p, 0, cols, group_idx, q, visible, labels, budget, &mut out,
        )?;
    }
    dir.cleanup()?;
    Ok(out)
}

/// Aggregates one spilled partition: loads its rows (reserving their
/// bytes) and aggregates in memory, re-partitioning one level deeper when
/// either the load reservation or the in-memory group state is denied. At
/// [`MAX_SPILL_LEVEL`] the denial surfaces as a clean `MemoryExceeded`
/// (one pathological group key can defeat any amount of partitioning).
#[allow(clippy::too_many_arguments)]
fn aggregate_spilled_partition(
    dir: &SpillDir,
    file: &SpillFile,
    level: u32,
    cols: &[String],
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    out: &mut VRelation,
) -> Result<(), EvalError> {
    if file.rows == 0 {
        return Ok(());
    }
    if budget.try_reserve_bytes(file.bytes) {
        let mut rows: Vec<Row> = Vec::with_capacity(file.rows as usize);
        let mut reader = SpillReader::open(&file.path)?;
        while let Some(frame) = reader.read_row()? {
            rows.push(ops::split_frame(frame)?.1);
        }
        drop(reader);
        let rel = VRelation::from_rows(cols.to_vec(), rows);
        let r = aggregate_rows(&rel, group_idx, q, visible, labels, budget);
        budget.uncharge_bytes(file.bytes);
        match r {
            Ok(part) => {
                for row in part.rows() {
                    out.push(row.clone());
                }
                Ok(())
            }
            Err(EvalError::MemoryExceeded { .. }) if level < MAX_SPILL_LEVEL => {
                aggregate_repartition(
                    dir, file, level, cols, group_idx, q, visible, labels, budget, out,
                )
            }
            Err(e) => Err(e),
        }
    } else if level < MAX_SPILL_LEVEL {
        aggregate_repartition(
            dir, file, level, cols, group_idx, q, visible, labels, budget, out,
        )
    } else {
        Err(group_state_exceeded(budget, file.bytes))
    }
}

/// Splits a spilled partition one level deeper and aggregates the pieces.
#[allow(clippy::too_many_arguments)]
fn aggregate_repartition(
    dir: &SpillDir,
    file: &SpillFile,
    level: u32,
    cols: &[String],
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    out: &mut VRelation,
) -> Result<(), EvalError> {
    let stats = budget.spill_stats();
    let subs = ops::repartition_file(dir, "g", file, level + 1, &stats)?;
    for s in &subs {
        aggregate_spilled_partition(
            dir,
            s,
            level + 1,
            cols,
            group_idx,
            q,
            visible,
            labels,
            budget,
            out,
        )?;
    }
    Ok(())
}

/// Columnar grouping: group identity is decided by one vectorized
/// key-hash pass over the GROUP BY columns plus typed cell verification —
/// no boxed `Row` keys are built for the hash map — and the aggregates
/// are evaluated and folded column-at-a-time ([`aggregate_c_inner`]).
fn aggregate_c(
    answer: &CRel,
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let group_idx = group_layout(answer.cols(), q, visible)?;
    let spillable =
        !group_idx.is_empty() && answer.len() > 1 && budget.spill_mode() != SpillMode::Off;
    let spill = |budget: &mut Budget| {
        // Rows stream straight out of the columns into the partition
        // files; decoded partitions aggregate through the row core (its
        // `Value`s round-trip the dictionary content-identically).
        let reader = dict::reader();
        let hashes = cops::key_hashes(answer, &group_idx, &reader);
        aggregate_spilled(
            answer.len(),
            |i| {
                answer
                    .columns()
                    .iter()
                    .map(|c| c.value_with(i, &reader))
                    .collect()
            },
            |i| hashes[i],
            answer.cols(),
            &group_idx,
            q,
            visible,
            labels,
            budget,
        )
    };
    if spillable && budget.spill_mode() == SpillMode::Force {
        return spill(budget);
    }
    match aggregate_c_mem(answer, &group_idx, q, visible, labels, budget) {
        Err(EvalError::MemoryExceeded { .. }) if spillable => spill(budget),
        r => r,
    }
}

/// In-memory columnar aggregation core; byte accounting mirrors
/// [`aggregate_rows`] (group state accrues against the pool, the hash
/// array is reserved up front, output rows are charged on success).
fn aggregate_c_mem(
    answer: &CRel,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let hash_bytes = 8 * answer.len() as u64;
    if !budget.try_reserve_bytes(hash_bytes) {
        return Err(group_state_exceeded(budget, hash_bytes));
    }
    let mut accrued = 0u64;
    let result = aggregate_c_inner(answer, group_idx, q, visible, labels, budget, &mut accrued);
    budget.uncharge_bytes(hash_bytes + accrued);
    let out = result?;
    budget.charge_bytes(out.len() as u64 * row_heap_bytes(out.cols().len()))?;
    Ok(out)
}

/// Rows per evaluation chunk of the columnar aggregation kernel: its
/// scratch memory (group ids, evaluated argument values) is bounded by
/// this, not by the input size.
const AGG_CHUNK: usize = 1024;

/// Column-at-a-time aggregation kernel. Per chunk of [`AGG_CHUNK`] rows:
///
/// 1. assign each row its group id — one hash probe per row over the
///    precomputed key hashes, typed cell verification, groups numbered in
///    first-seen order (each new group reserves and charges its state);
/// 2. evaluate every aggregate argument over the chunk, compiled once
///    against column positions ([`Prog`]), reading typed columns in place;
/// 3. fold the values into each group's [`Accumulator`] in row order.
///
/// Within a group the rows reach each accumulator in input order, exactly
/// as the row-at-a-time feed does, so float SUM/AVG are bit-identical to
/// [`aggregate_rows`]. If a chunk raises an error, it is replayed row by
/// row through [`Accumulator::feed`] so the reported error is the one the
/// row-major feed meets first.
#[allow(clippy::too_many_arguments)]
fn aggregate_c_inner(
    answer: &CRel,
    group_idx: &[usize],
    q: &ConjunctiveQuery,
    visible: &[&OutputItem],
    labels: &[String],
    budget: &mut Budget,
    accrued: &mut u64,
) -> Result<VRelation, EvalError> {
    let group_bytes = group_state_bytes(group_idx.len(), visible.len());
    // One compiled argument and one accumulator per group for each
    // aggregate item, in SELECT order. A compile error (unknown variable)
    // surfaces at the first row, as in the row feed; over an empty input
    // it never does.
    let mut aggs: Vec<(&OutputItem, Result<Prog, EvalError>, Vec<Accumulator>)> = visible
        .iter()
        .filter_map(|&item| match item {
            OutputItem::Var { .. } => None,
            OutputItem::Aggregate { expr, .. } => {
                let prog = match expr {
                    Some(e) => Prog::compile(e, answer.cols()),
                    None => Ok(Prog::Lit(Value::Int(1))), // COUNT(*): a non-NULL marker
                };
                Some((item, prog, Vec::new()))
            }
        })
        .collect();

    let reader = dict::reader();
    let hashes = cops::key_hashes(answer, group_idx, &reader);
    // hash → candidate group ids; groups remember their first-seen row.
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut first_row: Vec<u32> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(AGG_CHUNK.min(answer.len()));
    for lo in (0..answer.len()).step_by(AGG_CHUNK) {
        let hi = (lo + AGG_CHUNK).min(answer.len());
        gids.clear();
        for (i, &h) in hashes.iter().enumerate().take(hi).skip(lo) {
            let bucket = buckets.entry(h).or_default();
            let gid = bucket.iter().copied().find(|&g| {
                let j = first_row[g as usize] as usize;
                group_idx
                    .iter()
                    .all(|&c| answer.column(c).eq_at(i, answer.column(c), j, &reader))
            });
            let gid = match gid {
                Some(g) => g,
                None => {
                    if !budget.try_reserve_bytes(group_bytes) {
                        return Err(group_state_exceeded(budget, group_bytes));
                    }
                    *accrued += group_bytes;
                    budget.charge(1)?;
                    let g = first_row.len() as u32;
                    bucket.push(g);
                    first_row.push(i as u32);
                    for (item, _, accs) in &mut aggs {
                        accs.push(Accumulator::for_item(item));
                    }
                    g
                }
            };
            gids.push(gid);
        }
        let folded = aggs.iter_mut().try_for_each(|(_, prog, accs)| match prog {
            Ok(p) => p
                .eval_chunk(answer, lo, hi, &reader)?
                .fold_into(accs, &gids),
            Err(e) => Err(e.clone()),
        });
        if let Err(e) = folded {
            return Err(first_feed_error(answer, lo, hi, visible, &reader).unwrap_or(e));
        }
    }

    // Global aggregate over empty input still produces one row.
    if first_row.is_empty() && q.group_by.is_empty() {
        first_row.push(0);
        for (item, _, accs) in &mut aggs {
            accs.push(Accumulator::for_item(item));
        }
    }

    let mut out = VRelation::empty(labels.to_vec());
    for (g, &first) in first_row.iter().enumerate() {
        let mut finished = aggs.iter().map(|(_, _, accs)| accs[g].finish());
        let row: Vec<Value> = visible
            .iter()
            .map(|item| match item {
                OutputItem::Var { var, .. } => {
                    let gpos = q.group_by.iter().position(|g| g == var).expect("validated");
                    answer
                        .column(group_idx[gpos])
                        .value_with(first as usize, &reader)
                }
                OutputItem::Aggregate { .. } => finished.next().expect("one per aggregate"),
            })
            .collect();
        out.push(row.into_boxed_slice());
    }
    Ok(out)
}

/// The first error the row-at-a-time feed raises on rows `lo..hi`
/// (row-major: every aggregate of a row before the next row). Feed
/// errors do not depend on accumulator state, so fresh accumulators
/// reproduce them.
fn first_feed_error(
    answer: &CRel,
    lo: usize,
    hi: usize,
    visible: &[&OutputItem],
    reader: &DictReader,
) -> Option<EvalError> {
    let mut scratch: Vec<Accumulator> = visible.iter().map(|o| Accumulator::for_item(o)).collect();
    for i in lo..hi {
        let row: Row = answer
            .columns()
            .iter()
            .map(|c| c.value_with(i, reader))
            .collect();
        for (acc, item) in scratch.iter_mut().zip(visible) {
            if let Err(e) = acc.feed(item, answer.cols(), &row) {
                return Some(e);
            }
        }
    }
    None
}

/// A scalar expression over column positions ([`eval_scalar`] without
/// the per-row by-name column search).
enum Prog {
    Col(usize),
    Lit(Value),
    Bin(Box<Prog>, ArithOp, Box<Prog>),
}

/// Result type every row of a [`Prog`] has, decided from the column
/// types: `Int` and `Float` evaluate as typed vectors, anything involving
/// strings, dates or heterogeneous columns row by row through [`arith`].
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Float,
    Boxed,
}

/// One aggregate argument evaluated over a chunk: typed values with a
/// NULL flag per row, or boxed values.
enum ChunkVals {
    Int(Vec<i64>, Vec<bool>),
    Float(Vec<f64>, Vec<bool>),
    Boxed(Vec<Value>),
}

impl ChunkVals {
    /// Folds row `j` of the chunk into `accs[gids[j]]`, in row order.
    fn fold_into(&self, accs: &mut [Accumulator], gids: &[u32]) -> Result<(), EvalError> {
        match self {
            ChunkVals::Int(v, nulls) => {
                for ((&g, &x), &null) in gids.iter().zip(v).zip(nulls) {
                    accs[g as usize].fold(&if null { Value::Null } else { Value::Int(x) })?;
                }
            }
            ChunkVals::Float(v, nulls) => {
                for ((&g, &x), &null) in gids.iter().zip(v).zip(nulls) {
                    accs[g as usize].fold(&if null { Value::Null } else { Value::Float(x) })?;
                }
            }
            ChunkVals::Boxed(v) => {
                for (&g, x) in gids.iter().zip(v) {
                    accs[g as usize].fold(x)?;
                }
            }
        }
        Ok(())
    }
}

/// NULL flags of rows `lo..hi` of a typed column.
fn null_flags(col: &Column, lo: usize, hi: usize) -> Vec<bool> {
    if col.nulls().any() {
        (lo..hi).map(|i| col.nulls().get(i)).collect()
    } else {
        vec![false; hi - lo]
    }
}

/// `a[j] |= b[j]`: NULL propagates through arithmetic.
fn or_nulls(a: &mut [bool], b: &[bool]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x |= y;
    }
}

impl Prog {
    fn compile(e: &ScalarExpr, cols: &[String]) -> Result<Prog, EvalError> {
        Ok(match e {
            ScalarExpr::Var(v) => Prog::Col(
                cols.iter()
                    .position(|c| c == v)
                    .ok_or_else(|| EvalError::UnknownVariable(v.clone()))?,
            ),
            ScalarExpr::Lit(l) => Prog::Lit(l.into()),
            ScalarExpr::Binary(l, op, r) => Prog::Bin(
                Box::new(Prog::compile(l, cols)?),
                *op,
                Box::new(Prog::compile(r, cols)?),
            ),
        })
    }

    /// The result type of every row, following [`arith`]: `Int op Int`
    /// is `Int` except division, any float operand makes `Float`.
    fn kind(&self, rel: &CRel) -> Kind {
        match self {
            Prog::Col(c) => match rel.column(*c).data() {
                ColumnData::Int(_) => Kind::Int,
                ColumnData::Float(_) => Kind::Float,
                _ => Kind::Boxed,
            },
            Prog::Lit(Value::Int(_)) => Kind::Int,
            Prog::Lit(Value::Float(_)) => Kind::Float,
            Prog::Lit(_) => Kind::Boxed,
            Prog::Bin(l, op, r) => match (l.kind(rel), r.kind(rel)) {
                (Kind::Boxed, _) | (_, Kind::Boxed) => Kind::Boxed,
                (Kind::Int, Kind::Int) if *op != ArithOp::Div => Kind::Int,
                _ => Kind::Float,
            },
        }
    }

    /// Evaluates rows `lo..hi`, as typed vectors where [`Prog::kind`]
    /// allows.
    fn eval_chunk(
        &self,
        rel: &CRel,
        lo: usize,
        hi: usize,
        reader: &DictReader,
    ) -> Result<ChunkVals, EvalError> {
        Ok(match self.kind(rel) {
            Kind::Int => {
                let (v, n) = self.eval_int(rel, lo, hi);
                ChunkVals::Int(v, n)
            }
            Kind::Float => {
                let (v, n) = self.eval_float(rel, lo, hi);
                ChunkVals::Float(v, n)
            }
            Kind::Boxed => ChunkVals::Boxed(
                (lo..hi)
                    .map(|i| self.eval_value(rel, i, reader))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Rows `lo..hi` of an `Int`-kind expression: wrapping arithmetic.
    fn eval_int(&self, rel: &CRel, lo: usize, hi: usize) -> (Vec<i64>, Vec<bool>) {
        match self {
            Prog::Col(c) => {
                let col = rel.column(*c);
                let ColumnData::Int(a) = col.data() else {
                    unreachable!("Int kind")
                };
                (a[lo..hi].to_vec(), null_flags(col, lo, hi))
            }
            Prog::Lit(Value::Int(x)) => (vec![*x; hi - lo], vec![false; hi - lo]),
            Prog::Lit(_) => unreachable!("Int kind"),
            Prog::Bin(l, op, r) => {
                let (mut a, mut an) = l.eval_int(rel, lo, hi);
                let (b, bn) = r.eval_int(rel, lo, hi);
                or_nulls(&mut an, &bn);
                for (x, &y) in a.iter_mut().zip(&b) {
                    *x = match op {
                        ArithOp::Add => x.wrapping_add(y),
                        ArithOp::Sub => x.wrapping_sub(y),
                        ArithOp::Mul => x.wrapping_mul(y),
                        ArithOp::Div => unreachable!("division is Float kind"),
                    };
                }
                (a, an)
            }
        }
    }

    /// Rows `lo..hi` as `f64`: `Int`-kind operands promote with `as f64`
    /// ([`Value::as_f64`]), then the operator applies in `f64`.
    fn eval_float(&self, rel: &CRel, lo: usize, hi: usize) -> (Vec<f64>, Vec<bool>) {
        if self.kind(rel) == Kind::Int {
            let (a, n) = self.eval_int(rel, lo, hi);
            return (a.into_iter().map(|x| x as f64).collect(), n);
        }
        match self {
            Prog::Col(c) => {
                let col = rel.column(*c);
                let ColumnData::Float(a) = col.data() else {
                    unreachable!("Float kind")
                };
                (a[lo..hi].to_vec(), null_flags(col, lo, hi))
            }
            Prog::Lit(Value::Float(x)) => (vec![*x; hi - lo], vec![false; hi - lo]),
            Prog::Lit(_) => unreachable!("Float kind"),
            Prog::Bin(l, op, r) => {
                let (mut a, mut an) = l.eval_float(rel, lo, hi);
                let (b, bn) = r.eval_float(rel, lo, hi);
                or_nulls(&mut an, &bn);
                for (x, &y) in a.iter_mut().zip(&b) {
                    *x = match op {
                        ArithOp::Add => *x + y,
                        ArithOp::Sub => *x - y,
                        ArithOp::Mul => *x * y,
                        ArithOp::Div => *x / y,
                    };
                }
                (a, an)
            }
        }
    }

    /// Row `i` as a boxed value — exactly [`eval_scalar`].
    fn eval_value(&self, rel: &CRel, i: usize, reader: &DictReader) -> Result<Value, EvalError> {
        match self {
            Prog::Col(c) => Ok(rel.column(*c).value_with(i, reader)),
            Prog::Lit(v) => Ok(v.clone()),
            Prog::Bin(l, op, r) => {
                let lv = l.eval_value(rel, i, reader)?;
                let rv = r.eval_value(rel, i, reader)?;
                arith(&lv, *op, &rv)
            }
        }
    }
}

/// Why [`Accumulator::feed_weighted`] cannot reproduce the plain
/// row-at-a-time feed bit for bit — the factorized front's cue to fall
/// back to full materialization.
pub(crate) enum WeightedFeedError {
    /// The iterated feed would accumulate floats, whose rounding depends
    /// on input order; a weighted shortcut cannot be bit-identical.
    OrderSensitive,
    /// A count would overflow `u64` under weighting.
    Overflow,
    /// A genuine evaluation error (bad scalar expression, non-numeric
    /// SUM input) that the materialized path would also surface.
    Eval(EvalError),
}

/// SUM or AVG over a string or date (kept out of line: the fold is hot).
#[cold]
fn non_numeric(func: AggFunc, v: &Value) -> EvalError {
    EvalError::Internal(match func {
        AggFunc::Sum => format!("SUM over non-numeric value ({})", v.type_name()),
        _ => "AVG over non-numeric value".into(),
    })
}

/// Streaming accumulator for one output item.
pub(crate) enum Accumulator {
    /// Placeholder for plain grouping variables.
    Group,
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        n: u64,
    },
    Count {
        n: u64,
    },
    MinMax {
        best: Option<Value>,
        min: bool,
    },
    Avg {
        sum: f64,
        n: u64,
    },
}

impl Accumulator {
    pub(crate) fn for_item(item: &OutputItem) -> Accumulator {
        match item {
            OutputItem::Var { .. } => Accumulator::Group,
            OutputItem::Aggregate { func, .. } => match func {
                AggFunc::Sum => Accumulator::Sum {
                    int: 0,
                    float: 0.0,
                    any_float: false,
                    n: 0,
                },
                AggFunc::Count => Accumulator::Count { n: 0 },
                AggFunc::Min => Accumulator::MinMax {
                    best: None,
                    min: true,
                },
                AggFunc::Max => Accumulator::MinMax {
                    best: None,
                    min: false,
                },
                AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            },
        }
    }

    fn feed(&mut self, item: &OutputItem, cols: &[String], row: &Row) -> Result<(), EvalError> {
        let OutputItem::Aggregate { expr, .. } = item else {
            return Ok(());
        };
        let value = match expr {
            Some(e) => eval_scalar(e, cols, row)?,
            None => Value::Int(1), // COUNT(*): any non-null marker
        };
        self.fold(&value)
    }

    /// Folds one input value into the running aggregate — the single
    /// accumulation step behind both the row feed and the columnar
    /// kernel, so both accumulate identically.
    #[inline(always)]
    pub(crate) fn fold(&mut self, value: &Value) -> Result<(), EvalError> {
        match self {
            Accumulator::Group => {}
            Accumulator::Count { n } => {
                if !value.is_null() {
                    *n += 1;
                }
            }
            Accumulator::Sum {
                int,
                float,
                any_float,
                n,
            } => match value {
                Value::Null => {}
                Value::Int(i) => {
                    *int = int.wrapping_add(*i);
                    *n += 1;
                }
                Value::Float(x) => {
                    *float += x;
                    *any_float = true;
                    *n += 1;
                }
                other => return Err(non_numeric(AggFunc::Sum, other)),
            },
            Accumulator::MinMax { best, min } => {
                if value.is_null() {
                    return Ok(());
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let ord = value.cmp(b);
                        if *min {
                            ord.is_lt()
                        } else {
                            ord.is_gt()
                        }
                    }
                };
                if better {
                    *best = Some(value.clone());
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(x) = value.as_f64() {
                    *sum += x;
                    *n += 1;
                } else if !value.is_null() {
                    return Err(non_numeric(AggFunc::Avg, value));
                }
            }
        }
        Ok(())
    }

    /// Feeds one answer-row multiplicity class of `weight` rows at once —
    /// the factorized aggregate front's replacement for calling
    /// [`Accumulator::feed`] `weight` times. Exact (bit-identical to the
    /// iterated feed) for grouping placeholders, COUNT, integer SUM and
    /// MIN/MAX; declines with [`WeightedFeedError::OrderSensitive`] when
    /// the iterated feed would accumulate floats (whose rounding depends
    /// on input order) and with [`WeightedFeedError::Overflow`] when a
    /// count would wrap where the iterated path could not.
    pub(crate) fn feed_weighted(
        &mut self,
        item: &OutputItem,
        cols: &[String],
        row: &Row,
        weight: u64,
    ) -> Result<(), WeightedFeedError> {
        let OutputItem::Aggregate { expr, .. } = item else {
            return Ok(());
        };
        let value = match expr {
            Some(e) => eval_scalar(e, cols, row).map_err(WeightedFeedError::Eval)?,
            None => Value::Int(1), // COUNT(*): any non-null marker
        };
        match self {
            Accumulator::Group => {}
            Accumulator::Count { n } => {
                if !value.is_null() {
                    // COUNT's counter *is* the result: overflow must not
                    // silently wrap.
                    *n = n.checked_add(weight).ok_or(WeightedFeedError::Overflow)?;
                }
            }
            Accumulator::Sum {
                int,
                float: _,
                any_float: _,
                n,
            } => match value {
                Value::Null => {}
                Value::Int(i) => {
                    // `weight` wrapping adds of `i` ≡ one wrapping add of
                    // `i * weight` mod 2^64, so this is exact.
                    *int = int.wrapping_add(i.wrapping_mul(weight as i64));
                    // `n` only decides SUM-of-nothing-is-NULL; saturation
                    // preserves its zero/non-zero meaning.
                    *n = n.saturating_add(weight);
                }
                Value::Float(_) => return Err(WeightedFeedError::OrderSensitive),
                other => return Err(WeightedFeedError::Eval(non_numeric(AggFunc::Sum, &other))),
            },
            // Order- and multiplicity-free: feed the value once.
            Accumulator::MinMax { .. } => self.fold(&value).map_err(WeightedFeedError::Eval)?,
            // AVG divides an order-sensitively accumulated float sum;
            // callers exclude it statically, but stay safe here too.
            Accumulator::Avg { .. } => return Err(WeightedFeedError::OrderSensitive),
        }
        Ok(())
    }

    pub(crate) fn finish(&self) -> Value {
        match self {
            Accumulator::Group => Value::Null,
            Accumulator::Count { n } => Value::Int(*n as i64),
            Accumulator::Sum {
                int,
                float,
                any_float,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *any_float {
                    Value::Float(*float + *int as f64)
                } else {
                    Value::Int(*int)
                }
            }
            Accumulator::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_cq::{AggFunc, CqBuilder, ScalarExpr};

    fn answer(cols: &[&str], rows: Vec<Vec<Value>>) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
        )
    }

    #[test]
    fn group_by_sum() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
            .group("G")
            .build();
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(5)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.cols(), &["G".to_string(), "total".to_string()]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, "total"), Some(&Value::Int(3)));
        assert_eq!(out.value(1, "total"), Some(&Value::Int(5)));
    }

    #[test]
    fn count_star_and_empty_input() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Count, None, "n")
            .build();
        let a = answer(&[], vec![]);
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "n"), Some(&Value::Int(0)));
    }

    #[test]
    fn sum_over_empty_group_is_null_globally() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "s")
            .build();
        let a = answer(&["X"], vec![]);
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.value(0, "s"), Some(&Value::Null));
    }

    #[test]
    fn min_max_avg() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Min, Some(ScalarExpr::Var("X".into())), "lo")
            .out_agg(AggFunc::Max, Some(ScalarExpr::Var("X".into())), "hi")
            .out_agg(AggFunc::Avg, Some(ScalarExpr::Var("X".into())), "avg")
            .build();
        let a = answer(
            &["X"],
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.value(0, "lo"), Some(&Value::Int(1)));
        assert_eq!(out.value(0, "hi"), Some(&Value::Int(3)));
        assert_eq!(out.value(0, "avg"), Some(&Value::Float(2.0)));
    }

    #[test]
    fn hidden_rowids_are_dropped_but_preserve_multiplicity() {
        // Two answer rows differ only in the hidden rowid: the sum must see
        // both.
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "s")
            .out_var("__rid_r") // hidden multiplicity guard
            .build();
        let a = answer(
            &["X", "__rid_r"],
            vec![
                vec![Value::Int(5), Value::Int(0)],
                vec![Value::Int(5), Value::Int(1)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.cols(), &["s".to_string()]);
        assert_eq!(out.value(0, "s"), Some(&Value::Int(10)));
    }

    #[test]
    fn ungrouped_output_variable_is_an_error() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "s")
            .build(); // no GROUP BY G
        let a = answer(&["G", "X"], vec![vec![Value::Int(1), Value::Int(1)]]);
        let mut budget = Budget::unlimited();
        assert!(finalize(&a, &q, &mut budget).is_err());
    }

    #[test]
    fn order_by_applies_to_output() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
            .group("G")
            .order("total", SortDir::Desc)
            .build();
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("b"), Value::Int(5)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.value(0, "G"), Some(&Value::str("b")));
    }

    #[test]
    fn having_filters_groups() {
        let q = CqBuilder::new()
            .atom_vars("r", &["G", "X"])
            .out_var("G")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
            .group("G")
            .having("total", htqo_cq::CmpOp::Ge, htqo_cq::Literal::Int(4))
            .build();
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(5)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "G"), Some(&Value::str("b")));
        // Unknown HAVING label surfaces as an error (guarded upstream by
        // the isolator, but the engine stays defensive).
        let bad = CqBuilder::new()
            .atom_vars("r", &["G"])
            .out_var("G")
            .group("G")
            .having("zz", htqo_cq::CmpOp::Eq, htqo_cq::Literal::Int(1))
            .build();
        assert!(finalize(&a, &bad, &mut budget).is_err());
    }

    #[test]
    fn limit_truncates_after_sort() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_var("X")
            .order("X", SortDir::Desc)
            .limit(2)
            .build();
        let a = answer(
            &["X"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(3)],
                vec![Value::Int(2)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, "X"), Some(&Value::Int(3)));
        assert_eq!(out.value(1, "X"), Some(&Value::Int(2)));
    }

    /// The columnar front agrees with the row front — answers and budget
    /// charges — across the aggregate, projection, HAVING and ORDER BY
    /// paths.
    #[test]
    fn finalize_c_matches_row_finalize() {
        let queries = vec![
            CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_var("G")
                .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("X".into())), "total")
                .group("G")
                .order("total", SortDir::Desc)
                .build(),
            CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_var("G")
                .out_agg(AggFunc::Count, None, "n")
                .out_agg(AggFunc::Avg, Some(ScalarExpr::Var("X".into())), "avg")
                .group("G")
                .having("n", htqo_cq::CmpOp::Ge, htqo_cq::Literal::Int(2))
                .build(),
            CqBuilder::new()
                .atom_vars("r", &["G", "X"])
                .out_var("G")
                .out_var("X")
                .order("X", SortDir::Asc)
                .limit(2)
                .build(),
        ];
        let a = answer(
            &["G", "X"],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(5)],
                vec![Value::Null, Value::Int(7)],
            ],
        );
        let ca = crate::crel::CRel::from_vrel(&a);
        for q in &queries {
            let mut b1 = Budget::unlimited();
            let mut b2 = Budget::unlimited();
            let row = finalize(&a, q, &mut b1).unwrap();
            let col = finalize_c(&ca, q, &mut b2).unwrap();
            assert_eq!(row, col);
            assert_eq!(b1.charged(), b2.charged());
        }
    }

    #[test]
    fn finalize_c_empty_global_aggregate() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Count, None, "n")
            .build();
        let ca = crate::crel::CRel::empty(vec!["X".into()]);
        let mut budget = Budget::unlimited();
        let out = finalize_c(&ca, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, "n"), Some(&Value::Int(0)));
    }

    #[test]
    fn no_aggregates_projects_distinct() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X", "Y"])
            .out_var("X")
            .build();
        let a = answer(
            &["X", "Y"],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
            ],
        );
        let mut budget = Budget::unlimited();
        let out = finalize(&a, &q, &mut budget).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cols(), &["X".to_string()]);
    }
}
