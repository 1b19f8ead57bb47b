//! Columnar physical operators over [`CRel`]s — the column-at-a-time
//! counterparts of [`crate::ops`].
//!
//! The kernels share the row kernels' shape exactly (build on the smaller
//! side, the [`ChainTable`] chained-index hash table, hash partitioning
//! above [`PARALLEL_ROW_THRESHOLD`] with a fixed partition count, and the
//! same per-materialized-tuple [`Budget`] charges) but never touch a
//! boxed `Value` on the hot path:
//!
//! - key hashes are produced by one vectorized pass per key column
//!   ([`crate::column::Column::write_hashes`]) over flat typed vectors;
//! - candidate matches are verified by typed cell comparisons
//!   ([`crate::column::Column::eq_at`]) — string cells compare by `u32`
//!   dictionary code;
//! - output is materialized by collecting matching `(build, probe)` row
//!   index pairs and running one gather pass per output column, instead
//!   of cloning cells row by row.
//!
//! String cell hashes are content-based (memoized in the dictionary), so
//! hash-derived orders — partition assignment, dedup bucket order — do
//! not depend on dictionary interning order, and kernel output order is
//! reproducible across processes. Like the row kernels, sequential and
//! partitioned paths produce identical bags, with probe order preserved
//! within a partition and partitions concatenated in index order.

use crate::chain::ChainTable;
use crate::column::{finish_hash, Column};
use crate::crel::CRel;
use crate::dict::{self, DictReader};
use crate::error::{Budget, EvalError};
use crate::exec;
use crate::hash::{partition_of, FxHashMap};
use crate::ops::{self, PARALLEL_ROW_THRESHOLD};
use crate::value::Row;
use crate::vrel::VRelation;

/// Matching `(build, probe)` row index lists produced by a join kernel.
type PairLists = (Vec<u32>, Vec<u32>);

/// Bytes one matching `(build, probe)` index pair occupies in the
/// kernels' pair lists (two `u32`s) — the columnar counterpart of the row
/// kernels' per-output-row charge.
pub(crate) const PAIR_BYTES: u64 = 8;

/// Row `i` of `rel` as a boxed row, streamed straight out of the columns.
fn materialize_row(rel: &CRel, i: usize, reader: &DictReader) -> Row {
    rel.columns()
        .iter()
        .map(|c| c.value_with(i, reader))
        .collect()
}

/// Resident payload bytes of a columnar relation (sum of its columns'
/// typed vectors), charged when a kernel materializes its output.
pub(crate) fn crel_payload_bytes(r: &CRel) -> u64 {
    r.columns().iter().map(|c| c.payload_bytes() as u64).sum()
}

/// Column positions of the shared variables in `a` and `b`, plus the
/// positions in `b` of its non-shared columns.
fn join_layout(a: &CRel, b: &CRel) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut a_shared = Vec::new();
    let mut b_shared = Vec::new();
    for (i, c) in a.cols().iter().enumerate() {
        if let Some(j) = b.col_index(c) {
            a_shared.push(i);
            b_shared.push(j);
        }
    }
    let b_rest: Vec<usize> = (0..b.cols().len())
        .filter(|j| !b_shared.contains(j))
        .collect();
    (a_shared, b_shared, b_rest)
}

/// 64-bit key hash of every row over the key columns `idx`: one
/// [`Column::write_hashes`] pass per column, then the avalanche
/// finalizer. An empty key hashes every row to the same constant (cross
/// products), matching [`crate::hash::hash_key`]'s convention.
pub fn key_hashes(rel: &CRel, idx: &[usize], reader: &DictReader) -> Vec<u64> {
    let mut acc = vec![0u64; rel.len()];
    for &c in idx {
        rel.column(c).write_hashes(&mut acc, reader);
    }
    for h in &mut acc {
        *h = finish_hash(*h);
    }
    acc
}

/// True if row `i` of `a` and row `j` of `b` agree on the paired key
/// columns (`Value` equality semantics).
#[inline]
fn rows_key_eq(
    a: &CRel,
    i: usize,
    b: &CRel,
    j: usize,
    a_idx: &[usize],
    b_idx: &[usize],
    reader: &DictReader,
) -> bool {
    a_idx
        .iter()
        .zip(b_idx)
        .all(|(&x, &y)| a.column(x).eq_at(i, b.column(y), j, reader))
}

/// Permutes the columns of `r` to `desired` (must be a permutation) — a
/// pointer shuffle, no row data is copied.
fn reorder(r: CRel, desired: &[String]) -> CRel {
    let mut columns: Vec<Option<Column>> = r.columns().to_vec().into_iter().map(Some).collect();
    let len = r.len();
    let out_columns: Vec<Column> = desired
        .iter()
        .map(|c| {
            let i = r.col_index(c).expect("reorder: missing column");
            columns[i].take().expect("reorder: duplicate column")
        })
        .collect();
    CRel::new(desired.to_vec(), out_columns, len)
}

/// Natural join of `a` and `b` on their shared variables — the columnar
/// [`crate::ops::natural_join`]. Same budget charges, same output bag,
/// same deterministic ordering contract.
pub fn natural_join(a: &CRel, b: &CRel, budget: &mut Budget) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::join");
    budget.join_stats().add_hash_build();
    let duplicate_free = a.is_duplicate_free() && b.is_duplicate_free();
    let (build, probe, swapped) = if a.len() <= b.len() {
        (a, b, false)
    } else {
        (b, a, true)
    };
    let (build_shared, probe_shared, probe_rest) = join_layout(build, probe);

    let mut out_cols: Vec<String> = build.cols().to_vec();
    out_cols.extend(probe_rest.iter().map(|&j| probe.cols()[j].clone()));

    let out = if ops::join_build_reservation(budget, &build_shared, build.len(), probe.len())? {
        // Grace spill path: the shared row-carrier machinery, fed rows
        // streamed straight out of the columns (no row-carrier copy of
        // either input is ever materialized).
        let reader = dict::reader();
        let build_hashes = key_hashes(build, &build_shared, &reader);
        let probe_hashes = key_hashes(probe, &probe_shared, &reader);
        let rows = ops::grace_join_spill(
            build.len(),
            |i| materialize_row(build, i, &reader),
            |i| build_hashes[i],
            probe.len(),
            |i| materialize_row(probe, i, &reader),
            |i| probe_hashes[i],
            &build_shared,
            &probe_shared,
            &probe_rest,
            build.cols().len(),
            budget,
        )?;
        drop(reader);
        // Re-encoding interns into the dictionary, so the reader must be
        // released first.
        CRel::from_vrel(&VRelation::from_rows(out_cols, rows))
    } else {
        let threads = exec::num_threads();
        let result = if !build_shared.is_empty()
            && threads > 1
            && build.len() + probe.len() >= PARALLEL_ROW_THRESHOLD
        {
            join_pairs_partitioned(build, probe, &build_shared, &probe_shared, threads, budget)
        } else {
            join_pairs_sequential(build, probe, &build_shared, &probe_shared, budget)
        };
        // The build table (and hash scratch) is gone either way.
        budget.uncharge_bytes(ops::join_build_bytes(build.len(), probe.len()));
        let (build_idx, probe_idx) = result?;

        // Output construction: one gather pass per column.
        let mut columns: Vec<Column> = Vec::with_capacity(out_cols.len());
        for c in build.columns() {
            columns.push(c.gather(&build_idx));
        }
        for &j in &probe_rest {
            columns.push(probe.column(j).gather(&probe_idx));
        }
        let n = build_idx.len();
        let out = CRel::new(out_cols, columns, n);
        budget.charge_bytes(crel_payload_bytes(&out))?;
        out
    };

    if swapped {
        let desired: Vec<String> = {
            let mut cols: Vec<String> = a.cols().to_vec();
            cols.extend(b.cols().iter().filter(|c| !a.cols().contains(c)).cloned());
            cols
        };
        return Ok(reorder(out, &desired).with_duplicate_free(duplicate_free));
    }
    Ok(out.with_duplicate_free(duplicate_free))
}

/// Sequential kernel: matching `(build, probe)` row pairs in probe-major
/// order (ascending build chain within a probe row).
fn join_pairs_sequential(
    build: &CRel,
    probe: &CRel,
    build_shared: &[usize],
    probe_shared: &[usize],
    budget: &mut Budget,
) -> Result<PairLists, EvalError> {
    let reader = dict::reader();
    let build_hashes = key_hashes(build, build_shared, &reader);
    let probe_hashes = key_hashes(probe, probe_shared, &reader);
    let table = ChainTable::build(build.len(), |i| build_hashes[i]);
    let mut build_idx: Vec<u32> = Vec::new();
    let mut probe_idx: Vec<u32> = Vec::new();
    for (pi, &ph) in probe_hashes.iter().enumerate() {
        table.for_each(ph, |bi| {
            if rows_key_eq(build, bi, probe, pi, build_shared, probe_shared, &reader) {
                budget.charge(1)?;
                budget.charge_bytes(PAIR_BYTES)?;
                build_idx.push(bi as u32);
                probe_idx.push(pi as u32);
            }
            Ok(())
        })?;
    }
    Ok((build_idx, probe_idx))
}

/// Partitioned parallel kernel: split both sides by the high hash bits,
/// build+probe per partition on the worker pool, concatenate pair lists
/// in partition order (deterministic for any thread count).
fn join_pairs_partitioned(
    build: &CRel,
    probe: &CRel,
    build_shared: &[usize],
    probe_shared: &[usize],
    threads: usize,
    budget: &mut Budget,
) -> Result<PairLists, EvalError> {
    // Fixed partition count, matching the row kernel.
    let bits = 6u32;
    let nparts = 1usize << bits;

    let reader = dict::reader();
    let build_hashes = key_hashes(build, build_shared, &reader);
    let probe_hashes = key_hashes(probe, probe_shared, &reader);
    drop(reader);

    let bucket = |hashes: &[u64]| -> Vec<Vec<u32>> {
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); nparts];
        for (i, &h) in hashes.iter().enumerate() {
            parts[partition_of(h, bits)].push(i as u32);
        }
        parts
    };
    let build_parts = bucket(&build_hashes);
    let probe_parts = bucket(&probe_hashes);

    let shared = budget.fork();
    let tasks: Vec<usize> = (0..nparts).collect();
    let results = exec::parallel_map(tasks, threads, |p| {
        crate::fail_point!("cops::join::partition");
        let reader = dict::reader();
        let mut bud = shared.clone();
        let bp = &build_parts[p];
        let table = ChainTable::build(bp.len(), |k| build_hashes[bp[k] as usize]);
        let mut build_idx: Vec<u32> = Vec::new();
        let mut probe_idx: Vec<u32> = Vec::new();
        for &pi in &probe_parts[p] {
            table.for_each(probe_hashes[pi as usize], |k| {
                let bi = bp[k] as usize;
                if rows_key_eq(
                    build,
                    bi,
                    probe,
                    pi as usize,
                    build_shared,
                    probe_shared,
                    &reader,
                ) {
                    bud.charge(1)?;
                    bud.charge_bytes(PAIR_BYTES)?;
                    build_idx.push(bi as u32);
                    probe_idx.push(pi);
                }
                Ok(())
            })?;
        }
        Ok((build_idx, probe_idx))
    });

    // Budget exhaustion first (deterministic for any thread count), then
    // a contained worker panic, then the first per-partition error, then
    // concatenation in partition order — mirrors
    // `ops::merge_partition_results`.
    budget.check_exceeded()?;
    let results = results?;
    let mut parts = Vec::with_capacity(results.len());
    for r in results {
        parts.push(r?);
    }
    let total: usize = parts.iter().map(|(b, _)| b.len()).sum();
    let mut build_idx = Vec::with_capacity(total);
    let mut probe_idx = Vec::with_capacity(total);
    for (b, p) in parts {
        build_idx.extend(b);
        probe_idx.extend(p);
    }
    Ok((build_idx, probe_idx))
}

/// Semijoin `a ⋉ b` — the columnar [`crate::ops::semijoin`].
pub fn semijoin(a: &CRel, b: &CRel, budget: &mut Budget) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::semijoin");
    let (a_shared, b_shared, _) = join_layout(a, b);
    if a_shared.is_empty() {
        return if b.is_empty() {
            Ok(CRel::empty(a.cols().to_vec()))
        } else {
            budget.charge(a.len() as u64)?;
            budget.charge_bytes(crel_payload_bytes(a))?;
            Ok(a.clone())
        };
    }

    // Build table + both hash arrays, released when the kernel returns
    // (mirrors the row semijoin: the reducer side is expected to fit).
    let table_bytes = ops::join_build_bytes(b.len(), a.len());
    budget.reserve_bytes(table_bytes)?;
    let reader = dict::reader();
    let b_hashes = key_hashes(b, &b_shared, &reader);
    let a_hashes = key_hashes(a, &a_shared, &reader);
    let table = ChainTable::build(b.len(), |i| b_hashes[i]);
    let matches = |ai: usize, reader: &DictReader| {
        table.any(a_hashes[ai], |bi| {
            rows_key_eq(a, ai, b, bi, &a_shared, &b_shared, reader)
        })
    };

    let threads = exec::num_threads();
    let keep_result: Result<Vec<u32>, EvalError> =
        if threads > 1 && a.len() + b.len() >= PARALLEL_ROW_THRESHOLD {
            drop(reader);
            let shared = budget.fork();
            let chunks = exec::chunk_ranges(a.len(), threads * 4);
            let results = exec::parallel_map(chunks, threads, |(lo, hi)| {
                let reader = dict::reader();
                let mut bud = shared.clone();
                let mut out = Vec::new();
                for i in lo..hi {
                    if matches(i, &reader) {
                        bud.charge(1)?;
                        bud.charge_bytes(4)?;
                        out.push(i as u32);
                    }
                }
                Ok(out)
            });
            let merge = |results: Result<Vec<Result<Vec<u32>, EvalError>>, EvalError>,
                         budget: &mut Budget|
             -> Result<Vec<u32>, EvalError> {
                budget.check_exceeded()?;
                let mut parts = Vec::new();
                for r in results? {
                    parts.push(r?);
                }
                Ok(parts.into_iter().flatten().collect())
            };
            merge(results, budget)
        } else {
            let mut run = || {
                let mut out = Vec::new();
                for i in 0..a.len() {
                    if matches(i, &reader) {
                        budget.charge(1)?;
                        budget.charge_bytes(4)?;
                        out.push(i as u32);
                    }
                }
                Ok(out)
            };
            run()
        };
    budget.uncharge_bytes(table_bytes);
    let keep = keep_result?;
    let columns: Vec<Column> = a.columns().iter().map(|c| c.gather(&keep)).collect();
    let out = CRel::new(a.cols().to_vec(), columns, keep.len())
        .with_duplicate_free(a.is_duplicate_free());
    budget.charge_bytes(crel_payload_bytes(&out))?;
    Ok(out)
}

/// Projects `a` onto `vars` — the columnar [`crate::ops::project`].
/// Distinct mode dedups via per-row key hashes with typed verification;
/// bag mode is a column clone (no per-cell work at all). A distinct
/// projection that keeps every column of a duplicate-free input has
/// nothing to remove: it skips the hash pass, returns the columns in the
/// requested order, and charges exactly what the dedup pass would have
/// (one tuple and four bytes per kept row, then the output payload).
pub fn project(
    a: &CRel,
    vars: &[String],
    distinct: bool,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    crate::fail_point!("cops::project");
    let idx: Vec<usize> = vars
        .iter()
        .map(|v| {
            a.col_index(v)
                .ok_or_else(|| EvalError::UnknownVariable(v.clone()))
        })
        .collect::<Result<_, _>>()?;
    // A set projected onto all of its columns has no duplicate to remove.
    let keeps_set = idx.len() == a.cols().len() && a.is_duplicate_free();
    if distinct && !keeps_set {
        // Dedup state: the hash array plus the bucket map, reserved as one
        // block and released once the kept indices are gathered.
        let map_bytes =
            8 * a.len() as u64 + (a.len() * std::mem::size_of::<(u64, Vec<u32>)>()) as u64;
        budget.reserve_bytes(map_bytes)?;
        let reader = dict::reader();
        let hashes = key_hashes(a, &idx, &reader);
        let mut seen: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        seen.reserve(a.len());
        let mut keep: Vec<u32> = Vec::new();
        let mut run = || {
            for (i, &h) in hashes.iter().enumerate() {
                let bucket = seen.entry(h).or_default();
                let dup = bucket
                    .iter()
                    .any(|&oi| rows_key_eq(a, i, a, oi as usize, &idx, &idx, &reader));
                if !dup {
                    budget.charge(1)?;
                    budget.charge_bytes(4)?;
                    bucket.push(i as u32);
                    keep.push(i as u32);
                }
            }
            Ok(())
        };
        let result: Result<(), EvalError> = run();
        budget.uncharge_bytes(map_bytes);
        result?;
        let columns: Vec<Column> = idx.iter().map(|&c| a.column(c).gather(&keep)).collect();
        let out = CRel::new(vars.to_vec(), columns, keep.len()).with_duplicate_free(true);
        budget.charge_bytes(crel_payload_bytes(&out))?;
        Ok(out)
    } else {
        budget.charge(a.len() as u64)?;
        if distinct {
            // What the dedup pass charges per kept row.
            budget.charge_bytes(4 * a.len() as u64)?;
        }
        let columns: Vec<Column> = idx.iter().map(|&c| a.column(c).clone()).collect();
        let out = CRel::new(vars.to_vec(), columns, a.len()).with_duplicate_free(keeps_set);
        budget.charge_bytes(crel_payload_bytes(&out))?;
        Ok(out)
    }
}

/// Projects onto the intersection of `a`'s columns and `vars`, distinct —
/// the columnar [`crate::ops::project_onto_available`].
pub fn project_onto_available(
    a: &CRel,
    vars: &[String],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let avail: Vec<String> = vars
        .iter()
        .filter(|v| a.col_index(v).is_some())
        .cloned()
        .collect();
    if avail.len() == a.cols().len() {
        return Ok(a.clone());
    }
    project(a, &avail, true, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::value::Value;
    use crate::vrel::VRelation;

    fn vrel(cols: &[&str], rows: &[&[i64]]) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.iter()
                .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
                .collect(),
        )
    }

    fn crel(cols: &[&str], rows: &[&[i64]]) -> CRel {
        CRel::from_vrel(&vrel(cols, rows))
    }

    #[test]
    fn join_matches_row_kernel() {
        let a = vrel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = vrel(&["y", "z"], &[&[10, 100], &[20, 200], &[20, 201]]);
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let row = ops::natural_join(&a, &b, &mut b1).unwrap();
        let col = natural_join(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut b2).unwrap();
        assert!(col.to_vrel().set_eq(&row));
        assert_eq!(b1.charged(), b2.charged());
    }

    #[test]
    fn join_with_neutral_is_identity() {
        let a = crel(&["x"], &[&[1], &[2]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &CRel::neutral(), &mut budget).unwrap();
        assert!(j.to_vrel().set_eq(&a.to_vrel()));
        let j2 = natural_join(&CRel::neutral(), &a, &mut budget).unwrap();
        assert!(j2.to_vrel().set_eq(&a.to_vrel()));
    }

    #[test]
    fn cross_product_when_no_shared_columns() {
        let a = crel(&["x"], &[&[1], &[2]]);
        let b = crel(&["y"], &[&[7], &[8], &[9]]);
        let mut budget = Budget::unlimited();
        let j = natural_join(&a, &b, &mut budget).unwrap();
        assert_eq!(j.len(), 6);
        assert_eq!(budget.charged(), 6);
    }

    #[test]
    fn join_respects_budget() {
        let a = crel(&["x"], &[&[1], &[2], &[3]]);
        let b = crel(&["y"], &[&[1], &[2], &[3]]);
        let mut budget = Budget::unlimited().with_max_tuples(5);
        assert!(natural_join(&a, &b, &mut budget)
            .unwrap_err()
            .is_resource_limit());
    }

    #[test]
    fn swapped_sides_preserve_caller_column_order() {
        let a = vrel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 20]]);
        let b = vrel(&["y"], &[&[20]]);
        let mut budget = Budget::unlimited();
        let ab = natural_join(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut budget).unwrap();
        let ba = natural_join(&CRel::from_vrel(&b), &CRel::from_vrel(&a), &mut budget).unwrap();
        assert_eq!(ab.cols(), &["x".to_string(), "y".to_string()]);
        assert_eq!(ba.cols(), &["y".to_string(), "x".to_string()]);
        assert!(ab.to_vrel().set_eq(&ba.to_vrel()));
    }

    #[test]
    fn semijoin_matches_row_kernel() {
        let a = vrel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let b = vrel(&["y", "z"], &[&[10, 0], &[30, 0]]);
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let row = ops::semijoin(&a, &b, &mut b1).unwrap();
        let col = semijoin(&CRel::from_vrel(&a), &CRel::from_vrel(&b), &mut b2).unwrap();
        assert!(col.to_vrel().set_eq(&row));
        assert_eq!(b1.charged(), b2.charged());
    }

    #[test]
    fn semijoin_no_shared_columns() {
        let a = crel(&["x"], &[&[1], &[2]]);
        let empty = CRel::empty(vec!["y".into()]);
        let some = crel(&["y"], &[&[9]]);
        let mut budget = Budget::unlimited();
        assert!(semijoin(&a, &empty, &mut budget).unwrap().is_empty());
        assert!(semijoin(&a, &some, &mut budget)
            .unwrap()
            .to_vrel()
            .set_eq(&a.to_vrel()));
    }

    #[test]
    fn project_distinct_and_bag() {
        let a = crel(&["x", "y"], &[&[1, 10], &[1, 20], &[2, 10]]);
        let mut budget = Budget::unlimited();
        let p = project(&a, &["x".to_string()], true, &mut budget).unwrap();
        assert_eq!(p.len(), 2);
        let p2 = project(&a, &["x".to_string()], false, &mut budget).unwrap();
        assert_eq!(p2.len(), 3);
        assert!(matches!(
            project(&a, &["zz".to_string()], true, &mut budget),
            Err(EvalError::UnknownVariable(_))
        ));
    }

    #[test]
    fn project_onto_available_ignores_missing() {
        let a = crel(&["x", "y"], &[&[1, 10]]);
        let mut budget = Budget::unlimited();
        let p =
            project_onto_available(&a, &["x".to_string(), "w".to_string()], &mut budget).unwrap();
        assert_eq!(p.cols(), &["x".to_string()]);
    }

    #[test]
    fn large_join_partitioned_matches_sequential() {
        // Above the parallel threshold, with duplicate keys and strings.
        let n = 6000usize;
        let mk = |shift: i64| {
            let rows: Vec<Box<[Value]>> = (0..n)
                .map(|i| {
                    vec![
                        Value::Int((i as i64 + shift) % 97),
                        Value::str(&format!("s{}", i % 13)),
                    ]
                    .into_boxed_slice()
                })
                .collect();
            rows
        };
        let a = VRelation::from_rows(vec!["k".into(), "sa".into()], mk(0));
        let b = VRelation::from_rows(vec!["k".into(), "sb".into()], mk(3));
        let ca = CRel::from_vrel(&a);
        let cb = CRel::from_vrel(&b);
        let mut b1 = Budget::unlimited();
        let mut b2 = Budget::unlimited();
        let threads_before = exec::num_threads();
        exec::set_threads_exact(1);
        let seq = natural_join(&ca, &cb, &mut b1).unwrap();
        exec::set_threads_exact(4);
        let par = natural_join(&ca, &cb, &mut b2).unwrap();
        exec::set_threads_exact(threads_before);
        assert_eq!(seq.len(), par.len());
        assert_eq!(b1.charged(), b2.charged());
        assert_eq!(seq.to_vrel().sorted_rows(), par.to_vrel().sorted_rows());
    }
}
