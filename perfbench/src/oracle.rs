//! Answer checks: a naive left-deep reference evaluation and a
//! row-multiset comparison that tolerates float low bits.

use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_engine::{Budget, Database, VRelation, Value};

/// Relative tolerance for float aggregates. A SUM accumulated in another
/// join order may differ in its last bits; anything beyond this is a
/// wrong answer.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// How an answer compares with its reference.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Identical rows, bit for bit.
    Same,
    /// Identical except float values within [`FLOAT_REL_TOL`].
    FloatLowBits,
    /// A real difference (message says where).
    Wrong(String),
}

/// The reference answer of `sql`: parse, isolate, join every atom in
/// body order without semijoin reduction, then aggregate and order.
pub fn reference(db: &Database, sql: &str) -> Result<VRelation, String> {
    let stmt = parse_select(sql).map_err(|e| format!("parse: {e}"))?;
    let q = isolate(&stmt, db, IsolatorOptions::default()).map_err(|e| format!("isolate: {e}"))?;
    let mut budget = Budget::unlimited();
    let joined =
        htqo_eval::evaluate_naive(db, &q, &mut budget).map_err(|e| format!("naive join: {e}"))?;
    htqo_engine::finalize(&joined, &q, &mut budget).map_err(|e| format!("finalize: {e}"))
}

/// Compares `got` with `want` as row multisets over the same columns.
pub fn compare(got: &VRelation, want: &VRelation) -> Verdict {
    if got.cols() != want.cols() {
        return Verdict::Wrong(format!(
            "columns {:?}, expected {:?}",
            got.cols(),
            want.cols()
        ));
    }
    if got.len() != want.len() {
        return Verdict::Wrong(format!("{} rows, expected {}", got.len(), want.len()));
    }
    let (g, w) = (got.sorted_rows(), want.sorted_rows());
    let mut verdict = Verdict::Same;
    for (rg, rw) in g.iter().zip(&w) {
        for (a, b) in rg.iter().zip(rw.iter()) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) if x.to_bits() != y.to_bits() => {
                    if (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs()) {
                        verdict = Verdict::FloatLowBits;
                    } else {
                        return Verdict::Wrong(format!("row {rg:?}, expected {rw:?}"));
                    }
                }
                (a, b) if a != b => {
                    return Verdict::Wrong(format!("row {rg:?}, expected {rw:?}"));
                }
                _ => {}
            }
        }
    }
    verdict
}
