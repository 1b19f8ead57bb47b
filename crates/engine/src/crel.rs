//! Columnar intermediate relations over *query variables* — the
//! column-at-a-time counterpart of [`VRelation`].
//!
//! A [`CRel`] carries one typed [`Column`] per query variable. Scans build
//! it straight from columnar base relations, the kernels in
//! [`crate::cops`] join/semijoin/project it by hashing flat columns and
//! gathering row indices, and [`CRel::to_vrel`] converts back to the row
//! representation at the pipeline boundary (final answers, oracles,
//! `finalize`'s ORDER BY tail).
//!
//! Zero-column relations are meaningful here just as for [`VRelation`]:
//! [`CRel::neutral`] is one empty tuple (the join identity), so `len` is
//! tracked explicitly rather than derived from a first column.
//!
//! A relation also records whether it is *proven duplicate-free*
//! ([`CRel::is_duplicate_free`]). The flag is only ever set by the
//! constructors that can prove it: a scan carrying the hidden rowid
//! column, a distinct projection, a natural join (or index-seek join) of
//! two duplicate-free inputs, a semijoin of a duplicate-free input, and a
//! projection or clone that keeps every column. Everything else —
//! [`CRel::new`], [`CRel::empty`], [`CRel::from_vrel`] — starts `false`.
//! [`crate::cops::project`] uses it to skip the hash-dedup pass when a
//! distinct projection keeps every column of a set.

use crate::column::Column;
use crate::dict;
use crate::schema::ColumnType;
use crate::value::{Row, Value};
use crate::vrel::VRelation;
use std::collections::HashSet;

/// A columnar relation whose columns are named by query variables.
#[derive(Clone, Debug)]
pub struct CRel {
    cols: Vec<String>,
    columns: Vec<Column>,
    len: usize,
    /// True only when the rows are proven pairwise distinct.
    duplicate_free: bool,
}

impl CRel {
    /// Assembles a relation from named columns (all of length `len`).
    ///
    /// # Panics
    /// Panics on duplicate variable names or column length mismatches.
    pub fn new(cols: Vec<String>, columns: Vec<Column>, len: usize) -> Self {
        assert_eq!(cols.len(), columns.len(), "name/column count mismatch");
        let mut seen = HashSet::new();
        for c in &cols {
            assert!(seen.insert(c.clone()), "duplicate variable `{c}`");
        }
        for col in &columns {
            assert_eq!(col.len(), len, "column length mismatch");
        }
        CRel {
            cols,
            columns,
            len,
            duplicate_free: false,
        }
    }

    /// An empty relation over the given variables (all columns `Mixed`
    /// until rows arrive via kernels, which always gather typed columns
    /// from typed inputs).
    pub fn empty(cols: Vec<String>) -> Self {
        let columns = cols
            .iter()
            .map(|_| Column::mixed_with_capacity(0))
            .collect();
        CRel::new(cols, columns, 0)
    }

    /// The *neutral* relation: zero columns, one (empty) row — the
    /// identity of natural join.
    pub fn neutral() -> Self {
        CRel {
            cols: Vec::new(),
            columns: Vec::new(),
            len: 1,
            duplicate_free: false,
        }
    }

    /// Variable names in column order.
    pub fn cols(&self) -> &[String] {
        &self.cols
    }

    /// The columns, parallel to [`CRel::cols`].
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the rows are proven pairwise distinct (see the module
    /// docs for the constructors that prove it).
    pub fn is_duplicate_free(&self) -> bool {
        self.duplicate_free
    }

    /// Sets the duplicate-free flag. Callers must have a proof: a wrong
    /// `true` makes distinct projections keep duplicate rows.
    pub(crate) fn with_duplicate_free(mut self, duplicate_free: bool) -> Self {
        self.duplicate_free = duplicate_free;
        self
    }

    /// Position of variable `v`.
    pub fn col_index(&self, v: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == v)
    }

    /// Converts a row relation to columnar form. Each column is typed by
    /// inference (first non-NULL value's type; heterogeneous columns fall
    /// back to `Mixed`), so the conversion is total over arbitrary row
    /// data and [`CRel::to_vrel`] is its exact inverse.
    pub fn from_vrel(v: &VRelation) -> CRel {
        let arity = v.cols().len();
        let rows = v.rows();
        let mut columns = Vec::with_capacity(arity);
        for c in 0..arity {
            let mut ty: Option<ColumnType> = None;
            let mut mixed = false;
            for row in rows {
                let t = match &row[c] {
                    Value::Null => continue,
                    Value::Int(_) => ColumnType::Int,
                    Value::Float(_) => ColumnType::Float,
                    Value::Str(_) => ColumnType::Str,
                    Value::Date(_) => ColumnType::Date,
                };
                match ty {
                    None => ty = Some(t),
                    Some(prev) if prev != t => {
                        mixed = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            let mut col = if mixed {
                Column::mixed_with_capacity(rows.len())
            } else {
                // All-NULL columns type as Int arbitrarily; every cell
                // reads back as `Value::Null` either way.
                Column::with_capacity(ty.unwrap_or(ColumnType::Int), rows.len())
            };
            for row in rows {
                col.push_value(&row[c]);
            }
            columns.push(col);
        }
        CRel {
            cols: v.cols().to_vec(),
            columns,
            len: rows.len(),
            duplicate_free: false,
        }
    }

    /// Materializes the rows (one dictionary read-lock for the whole
    /// pass).
    pub fn to_vrel(&self) -> VRelation {
        let reader = dict::reader();
        let mut rows: Vec<Row> = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let row: Vec<Value> = self
                .columns
                .iter()
                .map(|c| c.value_with(i, &reader))
                .collect();
            rows.push(row.into_boxed_slice());
        }
        VRelation::from_rows(self.cols.clone(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrel(cols: &[&str], rows: Vec<Vec<Value>>) -> VRelation {
        VRelation::from_rows(
            cols.iter().map(|c| c.to_string()).collect(),
            rows.into_iter().map(Vec::into_boxed_slice).collect(),
        )
    }

    #[test]
    fn roundtrip_typed_columns() {
        let v = vrel(
            &["x", "s"],
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Null, Value::str("a")],
                vec![Value::Int(3), Value::Null],
            ],
        );
        let c = CRel::from_vrel(&v);
        assert_eq!(c.len(), 3);
        assert_eq!(c.to_vrel(), v);
    }

    #[test]
    fn heterogeneous_column_falls_back_to_mixed() {
        let v = vrel(
            &["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::str("two")],
                vec![Value::Float(3.0)],
            ],
        );
        let c = CRel::from_vrel(&v);
        assert_eq!(c.to_vrel(), v);
    }

    #[test]
    fn neutral_is_one_empty_row() {
        let n = CRel::neutral();
        assert_eq!(n.len(), 1);
        assert_eq!(n.cols().len(), 0);
        let v = n.to_vrel();
        assert_eq!(v.len(), 1);
        assert!(v.set_eq(&VRelation::neutral()));
        assert_eq!(CRel::from_vrel(&VRelation::neutral()).len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_columns_panic() {
        CRel::empty(vec!["x".into(), "x".into()]);
    }
}
