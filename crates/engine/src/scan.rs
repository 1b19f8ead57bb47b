//! Atom scans: turn a stored relation into an intermediate relation over
//! the atom's query variables, applying the atom's constant filters
//! (selection push-down) and materializing the hidden `__rowid` column when
//! the isolator's multiplicity guard asked for it.
//!
//! The scan is columnar end to end ([`scan_atom_c`]): filters compare
//! typed cells against the resolved constants in place, the surviving row
//! indices are gathered once per output column, and no boxed `Value` is
//! touched. The row-returning [`scan_atom`] is the same scan followed by a
//! [`crate::crel::CRel::to_vrel`] conversion (identical budget charges).

use crate::column::Column;
use crate::crel::CRel;
use crate::dict;
use crate::error::{Budget, EvalError};
use crate::expr::cmp_matches;
use crate::schema::{ColumnType, Database};
use crate::value::Value;
use crate::vrel::VRelation;
use htqo_cq::isolator::ROWID_COLUMN;
use htqo_cq::{Atom, ConjunctiveQuery, Filter};

/// Where an output variable's value comes from.
enum Source {
    /// A column of the base relation.
    Col(usize),
    /// The hidden row identifier.
    RowId,
}

/// Scans `atom` from `db` into a columnar relation, applying `filters`
/// (which must all belong to the atom). Repeated variables within the
/// atom (e.g. `r(X, X)`) impose within-tuple equality.
pub fn scan_atom_c(
    db: &Database,
    atom: &Atom,
    filters: &[&Filter],
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    crate::fail_point!("scan::atom");
    let rel = db
        .table(&atom.relation)
        .ok_or_else(|| EvalError::UnknownTable(atom.relation.clone()))?;
    let schema = rel.schema();

    // Resolve filters to column indices and values.
    let resolved_filters: Vec<(usize, htqo_cq::CmpOp, Value)> = filters
        .iter()
        .map(|f| {
            let idx = schema
                .index_of(&f.column)
                .ok_or_else(|| EvalError::UnknownColumn {
                    relation: atom.relation.clone(),
                    column: f.column.clone(),
                })?;
            Ok((idx, f.op, Value::from(&f.value)))
        })
        .collect::<Result<_, EvalError>>()?;

    // Distinct output variables (first-occurrence order) and their sources.
    let mut out_vars: Vec<String> = Vec::new();
    let mut sources: Vec<Source> = Vec::new();
    // For repeated variables: (first source position, other column index).
    let mut equalities: Vec<(usize, usize)> = Vec::new();
    for (column, var) in &atom.args {
        let src = if column == ROWID_COLUMN {
            Source::RowId
        } else {
            Source::Col(
                schema
                    .index_of(column)
                    .ok_or_else(|| EvalError::UnknownColumn {
                        relation: atom.relation.clone(),
                        column: column.clone(),
                    })?,
            )
        };
        if let Some(pos) = out_vars.iter().position(|v| v == var) {
            // Rowid repetition cannot add a constraint (it is unique).
            if let (Source::Col(a), Source::Col(b)) = (&sources[pos], &src) {
                equalities.push((*a, *b));
            }
        } else {
            out_vars.push(var.clone());
            sources.push(src);
        }
    }

    // Selection: evaluate filters and within-tuple equalities against the
    // typed columns in place, collecting surviving row indices.
    let reader = dict::reader();
    let mut sel: Vec<u32> = Vec::new();
    for rowid in 0..rel.len() {
        if !resolved_filters
            .iter()
            .all(|(i, op, v)| cmp_matches(*op, rel.column(*i).cmp_value(rowid, v, &reader)))
        {
            continue;
        }
        if !equalities
            .iter()
            .all(|(a, b)| rel.column(*a).eq_at(rowid, rel.column(*b), rowid, &reader))
        {
            continue;
        }
        budget.charge(1)?;
        sel.push(rowid as u32);
    }
    drop(reader);

    // Projection: one gather per output column.
    let columns: Vec<Column> = sources
        .iter()
        .map(|s| match s {
            Source::Col(i) => rel.column(*i).gather(&sel),
            Source::RowId => {
                let mut c = Column::with_capacity(ColumnType::Int, sel.len());
                for &i in &sel {
                    c.push_value(&Value::Int(i as i64));
                }
                c
            }
        })
        .collect();
    // Distinct rowids make distinct rows: the scan is a set.
    let has_rowid = sources.iter().any(|s| matches!(s, Source::RowId));
    let out = CRel::new(out_vars, columns, sel.len()).with_duplicate_free(has_rowid);
    budget.charge_bytes(crate::cops::crel_payload_bytes(&out))?;
    Ok(out)
}

/// Scans `atom` into a row relation: the columnar scan plus a row
/// conversion (compatibility view; identical budget charges).
pub fn scan_atom(
    db: &Database,
    atom: &Atom,
    filters: &[&Filter],
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    Ok(scan_atom_c(db, atom, filters, budget)?.to_vrel())
}

/// Convenience: scans atom `a` of `q` with its own filters (columnar).
pub fn scan_query_atom_c(
    db: &Database,
    q: &ConjunctiveQuery,
    a: htqo_cq::AtomId,
    budget: &mut Budget,
) -> Result<CRel, EvalError> {
    let filters: Vec<&Filter> = q.filters_of(a).collect();
    scan_atom_c(db, q.atom(a), &filters, budget)
}

/// Convenience: scans atom `a` of `q` with its own filters (rows).
pub fn scan_query_atom(
    db: &Database,
    q: &ConjunctiveQuery,
    a: htqo_cq::AtomId,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let filters: Vec<&Filter> = q.filters_of(a).collect();
    scan_atom(db, q.atom(a), &filters, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::{ColumnType, Schema};
    use htqo_cq::{AtomId, CmpOp, CqBuilder, Literal};

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("name", ColumnType::Str),
        ]));
        r.extend_rows(vec![
            vec![Value::Int(1), Value::Int(1), Value::str("x")],
            vec![Value::Int(1), Value::Int(2), Value::str("y")],
            vec![Value::Int(3), Value::Int(3), Value::str("x")],
        ])
        .unwrap();
        db.insert_table("r", r);
        db
    }

    #[test]
    fn plain_scan_projects_used_columns() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), ("b", "Y")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.cols(), &["X".to_string(), "Y".to_string()]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn filters_are_applied() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X")])
            .out_var("X")
            .filter(0, "name", CmpOp::Eq, Literal::Str("x".into()))
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn repeated_variable_means_equality() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), ("b", "X")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        // Only rows with a == b survive.
        assert_eq!(v.len(), 2);
        assert_eq!(v.cols(), &["X".to_string()]);
    }

    #[test]
    fn rowid_column_materializes_indices() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X"), (ROWID_COLUMN, "RID")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db(), &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.value(2, "RID"), Some(&Value::Int(2)));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let q = CqBuilder::new()
            .atom("missing", "missing", &[("a", "X")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited();
        assert!(matches!(
            scan_query_atom(&db(), &q, AtomId(0), &mut budget),
            Err(EvalError::UnknownTable(_))
        ));
        let q2 = CqBuilder::new()
            .atom("r", "r", &[("zz", "X")])
            .out_var("X")
            .build();
        assert!(matches!(
            scan_query_atom(&db(), &q2, AtomId(0), &mut budget),
            Err(EvalError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn scan_respects_budget() {
        let q = CqBuilder::new()
            .atom("r", "r", &[("a", "X")])
            .out_var("X")
            .build();
        let mut budget = Budget::unlimited().with_max_tuples(2);
        assert!(scan_query_atom(&db(), &q, AtomId(0), &mut budget).is_err());
    }

    #[test]
    fn date_filter_comparisons() {
        let mut db = Database::new();
        let mut t = Relation::new(Schema::new(&[("d", ColumnType::Date)]));
        t.extend_rows(vec![vec![Value::Date(10)], vec![Value::Date(20)]])
            .unwrap();
        db.insert_table("t", t);
        let q = CqBuilder::new()
            .atom("t", "t", &[("d", "D")])
            .out_var("D")
            .filter(0, "d", CmpOp::Ge, Literal::Date(15))
            .build();
        let mut budget = Budget::unlimited();
        let v = scan_query_atom(&db, &q, AtomId(0), &mut budget).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.value(0, "D"), Some(&Value::Date(20)));
    }
}
