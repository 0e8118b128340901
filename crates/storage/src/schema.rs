//! Schemas: column definitions, sensitivity flags and lookup helpers.

use std::sync::Arc;

use serde::ser::SerializeStruct;
use serde::{Deserialize, Serialize};

use crate::{DataType, Result, StorageError};

/// Whether a column holds sensitive data.
///
/// Sensitivity is a *data-owner* concept: the DO marks the columns that must never
/// appear in plain form at the SP (demo step 1: "choose the attributes that need to
/// be protected"). On the SP side a sensitive column's physical type is
/// [`DataType::Encrypted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sensitivity {
    /// Stored in plain form at the SP.
    Public,
    /// Stored as SDB secret shares at the SP.
    Sensitive,
}

impl Sensitivity {
    /// True when sensitive.
    pub fn is_sensitive(&self) -> bool {
        matches!(self, Sensitivity::Sensitive)
    }
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (case-insensitive matching, stored lower-cased).
    pub name: String,
    /// Logical data type.
    pub data_type: DataType,
    /// Sensitivity classification.
    pub sensitivity: Sensitivity,
}

impl ColumnDef {
    /// A public (plain) column.
    pub fn public(name: &str, data_type: DataType) -> Self {
        ColumnDef {
            name: name.to_ascii_lowercase(),
            data_type,
            sensitivity: Sensitivity::Public,
        }
    }

    /// A sensitive column.
    pub fn sensitive(name: &str, data_type: DataType) -> Self {
        ColumnDef {
            name: name.to_ascii_lowercase(),
            data_type,
            sensitivity: Sensitivity::Sensitive,
        }
    }
}

/// An ordered collection of column definitions.
///
/// The definitions are shared: `clone` is a reference-count bump, so every
/// batch sliced, filtered or gathered out of one input carries the *same*
/// schema, which [`Schema::ptr_eq`] can tell without comparing a name. The
/// serialised form is `{columns}`, as if the definitions were held directly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    columns: Arc<Vec<ColumnDef>>,
}

impl Schema {
    /// Creates a schema from column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema {
            columns: Arc::new(columns),
        }
    }

    /// Empty schema.
    pub fn empty() -> Self {
        Schema::default()
    }

    /// True when both schemas are clones of one another (no definition was
    /// copied between them): a name resolved against one resolves to the same
    /// index against the other.
    pub fn ptr_eq(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of a column by (case-insensitive) name.
    ///
    /// Accepts both bare names (`price`) and qualified names (`lineitem.price`):
    ///
    /// * an exact (case-insensitive) match always wins;
    /// * a *qualified* lookup (`t.price`) additionally matches a column stored under
    ///   the bare name `price` (but never a column qualified with a *different*
    ///   table);
    /// * a *bare* lookup (`price`) matches a stored qualified name `*.price`
    ///   provided exactly one candidate exists.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        match resolve_name(self.columns.iter().map(|c| c.name.as_str()), name) {
            NameResolution::One(idx) => Ok(idx),
            NameResolution::Ambiguous(n) => Err(StorageError::Invalid {
                detail: format!("ambiguous column reference {name} ({n} candidates)"),
            }),
            NameResolution::None => Err(StorageError::ColumnNotFound {
                name: name.to_string(),
                context: format!("schema with {} columns", self.columns.len()),
            }),
        }
    }

    /// The definition of column `name`.
    pub fn column(&self, name: &str) -> Result<&ColumnDef> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// The definition at position `idx`.
    pub fn column_at(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Names of all sensitive columns.
    pub fn sensitive_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.sensitivity.is_sensitive())
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Appends a column, returning the new schema (builder style).
    pub fn with_column(mut self, def: ColumnDef) -> Self {
        Arc::make_mut(&mut self.columns).push(def);
        self
    }

    /// Concatenates two schemas (used by joins).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.to_vec();
        columns.extend(other.columns.iter().cloned());
        Schema::new(columns)
    }

    /// Projects a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.columns[i].clone()).collect())
    }
}

impl Serialize for Schema {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Schema", 1)?;
        s.serialize_field("columns", self.columns())?;
        s.end()
    }
}

impl<'de> Deserialize<'de> for Schema {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        /// The serialised form of a schema.
        #[derive(Deserialize)]
        struct Stored {
            columns: Vec<ColumnDef>,
        }
        Ok(Schema::new(Stored::deserialize(deserializer)?.columns))
    }
}

/// Outcome of resolving a column reference against a list of names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameResolution {
    /// No candidate matched.
    None,
    /// Exactly one candidate: its position in the input order.
    One(usize),
    /// Multiple candidates (the count).
    Ambiguous(usize),
}

/// Resolves a (possibly qualified) column reference against an ordered list
/// of stored column names — **the** name-resolution rules of this engine,
/// shared by [`Schema::index_of`] and by the optimizer's plan-time
/// resolution so the two can never drift:
///
/// * an exact (case-insensitive) match always wins, first position on
///   duplicates — self-joins legitimately duplicate qualified names;
/// * a *qualified* lookup (`t.price`) additionally matches a name stored
///   bare as `price` (but never one qualified with a *different* table);
/// * a *bare* lookup (`price`) matches a stored qualified `*.price`,
///   provided exactly one candidate exists.
pub fn resolve_name<'a>(
    names: impl Iterator<Item = &'a str> + Clone,
    name: &str,
) -> NameResolution {
    // Exact match first (first position wins on duplicates).
    if let Some(idx) = names
        .clone()
        .position(|stored| stored.eq_ignore_ascii_case(name))
    {
        return NameResolution::One(idx);
    }
    let needle_is_qualified = name.contains('.');
    let bare = name.rsplit('.').next().unwrap_or(name);
    let mut fallback = names.enumerate().filter(|(_, stored)| {
        if needle_is_qualified {
            // `t.price` may fall back to an unqualified stored `price`, but
            // must not match `other.price`.
            !stored.contains('.') && stored.eq_ignore_ascii_case(bare)
        } else {
            // Bare `price` may match a stored qualified `*.price`.
            (stored.rsplit('.').next()).is_some_and(|stored| stored.eq_ignore_ascii_case(bare))
        }
    });
    match fallback.next() {
        None => NameResolution::None,
        Some((idx, _)) => match fallback.count() {
            0 => NameResolution::One(idx),
            more => NameResolution::Ambiguous(more + 1),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("salary", DataType::Int),
            ColumnDef::public("name", DataType::Varchar),
        ])
    }

    #[test]
    fn index_lookup_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ID").unwrap(), 0);
        assert_eq!(s.index_of("Salary").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn qualified_lookup() {
        let s = Schema::new(vec![
            ColumnDef::public("emp.id", DataType::Int),
            ColumnDef::public("dept.id", DataType::Int),
            ColumnDef::public("emp.name", DataType::Varchar),
        ]);
        assert_eq!(s.index_of("emp.id").unwrap(), 0);
        assert_eq!(s.index_of("dept.id").unwrap(), 1);
        assert_eq!(s.index_of("name").unwrap(), 2);
        // Ambiguous bare name.
        assert!(s.index_of("id").is_err());
    }

    #[test]
    fn bare_schema_accepts_qualified_lookup() {
        let s = sample();
        assert_eq!(s.index_of("emp.salary").unwrap(), 1);
    }

    #[test]
    fn sensitive_columns_listed() {
        let s = sample();
        assert_eq!(s.sensitive_columns(), vec!["salary"]);
    }

    #[test]
    fn join_and_project() {
        let a = sample();
        let b = Schema::new(vec![ColumnDef::public("dept", DataType::Varchar)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 4);
        let p = j.project(&[3, 0]);
        assert_eq!(p.column_at(0).name, "dept");
        assert_eq!(p.column_at(1).name, "id");
    }

    #[test]
    fn schema_serde_roundtrip() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.starts_with(r#"{"columns":[{"name":"id","#), "{json}");
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn clones_share_their_definitions_and_builders_do_not_disturb_them() {
        let s = sample();
        let clone = s.clone();
        assert!(s.ptr_eq(&clone));
        assert!(!s.ptr_eq(&sample()), "equal content is not identity");
        let wider = clone.with_column(ColumnDef::public("extra", DataType::Int));
        assert!(!s.ptr_eq(&wider));
        assert_eq!((s.len(), wider.len()), (3, 4));
    }
}
