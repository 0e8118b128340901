//! The upload pipeline (demo step 1): turning a plaintext table plus sensitivity
//! choices into the encrypted table stored at the SP.
//!
//! For every row the encryptor:
//!
//! 1. draws a random secret row id `r` and stores it SIES-encrypted in `row_id`;
//! 2. stores the auxiliary all-ones column `sdb_s` encrypted under the table's aux
//!    key (the vehicle for key updates and constants; ARCHITECTURE.md,
//!    "Modular arithmetic");
//! 3. encrypts every sensitive numeric column under its own column key and the row
//!    id: `v_e = v·v_k⁻¹ mod n` for the item key `v_k = m·g^e`, `e = r·x mod
//!    φ(n)`, computed as `v·m⁻¹·g^(−e)` — `m⁻¹` taken once per key by the
//!    key store, `g^(−e)` a pair of half-width powers modulo the primes of
//!    `n` — so no item key is formed or inverted (ARCHITECTURE.md, "Key
//!    material");
//! 4. replaces every sensitive VARCHAR column with a deterministic equality tag
//!    plus a SIES-encrypted payload;
//! 5. passes insensitive columns through unchanged.
//!
//! The work runs a column at a time, and the output is the SP table's columns:
//! shares as limbs, row ids, tags and payloads as values, and an upload's
//! public columns the staged ones themselves. Row encryption is embarrassingly
//! parallel (each row needs a handful of modular exponentiations), so an
//! upload with `UploadOptions::threads` above one splits its rows into that
//! many chunks on scoped threads.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use num_bigint::BigUint;

use sdb_crypto::batch::encrypt_column;
#[cfg(test)]
use sdb_crypto::share::{encrypt_value, gen_item_key};
use sdb_crypto::{Drbg, EncryptedRowId, RowId, SignedCodec};
use sdb_storage::{
    Bitmap, Column, ColumnDef, DataType, Schema, Sensitivity, ShareColumn, StorageError, Table,
    Value,
};

use crate::keystore::KeyStore;
use crate::meta::{ColumnMeta, PlainType, TableMeta};
use crate::{ProxyError, Result};

/// Name of the physical encrypted row-id column.
pub const ROW_ID_COLUMN: &str = "row_id";
/// Name of the physical auxiliary all-ones column.
pub const AUX_COLUMN: &str = "sdb_s";
/// Suffix of the deterministic-tag companion column of a sensitive VARCHAR.
pub const TAG_SUFFIX: &str = "_tag";
/// Suffix of SIES-payload companion columns (sensitive VARCHAR).
pub const SIES_SUFFIX: &str = "_sies";

/// Upload options.
#[derive(Debug, Clone, Copy)]
pub struct UploadOptions {
    /// Number of worker threads for row encryption (1 = sequential).
    pub threads: usize,
}

impl Default for UploadOptions {
    fn default() -> Self {
        UploadOptions { threads: 1 }
    }
}

/// Statistics about one upload.
#[derive(Debug, Clone, Default)]
pub struct UploadStats {
    /// Number of rows encrypted.
    pub rows: usize,
    /// Approximate plaintext size.
    pub plaintext_bytes: usize,
    /// Approximate encrypted size at the SP.
    pub encrypted_bytes: usize,
    /// Key-store size after the upload.
    pub keystore_bytes: usize,
    /// Wall-clock encryption time.
    pub duration: Duration,
}

/// The product of an upload: the physical table to ship to the SP, the logical
/// metadata the proxy keeps, and the stats the demo displays.
#[derive(Debug, Clone)]
pub struct EncryptedUpload {
    /// The encrypted physical table (goes to the SP).
    pub table: Table,
    /// The logical metadata (stays at the proxy).
    pub meta: TableMeta,
    /// Upload statistics.
    pub stats: UploadStats,
}

/// The upload encryptor.
pub struct Encryptor;

impl Encryptor {
    /// Encrypts `table` (whose schema carries the sensitivity choices) and registers
    /// the necessary keys in `keystore`.
    ///
    /// The column keys are drawn from `drbg`, and each encryption worker's
    /// row ids and nonces from a fork of it.
    pub fn encrypt_table(
        keystore: &mut KeyStore,
        table: &Table,
        options: UploadOptions,
        drbg: &mut Drbg,
    ) -> Result<EncryptedUpload> {
        let started = Instant::now();
        let meta = TableMeta::from_schema(table.name(), table.schema());

        // Validate sensitive column types up front.
        for column in &meta.columns {
            if column.sensitive {
                column.plain_type()?;
            }
        }

        let numeric_sensitive: Vec<String> = meta
            .columns
            .iter()
            .filter(|c| c.is_numeric_sensitive())
            .map(|c| c.name.clone())
            .collect();
        keystore.register_table(drbg, table.name(), &numeric_sensitive)?;

        let source = table.scan();
        let logical = source.columns();
        let rows = table.num_rows();
        let threads = options.threads.max(1).min(rows.max(1));

        let encrypted_columns = if threads <= 1 || rows < 64 {
            encrypt_batch(keystore, &meta, logical, rows, &mut drbg.fork())?
        } else {
            let chunk_size = rows.div_ceil(threads);
            let keystore: &KeyStore = keystore;
            let meta = &meta;
            let results: Vec<Result<Vec<Part>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..rows)
                    .step_by(chunk_size)
                    .map(|start| {
                        let len = chunk_size.min(rows - start);
                        let chunk: Vec<Column> =
                            logical.iter().map(|c| c.slice(start, len)).collect();
                        let mut worker_rng = drbg.fork();
                        scope.spawn(move || {
                            encrypt_batch(keystore, meta, chunk.as_slice(), len, &mut worker_rng)
                        })
                    })
                    .collect();
                (handles.into_iter())
                    .map(|handle| handle.join().expect("encryption worker panicked"))
                    .collect()
            });
            let mut chunks = (results.into_iter())
                .map(|chunk| chunk.map(Vec::into_iter))
                .collect::<Result<Vec<_>>>()?;
            let columns = chunks.first().map_or(0, ExactSizeIterator::len);
            (0..columns)
                .map(|_| {
                    let column = chunks.iter_mut().map(|chunk| chunk.next());
                    Part::concat(column.map(|part| part.expect("the same parts every chunk")))
                })
                .collect()
        };

        // Each public column is the staged one: a window onto its buffer.
        let public = (meta.columns.iter().zip(logical))
            .filter(|(column, _)| passes_through(column))
            .map(|(_, column)| column.clone());
        let mut encrypted = Table::new(table.name(), physical_schema(&meta));
        encrypted.append_columns(&into_columns(encrypted_columns, public))?;

        let stats = UploadStats {
            rows: table.num_rows(),
            plaintext_bytes: table.approx_size_bytes(),
            encrypted_bytes: encrypted.approx_size_bytes(),
            keystore_bytes: keystore.approx_size_bytes(),
            duration: started.elapsed(),
        };
        Ok(EncryptedUpload {
            table: encrypted,
            meta,
            stats,
        })
    }
}

impl Encryptor {
    /// Encrypts a batch of logical rows for a table whose keys are already
    /// registered (used by the proxy's INSERT path): the SP table's columns,
    /// in [`physical_schema`] order, to append. A public column's values must
    /// have its declared type; they move into their columns.
    pub fn encrypt_rows(
        keystore: &KeyStore,
        meta: &TableMeta,
        mut rows: Vec<Vec<Value>>,
        rng: &mut Drbg,
    ) -> Result<Vec<Column>> {
        if let Some(row) = rows.iter().find(|row| row.len() != meta.columns.len()) {
            return Err(ProxyError::Storage(StorageError::ArityMismatch {
                expected: meta.columns.len(),
                found: row.len(),
            }));
        }
        // The public columns: the rows' own values, moved into one buffer.
        let public = meta.columns.iter().filter(|c| passes_through(c)).count();
        let mut types = Vec::with_capacity(public);
        let mut values = Vec::with_capacity(public * rows.len());
        for (ci, column) in meta.columns.iter().enumerate() {
            if passes_through(column) {
                types.push(column.data_type);
                let cells = rows
                    .iter_mut()
                    .map(|row| std::mem::replace(&mut row[ci], Value::Null));
                values.extend(cells);
            }
        }
        let public = Column::split_column_major(&types, rows.len(), values)?;
        let parts = encrypt_batch(keystore, meta, rows.as_slice(), rows.len(), rng)?;
        Ok(into_columns(parts, public))
    }
}

/// Whether a logical column is stored as it is: a public one.
fn passes_through(column: &ColumnMeta) -> bool {
    !column.is_numeric_sensitive() && !column.is_string_sensitive()
}

/// The logical cells [`encrypt_batch`] reads: a staged table's columns or an
/// INSERT's rows.
trait LogicalCells {
    /// The cell of logical column `column` in row `row`.
    fn cell(&self, column: usize, row: usize) -> Cow<'_, Value>;
}

impl LogicalCells for [Column] {
    fn cell(&self, column: usize, row: usize) -> Cow<'_, Value> {
        self[column].value(row)
    }
}

impl LogicalCells for [Vec<Value>] {
    fn cell(&self, column: usize, row: usize) -> Cow<'_, Value> {
        Cow::Borrowed(&self[row][column])
    }
}

/// Column-at-a-time encryption of the `rows` rows of `logical` (columns in
/// `meta` order): the parts of the SP table's columns in [`physical_schema`]
/// order, to which [`into_columns`] adds the public ones. Byte-identical to
/// mapping [`encrypt_row`] over the rows with the same RNG, but each row id is
/// reduced once for all its cells and each column is encrypted in one batch
/// that inverts nothing (see [`sdb_crypto::batch`]), straight into the limbs
/// of a [`ShareColumn`].
///
/// Phase 1 performs every RNG draw row by row in the scalar order (row id,
/// encrypted row id, then a SIES payload per non-NULL sensitive VARCHAR cell,
/// in column order). Phase 2 is RNG-free and batches the share arithmetic per
/// column.
fn encrypt_batch(
    keystore: &KeyStore,
    meta: &TableMeta,
    logical: &(impl LogicalCells + ?Sized),
    rows: usize,
    rng: &mut Drbg,
) -> Result<Vec<Part>> {
    let system = keystore.system();
    let codec = SignedCodec::new(system);
    let ciphers = keystore.table_ciphers(&meta.name)?;
    let row_id_gen = keystore.row_id_generator();
    let payload_cipher = keystore.payload_cipher();
    let tagger = keystore.tagger();

    // Phase 1: RNG draws, in the exact order the scalar path makes them;
    // each sensitive VARCHAR column's tags beside its payloads.
    let strings: Vec<(usize, String)> = (meta.columns.iter().enumerate())
        .filter(|(_, column)| column.is_string_sensitive())
        .map(|(ci, column)| (ci, domain_of(column)))
        .collect();
    let mut row_ids = Vec::with_capacity(rows);
    let mut encrypted_row_ids = Vec::with_capacity(rows);
    let per_string =
        || -> Vec<Vec<Value>> { (strings.iter()).map(|_| Vec::with_capacity(rows)).collect() };
    let (mut tags, mut payloads) = (per_string(), per_string());
    for row in 0..rows {
        let row_id = row_id_gen.generate(rng, system);
        encrypted_row_ids.push(Value::EncryptedRowId(row_id_gen.encrypt(rng, &row_id)));
        row_ids.push(row_id);
        for (j, (ci, domain)) in strings.iter().enumerate() {
            let (tag, payload) = match &*logical.cell(*ci, row) {
                Value::Null => (Value::Null, Value::Null),
                Value::Str(s) => (
                    Value::Tag(tagger.tag_str(domain, s)),
                    Value::EncryptedRowId(EncryptedRowId(
                        payload_cipher.encrypt_bytes(rng, s.as_bytes()),
                    )),
                ),
                other => {
                    return Err(ProxyError::Storage(StorageError::TypeMismatch {
                        expected: "VARCHAR".into(),
                        found: format!("{other:?}"),
                    }))
                }
            };
            tags[j].push(tag);
            payloads[j].push(payload);
        }
    }

    // Phase 2a: every row id reduced once for all its cells, then the
    // auxiliary all-ones column for every row at once.
    let row_exponents = system.row_exponents(row_ids.iter().map(RowId::value));
    let width = system.modulus().limb_count();
    let one = BigUint::from(1u32);
    let ones = std::iter::repeat_n(&one, rows);
    let aux = encrypt_column(system, &ciphers.aux, &row_exponents, 0..rows, ones);
    let mut out = Vec::with_capacity(2 + meta.columns.len() + strings.len());
    out.push(Part::Values(DataType::EncryptedRowId, encrypted_row_ids));
    out.push(Part::Shares(ShareColumn::from_parts(
        width,
        aux,
        Bitmap::new_set(rows),
    )));

    // Phase 2b: each sensitive numeric column as one batch over its non-NULL
    // rows, whose ciphertexts land in their rows' limbs (a NULL's stay zero).
    let (mut tags, mut payloads) = (tags.into_iter(), payloads.into_iter());
    for (ci, column) in meta.columns.iter().enumerate() {
        if column.is_string_sensitive() {
            let tags = tags.next().expect("tags drawn in phase 1");
            let payloads = payloads.next().expect("payloads drawn in phase 1");
            out.push(Part::Values(DataType::Tag, tags));
            out.push(Part::Values(DataType::EncryptedRowId, payloads));
            continue;
        }
        if !column.is_numeric_sensitive() {
            out.push(Part::Public);
            continue;
        }
        let cipher =
            ciphers
                .columns
                .get(&column.name)
                .ok_or_else(|| ProxyError::UnknownColumn {
                    name: column.name.clone(),
                })?;
        let plain = PlainType::from_data_type(column.data_type)?;
        let mut present_rows: Vec<usize> = Vec::with_capacity(rows);
        let mut residues: Vec<BigUint> = Vec::with_capacity(rows);
        for row in 0..rows {
            let value = logical.cell(ci, row);
            if !value.is_null() {
                let units = (value.as_scaled_i128(plain.scale())).map_err(ProxyError::Storage)?;
                residues.push(codec.encode(units)?);
                present_rows.push(row);
            }
        }
        let picked = present_rows.iter().copied();
        let limbs = encrypt_column(system, cipher, &row_exponents, picked, residues.iter());
        let shares = match present_rows.len() == rows {
            true => ShareColumn::from_parts(width, limbs, Bitmap::new_set(rows)),
            false => {
                let mut validity = Bitmap::new_clear(rows);
                let mut scattered = vec![0; rows * width];
                for (&row, cell) in present_rows.iter().zip(limbs.chunks_exact(width)) {
                    scattered[row * width..][..width].copy_from_slice(cell);
                    validity.set(row, true);
                }
                ShareColumn::from_parts(width, scattered, validity)
            }
        };
        out.push(Part::Shares(shares));
    }
    Ok(out)
}

/// One physical column of an [`encrypt_batch`] chunk.
enum Part {
    /// A public column: the logical column passes through.
    Public,
    /// Row ids, tags or SIES payloads.
    Values(DataType, Vec<Value>),
    /// `sdb_s` or a sensitive numeric column.
    Shares(ShareColumn),
}

impl Part {
    /// The same column of every chunk, in chunk order, as one part: each
    /// buffer is allocated once, at the size of the whole column.
    fn concat(parts: impl Iterator<Item = Part>) -> Part {
        let parts: Vec<Part> = parts.collect();
        match parts.first() {
            Some(Part::Values(data_type, _)) => {
                let data_type = *data_type;
                let mut values = Vec::with_capacity(parts.iter().map(Part::rows).sum());
                for part in parts {
                    if let Part::Values(_, more) = part {
                        values.extend(more);
                    }
                }
                Part::Values(data_type, values)
            }
            Some(Part::Shares(first)) => {
                let (width, rows) = (first.width(), parts.iter().map(Part::rows).sum());
                let mut limbs = Vec::with_capacity(rows * width);
                let mut validity = Bitmap::new_clear(rows);
                let mut at = 0;
                for part in &parts {
                    if let Part::Shares(more) = part {
                        limbs.extend_from_slice(more.words());
                        for row in 0..more.len() {
                            validity.set(at + row, more.is_valid(row));
                        }
                        at += more.len();
                    }
                }
                Part::Shares(ShareColumn::from_parts(width, limbs, validity))
            }
            _ => Part::Public,
        }
    }

    /// Rows of a part that holds cells.
    fn rows(&self) -> usize {
        match self {
            Part::Public => 0,
            Part::Values(_, values) => values.len(),
            Part::Shares(shares) => shares.len(),
        }
    }
}

/// The SP table's columns from [`encrypt_batch`]'s parts, each
/// [`Part::Public`] taken in order from `public`.
fn into_columns(parts: Vec<Part>, public: impl IntoIterator<Item = Column>) -> Vec<Column> {
    let mut public = public.into_iter();
    (parts.into_iter())
        .map(|part| match part {
            Part::Public => public.next().expect("a public column per part"),
            Part::Values(data_type, values) => Column::from_values_unchecked(data_type, values),
            Part::Shares(shares) => Column::from_shares(DataType::Encrypted, shares),
        })
        .collect()
}

/// Builds the physical (SP-side) schema for a logical table.
pub fn physical_schema(meta: &TableMeta) -> Schema {
    let mut defs = vec![
        ColumnDef {
            name: ROW_ID_COLUMN.to_string(),
            data_type: DataType::EncryptedRowId,
            sensitivity: Sensitivity::Sensitive,
        },
        ColumnDef {
            name: AUX_COLUMN.to_string(),
            data_type: DataType::Encrypted,
            sensitivity: Sensitivity::Sensitive,
        },
    ];
    for column in &meta.columns {
        if column.is_numeric_sensitive() {
            defs.push(ColumnDef {
                name: column.name.clone(),
                data_type: DataType::Encrypted,
                sensitivity: Sensitivity::Sensitive,
            });
        } else if column.is_string_sensitive() {
            defs.push(ColumnDef {
                name: format!("{}{TAG_SUFFIX}", column.name),
                data_type: DataType::Tag,
                sensitivity: Sensitivity::Sensitive,
            });
            defs.push(ColumnDef {
                name: format!("{}{SIES_SUFFIX}", column.name),
                data_type: DataType::EncryptedRowId,
                sensitivity: Sensitivity::Sensitive,
            });
        } else {
            defs.push(ColumnDef {
                name: column.name.clone(),
                data_type: column.data_type,
                sensitivity: Sensitivity::Public,
            });
        }
    }
    Schema::new(defs)
}

/// The scalar row-at-a-time reference path. Production traffic goes through
/// [`encrypt_rows_batched`]; this stays as the executable specification the
/// batched path is tested byte-identical against.
#[cfg(test)]
fn encrypt_row(
    keystore: &KeyStore,
    meta: &TableMeta,
    row: &[Value],
    rng: &mut Drbg,
) -> Result<Vec<Value>> {
    let system = keystore.system();
    let codec = SignedCodec::new(system);
    let table_keys = keystore.table_keys(&meta.name)?;
    let row_id_gen = keystore.row_id_generator();
    let payload_cipher = keystore.payload_cipher();
    let tagger = keystore.tagger();

    // Fresh secret row id, stored encrypted.
    let row_id: RowId = row_id_gen.generate(rng, system);
    let enc_row_id = row_id_gen.encrypt(rng, &row_id);

    // Auxiliary all-ones column.
    let aux_item_key = gen_item_key(system, &table_keys.aux, row_id.value());
    let aux_value = encrypt_value(system, &BigUint::from(1u32), &aux_item_key);

    let mut out = vec![
        Value::EncryptedRowId(enc_row_id),
        Value::Encrypted(aux_value),
    ];

    for (column, value) in meta.columns.iter().zip(row.iter()) {
        if column.is_numeric_sensitive() {
            let key =
                table_keys
                    .columns
                    .get(&column.name)
                    .ok_or_else(|| ProxyError::UnknownColumn {
                        name: column.name.clone(),
                    })?;
            let encrypted = match value {
                Value::Null => Value::Null,
                other => {
                    let plain = PlainType::from_data_type(column.data_type)?;
                    let units = other
                        .as_scaled_i128(plain.scale())
                        .map_err(ProxyError::Storage)?;
                    let residue = codec.encode(units)?;
                    let item_key = gen_item_key(system, key, row_id.value());
                    Value::Encrypted(encrypt_value(system, &residue, &item_key))
                }
            };
            out.push(encrypted);
        } else if column.is_string_sensitive() {
            match value {
                Value::Null => {
                    out.push(Value::Null);
                    out.push(Value::Null);
                }
                Value::Str(s) => {
                    out.push(Value::Tag(tagger.tag_str(&domain_of(column), s)));
                    out.push(Value::EncryptedRowId(sdb_crypto::EncryptedRowId(
                        payload_cipher.encrypt_bytes(rng, s.as_bytes()),
                    )));
                }
                other => {
                    return Err(ProxyError::Storage(
                        sdb_storage::StorageError::TypeMismatch {
                            expected: "VARCHAR".into(),
                            found: format!("{other:?}"),
                        },
                    ))
                }
            }
        } else {
            out.push(value.clone());
        }
    }
    Ok(out)
}

/// The tag domain for a column. Tags are scoped per *value domain*, not per column
/// key, so that equal values in join-compatible columns produce equal tags.
pub fn domain_of(column: &crate::meta::ColumnMeta) -> String {
    match column.data_type {
        DataType::Varchar => "sdb:str".to_string(),
        DataType::Date => "sdb:date".to_string(),
        _ => "sdb:num".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sdb_crypto::share::decrypt_value;
    use sdb_crypto::KeyConfig;
    use sdb_storage::ColumnDef;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("salary", DataType::Decimal { scale: 2 }),
            ColumnDef::sensitive("hired", DataType::Date),
            ColumnDef::sensitive("notes", DataType::Varchar),
            ColumnDef::public("dept", DataType::Varchar),
        ]);
        let mut t = Table::new("emp", schema);
        t.insert_row(vec![
            Value::Int(1),
            Value::Decimal {
                units: 123_456,
                scale: 2,
            },
            Value::Date(9_000),
            Value::Str("top secret".into()),
            Value::Str("eng".into()),
        ])
        .unwrap();
        t.insert_row(vec![
            Value::Int(2),
            Value::Decimal {
                units: -500,
                scale: 2,
            },
            Value::Date(10_000),
            Value::Str("classified".into()),
            Value::Str("ops".into()),
        ])
        .unwrap();
        t.insert_row(vec![
            Value::Int(3),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Str("hr".into()),
        ])
        .unwrap();
        t
    }

    fn upload(options: UploadOptions) -> (KeyStore, EncryptedUpload) {
        let mut drbg = Drbg::seed_from_u64(11);
        let mut ks = KeyStore::generate(KeyConfig::TEST, &mut drbg).unwrap();
        let up = Encryptor::encrypt_table(&mut ks, &sample_table(), options, &mut drbg).unwrap();
        (ks, up)
    }

    #[test]
    fn physical_schema_shape() {
        let (_, up) = upload(UploadOptions::default());
        let names: Vec<&str> = up
            .table
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "row_id",
                "sdb_s",
                "id",
                "salary",
                "hired",
                "notes_tag",
                "notes_sies",
                "dept"
            ]
        );
        assert_eq!(up.table.num_rows(), 3);
        assert_eq!(
            up.table.schema().column("salary").unwrap().data_type,
            DataType::Encrypted
        );
        assert_eq!(
            up.table.schema().column("id").unwrap().data_type,
            DataType::Int
        );
    }

    #[test]
    fn no_plaintext_of_sensitive_values_at_sp() {
        let (_, up) = upload(UploadOptions::default());
        // The encrypted table must not contain the plaintext salary units anywhere.
        let json = serde_json::to_string(&up.table).unwrap();
        assert!(!json.contains("123456"), "plaintext salary leaked");
        assert!(!json.contains("top secret"), "plaintext note leaked");
        // Public values remain visible.
        assert!(json.contains("eng"));
    }

    #[test]
    fn sensitive_values_decrypt_with_keystore() {
        let (ks, up) = upload(UploadOptions::default());
        let system = ks.system();
        let codec = SignedCodec::new(system);
        let row_gen = ks.row_id_generator();
        let salary_key = ks.column_key("emp", "salary").unwrap();

        let batch = up.table.scan();
        for row in 0..2 {
            let enc_rid = batch
                .column_by_name("row_id")
                .unwrap()
                .value(row)
                .into_owned();
            let rid = row_gen
                .decrypt(enc_rid.as_encrypted_row_id().unwrap())
                .unwrap();
            let salary_e = batch
                .column_by_name("salary")
                .unwrap()
                .value(row)
                .into_owned();
            let ik = gen_item_key(system, salary_key, rid.value());
            let units = codec
                .decode(&decrypt_value(
                    system,
                    salary_e.as_encrypted().unwrap(),
                    &ik,
                ))
                .unwrap();
            let expected = if row == 0 { 123_456 } else { -500 };
            assert_eq!(units, expected);
        }
        // NULL stays NULL.
        assert!(batch.column_by_name("salary").unwrap().value(2).is_null());
    }

    #[test]
    fn aux_column_decrypts_to_one() {
        let (ks, up) = upload(UploadOptions::default());
        let system = ks.system();
        let row_gen = ks.row_id_generator();
        let aux_key = &ks.table_keys("emp").unwrap().aux;
        let batch = up.table.scan();
        for row in 0..3 {
            let rid = row_gen
                .decrypt(
                    batch
                        .column_by_name("row_id")
                        .unwrap()
                        .value(row)
                        .as_encrypted_row_id()
                        .unwrap(),
                )
                .unwrap();
            let s_e = batch.column_by_name("sdb_s").unwrap().value(row);
            let ik = gen_item_key(system, aux_key, rid.value());
            assert_eq!(
                decrypt_value(system, s_e.as_encrypted().unwrap(), &ik),
                BigUint::from(1u32)
            );
        }
    }

    #[test]
    fn varchar_tags_and_payloads() {
        let (ks, up) = upload(UploadOptions::default());
        let batch = up.table.scan();
        let tagger = ks.tagger();
        let cipher = ks.payload_cipher();
        let tag = batch.column_by_name("notes_tag").unwrap().value(0);
        assert_eq!(*tag, Value::Tag(tagger.tag_str("sdb:str", "top secret")));
        let payload = batch.column_by_name("notes_sies").unwrap().value(0);
        let decrypted = cipher
            .decrypt_bytes(&payload.as_encrypted_row_id().unwrap().0)
            .unwrap();
        assert_eq!(String::from_utf8(decrypted).unwrap(), "top secret");
    }

    #[test]
    fn parallel_upload_matches_row_count_and_decrypts() {
        // Build a larger table to exercise the parallel path.
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("v", DataType::Int),
        ]);
        let mut t = Table::new("big", schema);
        for i in 0..300 {
            t.insert_row(vec![Value::Int(i), Value::Int(i * 7)])
                .unwrap();
        }
        let mut drbg = Drbg::seed_from_u64(13);
        let mut ks = KeyStore::generate(KeyConfig::TEST, &mut drbg).unwrap();
        let options = UploadOptions { threads: 4 };
        let up = Encryptor::encrypt_table(&mut ks, &t, options, &mut drbg).unwrap();
        assert_eq!(up.table.num_rows(), 300);

        // Spot-check decryption of a few rows.
        let system = ks.system();
        let codec = SignedCodec::new(system);
        let row_gen = ks.row_id_generator();
        let key = ks.column_key("big", "v").unwrap();
        let batch = up.table.scan();
        for row in [0usize, 137, 299] {
            let rid = row_gen
                .decrypt(
                    batch
                        .column_by_name("row_id")
                        .unwrap()
                        .value(row)
                        .as_encrypted_row_id()
                        .unwrap(),
                )
                .unwrap();
            let v_e = batch.column_by_name("v").unwrap().value(row);
            let ik = gen_item_key(system, key, rid.value());
            let units = codec
                .decode(&decrypt_value(system, v_e.as_encrypted().unwrap(), &ik))
                .unwrap();
            let id = batch
                .column_by_name("id")
                .unwrap()
                .value(row)
                .as_i64()
                .unwrap();
            assert_eq!(units, i128::from(id) * 7);
        }
    }

    /// A table whose first rows are NULL in every sensitive column, so a
    /// worker's whole chunk of a column may be NULL.
    fn null_leading_table(rows: i64) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::sensitive("amount", DataType::Decimal { scale: 2 }),
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("note", DataType::Varchar),
            ColumnDef::sensitive("day", DataType::Date),
            ColumnDef::public("label", DataType::Varchar),
        ]);
        let mut table = Table::new("ledger", schema);
        for i in 0..rows {
            let null_or = |cut: i64, value: Value| if i < cut { Value::Null } else { value };
            table
                .insert_row(vec![
                    null_or(
                        45,
                        Value::Decimal {
                            units: i * 101 - 3_000,
                            scale: 2,
                        },
                    ),
                    Value::Int(i),
                    null_or(3, Value::Str(format!("note {}", i % 9))),
                    null_or(1, Value::Date(9_000 + i as i32)),
                    null_or(2, Value::Str(format!("l{i}"))),
                ])
                .unwrap();
        }
        table
    }

    /// The scalar reference of an upload of `table` at `threads`: the key
    /// registration's draws, then one fork per worker chunk, each chunk's
    /// rows through [`encrypt_row`] in order.
    fn scalar_upload(
        mut keystore: KeyStore,
        table: &Table,
        threads: usize,
        mut drbg: Drbg,
    ) -> Vec<Vec<Value>> {
        let meta = TableMeta::from_schema(table.name(), table.schema());
        let numeric: Vec<String> = (meta.columns.iter())
            .filter(|c| c.is_numeric_sensitive())
            .map(|c| c.name.clone())
            .collect();
        keystore
            .register_table(&mut drbg, table.name(), &numeric)
            .unwrap();
        let rows: Vec<Vec<Value>> = table.scan().rows().collect();
        let chunk = match threads <= 1 || rows.len() < 64 {
            true => rows.len().max(1),
            false => rows.len().div_ceil(threads),
        };
        let mut out = Vec::new();
        for chunk in rows.chunks(chunk) {
            let mut rng = drbg.fork();
            for row in chunk {
                out.push(encrypt_row(&keystore, &meta, row, &mut rng).unwrap());
            }
        }
        out
    }

    /// The columnar upload is byte-identical to the scalar row reference
    /// on the sequential and the threaded path, NULL-leading columns
    /// included; its public columns are the staged buffers, and its share
    /// columns are limbs.
    #[test]
    fn batched_encryption_is_byte_identical_to_scalar_rows() {
        let mut drbg = Drbg::seed_from_u64(23);
        let base = KeyStore::generate(KeyConfig::TEST, &mut drbg).unwrap();
        for (rows, threads) in [(3, 1), (150, 1), (150, 4), (67, 4)] {
            let table = null_leading_table(rows);
            let mut keystore = base.clone();
            let options = UploadOptions { threads };
            let up = Encryptor::encrypt_table(&mut keystore, &table, options, &mut drbg.clone())
                .unwrap();
            let got: Vec<Vec<Value>> = up.table.scan().rows().collect();
            let expected = scalar_upload(base.clone(), &table, threads, drbg.clone());
            assert_eq!(got, expected, "{rows} rows, {threads} threads");
            for name in ["id", "label"] {
                let staged = table.column(name).unwrap();
                assert!(up.table.column(name).unwrap().shares_buffer(staged));
            }
            for name in ["sdb_s", "amount", "day"] {
                assert!(up.table.column(name).unwrap().shares().is_some(), "{name}");
            }
        }
    }

    /// The INSERT path's columns append to an upload exactly as the scalar
    /// rows of the same draws insert.
    #[test]
    fn inserted_columns_are_byte_identical_to_scalar_rows() {
        let table = null_leading_table(50);
        let meta = TableMeta::from_schema(table.name(), table.schema());
        let mut keystore =
            KeyStore::generate(KeyConfig::TEST, &mut Drbg::seed_from_u64(3)).unwrap();
        Encryptor::encrypt_table(
            &mut keystore,
            &table,
            UploadOptions::default(),
            &mut Drbg::seed_from_u64(4),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = table.scan().rows().skip(40).collect();
        let columns =
            Encryptor::encrypt_rows(&keystore, &meta, rows.clone(), &mut Drbg::seed_from_u64(5))
                .unwrap();
        let mut appended = Table::new("ledger", physical_schema(&meta));
        appended.append_columns(&columns).unwrap();
        let mut rng = Drbg::seed_from_u64(5);
        let expected: Vec<Vec<Value>> = (rows.iter())
            .map(|row| encrypt_row(&keystore, &meta, row, &mut rng).unwrap())
            .collect();
        assert_eq!(appended.scan().rows().collect::<Vec<_>>(), expected);

        // A public column's values are type-checked; a short row is refused.
        let mut bad = rows[0].clone();
        bad[1] = Value::Str("one".into());
        assert!(Encryptor::encrypt_rows(&keystore, &meta, vec![bad], &mut rng).is_err());
        assert!(
            Encryptor::encrypt_rows(&keystore, &meta, vec![rows[0][..4].to_vec()], &mut rng)
                .is_err()
        );
    }

    /// ANALYZE of an upload: the row ids, the SIES payloads and the shares
    /// are all distinct, and each column's estimate says so within the
    /// sketch's error; the tags of nine notes count nine.
    #[test]
    fn an_uploads_row_ids_and_payloads_count_as_distinct() {
        let table = null_leading_table(400);
        let mut drbg = Drbg::seed_from_u64(29);
        let mut keystore = KeyStore::generate(KeyConfig::TEST, &mut drbg).unwrap();
        let up =
            Encryptor::encrypt_table(&mut keystore, &table, UploadOptions::default(), &mut drbg)
                .unwrap();
        let stats = sdb_storage::analyze_table(&up.table);
        for (name, non_null) in [
            ("row_id", 400.0),
            ("sdb_s", 400.0),
            ("note_sies", 397.0),
            ("amount", 355.0),
        ] {
            let column = stats.column(name).unwrap();
            let err = (column.distinct - non_null).abs() / non_null;
            assert!(
                err < 0.20,
                "{name}: distinct {} of {non_null}",
                column.distinct
            );
        }
        let tags = stats.column("note_tag").unwrap();
        assert!((tags.distinct - 9.0).abs() < 1.0, "{}", tags.distinct);
    }

    #[test]
    fn upload_stats_populated() {
        let (_, up) = upload(UploadOptions::default());
        assert_eq!(up.stats.rows, 3);
        assert!(up.stats.encrypted_bytes > up.stats.plaintext_bytes);
        assert!(up.stats.keystore_bytes > 0);
        assert_eq!(
            up.meta.sensitive_columns(),
            vec!["salary", "hired", "notes"]
        );
    }

    /// A fixture seed sets only the upload generator's key: two uploads
    /// under `Drbg::seed_from_u64(11)` agree (so the comparison can see a
    /// seeded draw), and an OS-keyed upload shares no column key and no row
    /// id with them, on the sequential and the threaded path.
    #[test]
    fn a_drbg_upload_draws_nothing_from_the_fixture_seed() {
        let mut table = Table::new(
            "wide",
            Schema::new(vec![ColumnDef::sensitive("v", DataType::Int)]),
        );
        for i in 0..100 {
            table.insert_row(vec![Value::Int(i)]).unwrap();
        }
        let base = KeyStore::generate(KeyConfig::TEST, &mut Drbg::seed_from_u64(11)).unwrap();
        for threads in [1, 4] {
            let upload = |mut drbg: Drbg| {
                let mut ks = base.clone();
                let options = UploadOptions { threads };
                let up = Encryptor::encrypt_table(&mut ks, &table, options, &mut drbg).unwrap();
                let key = ks.column_key("wide", "v").unwrap().clone();
                let row_ids = up
                    .table
                    .scan()
                    .column_by_name(ROW_ID_COLUMN)
                    .unwrap()
                    .clone();
                (
                    key,
                    (0..100)
                        .map(|row| row_ids.value(row).into_owned())
                        .collect::<Vec<_>>(),
                )
            };
            let (seeded_key, seeded_ids) = upload(Drbg::seed_from_u64(11));
            assert_eq!(
                upload(Drbg::seed_from_u64(11)),
                (seeded_key.clone(), seeded_ids.clone())
            );
            let (key, ids) = upload(Drbg::from_os().unwrap());
            assert_ne!(key, seeded_key, "threads {threads}");
            assert!(
                ids.iter().all(|id| !seeded_ids.contains(id)),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn rejects_sensitive_string_with_non_string_value() {
        let schema = Schema::new(vec![ColumnDef::sensitive("notes", DataType::Varchar)]);
        let mut t = Table::new("bad", schema);
        // Insert a NULL row first so construction succeeds, then force a bad value
        // through the untyped path by building the row vector manually.
        t.insert_row(vec![Value::Null]).unwrap();
        let mut drbg = Drbg::seed_from_u64(17);
        let mut ks = KeyStore::generate(KeyConfig::TEST, &mut drbg).unwrap();
        let options = UploadOptions::default();
        assert!(Encryptor::encrypt_table(&mut ks, &t, options, &mut drbg).is_ok());
    }
}
