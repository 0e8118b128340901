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
//!    id (`v_e = v·v_k⁻¹ mod n`);
//! 4. replaces every sensitive VARCHAR column with a deterministic equality tag
//!    plus a SIES-encrypted payload;
//! 5. copies insensitive columns through unchanged.
//!
//! Row encryption is embarrassingly parallel (each row needs a handful of modular
//! exponentiations), so large uploads are chunked across threads with crossbeam.

use std::time::{Duration, Instant};

use num_bigint::BigUint;
use rand::rngs::StdRng;

use sdb_crypto::batch::{encrypt_values, gen_item_keys};
#[cfg(test)]
use sdb_crypto::share::{encrypt_value, gen_item_key};
use sdb_crypto::sies::SiesCiphertext;
use sdb_crypto::{EncryptedRowId, RowId, SignedCodec};
use sdb_storage::{ColumnDef, DataType, Schema, Sensitivity, Table, Value};

use crate::keystore::KeyStore;
use crate::meta::{PlainType, TableMeta};
use crate::{ProxyError, Result};

/// Name of the physical encrypted row-id column.
pub const ROW_ID_COLUMN: &str = "row_id";
/// Name of the physical auxiliary all-ones column.
pub const AUX_COLUMN: &str = "sdb_s";
/// Suffix of deterministic-tag companion columns.
pub const TAG_SUFFIX: &str = "_tag";
/// Suffix of SIES-payload companion columns (sensitive VARCHAR).
pub const SIES_SUFFIX: &str = "_sies";

/// Upload options.
#[derive(Debug, Clone, Copy)]
pub struct UploadOptions {
    /// Also materialise deterministic equality tags for sensitive *numeric* columns
    /// (the CryptDB-DET-style fast path measured in ablation E7). Sensitive VARCHAR
    /// columns always get tags — equality is the only operation they support.
    pub deterministic_tags: bool,
    /// Number of worker threads for row encryption (1 = sequential).
    pub threads: usize,
}

impl Default for UploadOptions {
    fn default() -> Self {
        UploadOptions {
            deterministic_tags: false,
            threads: 1,
        }
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
    pub fn encrypt_table(
        keystore: &mut KeyStore,
        table: &Table,
        options: UploadOptions,
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
        let mut rng = keystore.derived_rng(fxhash(table.name()));
        keystore.register_table(&mut rng, table.name(), &numeric_sensitive)?;

        let physical_schema = physical_schema(&meta, options);
        let mut encrypted = Table::new(table.name(), physical_schema.clone());

        let source = table.scan();
        let rows: Vec<Vec<Value>> = source.rows().collect();
        let threads = options.threads.max(1).min(rows.len().max(1));

        let encrypted_rows: Vec<Vec<Value>> = if threads <= 1 || rows.len() < 64 {
            let mut worker_rng = keystore.derived_rng(fxhash(table.name()) ^ 1);
            encrypt_rows_batched(keystore, &meta, options, &rows, &mut worker_rng)?
        } else {
            let chunk_size = rows.len().div_ceil(threads);
            let chunks: Vec<&[Vec<Value>]> = rows.chunks(chunk_size).collect();
            let mut results: Vec<Result<Vec<Vec<Value>>>> = Vec::new();
            let keystore_ref: &KeyStore = &*keystore;
            let meta_ref = &meta;
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (i, chunk) in chunks.iter().enumerate() {
                    handles.push(scope.spawn(move || {
                        let mut worker_rng = keystore_ref
                            .derived_rng(fxhash(meta_ref.name.as_str()) ^ (i as u64 + 2));
                        encrypt_rows_batched(
                            keystore_ref,
                            meta_ref,
                            options,
                            chunk,
                            &mut worker_rng,
                        )
                    }));
                }
                for handle in handles {
                    results.push(handle.join().expect("encryption worker panicked"));
                }
            });
            let mut all = Vec::with_capacity(rows.len());
            for r in results {
                all.extend(r?);
            }
            all
        };

        for row in encrypted_rows {
            encrypted.insert_row(row)?;
        }

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
    /// registered (used by the proxy's INSERT path).
    pub fn encrypt_rows(
        keystore: &KeyStore,
        meta: &TableMeta,
        options: UploadOptions,
        rows: &[Vec<Value>],
        rng: &mut StdRng,
    ) -> Result<Vec<Vec<Value>>> {
        encrypt_rows_batched(keystore, meta, options, rows, rng)
    }
}

/// All random material one row consumes, drawn in phase 1 in exactly the
/// per-row order of [`encrypt_row`] so batching never shifts the RNG stream.
struct RowDraws {
    row_id: RowId,
    enc_row_id: EncryptedRowId,
    /// SIES payloads for the row's non-NULL sensitive VARCHAR columns, in
    /// column order.
    payloads: Vec<SiesCiphertext>,
}

/// Column-at-a-time row encryption: byte-identical to mapping [`encrypt_row`]
/// over `rows` with the same RNG, but the modular inversions behind
/// `encrypt_value` collapse into one Montgomery simultaneous inversion per
/// column (see [`sdb_crypto::batch`]).
///
/// Phase 1 performs every RNG draw row-by-row in the scalar order (row id,
/// encrypted row id, then SIES payloads per string column). Phase 2 is
/// RNG-free and batches the share arithmetic per column.
fn encrypt_rows_batched(
    keystore: &KeyStore,
    meta: &TableMeta,
    options: UploadOptions,
    rows: &[Vec<Value>],
    rng: &mut StdRng,
) -> Result<Vec<Vec<Value>>> {
    let system = keystore.system();
    let codec = SignedCodec::new(system);
    let table_keys = keystore.table_keys(&meta.name)?;
    let row_id_gen = keystore.row_id_generator();
    let payload_cipher = keystore.payload_cipher();
    let tagger = keystore.tagger();

    // Phase 1: RNG draws, in the exact order the scalar path makes them.
    let mut draws: Vec<RowDraws> = Vec::with_capacity(rows.len());
    for row in rows {
        let row_id = row_id_gen.generate(rng, system);
        let enc_row_id = row_id_gen.encrypt(rng, &row_id);
        let mut payloads = Vec::new();
        for (column, value) in meta.columns.iter().zip(row.iter()) {
            if column.is_string_sensitive() {
                if let Value::Str(s) = value {
                    payloads.push(payload_cipher.encrypt_bytes(rng, s.as_bytes()));
                }
            }
        }
        draws.push(RowDraws {
            row_id,
            enc_row_id,
            payloads,
        });
    }

    // Phase 2a: the auxiliary all-ones column for every row at once.
    let row_ids: Vec<BigUint> = draws.iter().map(|d| d.row_id.value().clone()).collect();
    let aux_item_keys = gen_item_keys(system, &table_keys.aux, &row_ids);
    let ones = vec![BigUint::from(1u32); rows.len()];
    let aux_values = encrypt_values(system, &ones, &aux_item_keys);

    // Phase 2b: each sensitive numeric column as one batch over its non-NULL
    // rows. `encrypted[col][row]` is None for NULLs.
    let mut encrypted_columns: Vec<Option<Vec<Option<BigUint>>>> = vec![None; meta.columns.len()];
    for (ci, column) in meta.columns.iter().enumerate() {
        if !column.is_numeric_sensitive() {
            continue;
        }
        let key =
            table_keys
                .columns
                .get(&column.name)
                .ok_or_else(|| ProxyError::UnknownColumn {
                    name: column.name.clone(),
                })?;
        let plain = PlainType::from_data_type(column.data_type)?;
        let mut present_rows: Vec<usize> = Vec::new();
        let mut residues: Vec<BigUint> = Vec::new();
        let mut item_key_ids: Vec<BigUint> = Vec::new();
        for (ri, row) in rows.iter().enumerate() {
            match &row[ci] {
                Value::Null => {}
                other => {
                    let units = other
                        .as_scaled_i128(plain.scale())
                        .map_err(ProxyError::Storage)?;
                    residues.push(codec.encode(units)?);
                    item_key_ids.push(row_ids[ri].clone());
                    present_rows.push(ri);
                }
            }
        }
        let item_keys = gen_item_keys(system, key, &item_key_ids);
        let values = encrypt_values(system, &residues, &item_keys);
        let mut per_row: Vec<Option<BigUint>> = vec![None; rows.len()];
        for (slot, value) in present_rows.into_iter().zip(values) {
            per_row[slot] = Some(value);
        }
        encrypted_columns[ci] = Some(per_row);
    }

    // Assembly: same output shape and order as the scalar path.
    let mut out_rows = Vec::with_capacity(rows.len());
    for (ri, row) in rows.iter().enumerate() {
        let draw = &draws[ri];
        let mut payloads = draw.payloads.iter();
        let mut out = vec![
            Value::EncryptedRowId(draw.enc_row_id.clone()),
            Value::Encrypted(aux_values[ri].clone()),
        ];
        for (ci, (column, value)) in meta.columns.iter().zip(row.iter()).enumerate() {
            if column.is_numeric_sensitive() {
                let per_row = encrypted_columns[ci]
                    .as_ref()
                    .expect("numeric column was batch-encrypted");
                out.push(match &per_row[ri] {
                    Some(e) => Value::Encrypted(e.clone()),
                    None => Value::Null,
                });
                if options.deterministic_tags {
                    let tag = match value {
                        Value::Null => Value::Null,
                        other => {
                            let units = other
                                .as_scaled_i128(
                                    PlainType::from_data_type(column.data_type)?.scale(),
                                )
                                .map_err(ProxyError::Storage)?;
                            Value::Tag(tagger.tag_i128(&domain_of(column), units))
                        }
                    };
                    out.push(tag);
                }
            } else if column.is_string_sensitive() {
                match value {
                    Value::Null => {
                        out.push(Value::Null);
                        out.push(Value::Null);
                    }
                    Value::Str(s) => {
                        out.push(Value::Tag(tagger.tag_str(&domain_of(column), s)));
                        out.push(Value::EncryptedRowId(EncryptedRowId(
                            payloads.next().expect("payload drawn in phase 1").clone(),
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
        out_rows.push(out);
    }
    Ok(out_rows)
}

/// Builds the physical (SP-side) schema for a logical table.
pub fn physical_schema(meta: &TableMeta, options: UploadOptions) -> Schema {
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
            if options.deterministic_tags {
                defs.push(ColumnDef {
                    name: format!("{}{TAG_SUFFIX}", column.name),
                    data_type: DataType::Tag,
                    sensitivity: Sensitivity::Sensitive,
                });
            }
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
    options: UploadOptions,
    row: &[Value],
    rng: &mut StdRng,
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
            if options.deterministic_tags {
                let tag = match value {
                    Value::Null => Value::Null,
                    other => {
                        let units = other
                            .as_scaled_i128(PlainType::from_data_type(column.data_type)?.scale())
                            .map_err(ProxyError::Storage)?;
                        Value::Tag(tagger.tag_i128(&domain_of(column), units))
                    }
                };
                out.push(tag);
            }
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

fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut ks = KeyStore::generate(KeyConfig::TEST, 11).unwrap();
        let up = Encryptor::encrypt_table(&mut ks, &sample_table(), options).unwrap();
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
            let enc_rid = batch.column_by_name("row_id").unwrap().get(row).clone();
            let rid = row_gen
                .decrypt(enc_rid.as_encrypted_row_id().unwrap())
                .unwrap();
            let salary_e = batch.column_by_name("salary").unwrap().get(row).clone();
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
        assert!(batch.column_by_name("salary").unwrap().get(2).is_null());
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
                        .get(row)
                        .as_encrypted_row_id()
                        .unwrap(),
                )
                .unwrap();
            let s_e = batch.column_by_name("sdb_s").unwrap().get(row);
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
        let tag = batch.column_by_name("notes_tag").unwrap().get(0);
        assert_eq!(tag, &Value::Tag(tagger.tag_str("sdb:str", "top secret")));
        let payload = batch.column_by_name("notes_sies").unwrap().get(0);
        let decrypted = cipher
            .decrypt_bytes(&payload.as_encrypted_row_id().unwrap().0)
            .unwrap();
        assert_eq!(String::from_utf8(decrypted).unwrap(), "top secret");
    }

    #[test]
    fn deterministic_tag_mode_adds_numeric_tags() {
        let (ks, up) = upload(UploadOptions {
            deterministic_tags: true,
            threads: 1,
        });
        let names: Vec<&str> = up
            .table
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert!(names.contains(&"salary_tag"));
        assert!(names.contains(&"hired_tag"));
        // Equal plaintexts produce equal tags across rows (that is the leakage the
        // ablation measures); here just check determinism against the tagger.
        let tagger = ks.tagger();
        assert_eq!(
            up.table.scan().column_by_name("salary_tag").unwrap().get(0),
            &Value::Tag(tagger.tag_i128("sdb:num", 123_456))
        );
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
        let mut ks = KeyStore::generate(KeyConfig::TEST, 13).unwrap();
        let up = Encryptor::encrypt_table(
            &mut ks,
            &t,
            UploadOptions {
                deterministic_tags: false,
                threads: 4,
            },
        )
        .unwrap();
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
                        .get(row)
                        .as_encrypted_row_id()
                        .unwrap(),
                )
                .unwrap();
            let v_e = batch.column_by_name("v").unwrap().get(row);
            let ik = gen_item_key(system, key, rid.value());
            let units = codec
                .decode(&decrypt_value(system, v_e.as_encrypted().unwrap(), &ik))
                .unwrap();
            let id = batch
                .column_by_name("id")
                .unwrap()
                .get(row)
                .as_i64()
                .unwrap();
            assert_eq!(units, i128::from(id) * 7);
        }
    }

    #[test]
    fn batched_encryption_is_byte_identical_to_scalar_rows() {
        // Same keystore state, same seed: the batched path must consume the
        // RNG stream exactly as the scalar path does and produce identical
        // ciphertexts for every column kind (numeric, tag, SIES, public).
        for options in [
            UploadOptions::default(),
            UploadOptions {
                deterministic_tags: true,
                threads: 1,
            },
        ] {
            let table = sample_table();
            let meta = TableMeta::from_schema(table.name(), table.schema());
            let mut ks = KeyStore::generate(KeyConfig::TEST, 23).unwrap();
            let numeric: Vec<String> = meta
                .columns
                .iter()
                .filter(|c| c.is_numeric_sensitive())
                .map(|c| c.name.clone())
                .collect();
            let mut reg_rng = ks.derived_rng(1);
            ks.register_table(&mut reg_rng, table.name(), &numeric)
                .unwrap();
            let rows: Vec<Vec<Value>> = table.scan().rows().collect();

            let mut scalar_rng = ks.derived_rng(99);
            let scalar: Vec<Vec<Value>> = rows
                .iter()
                .map(|row| encrypt_row(&ks, &meta, options, row, &mut scalar_rng).unwrap())
                .collect();

            let mut batched_rng = ks.derived_rng(99);
            let batched =
                encrypt_rows_batched(&ks, &meta, options, &rows, &mut batched_rng).unwrap();

            assert_eq!(scalar, batched);
        }
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

    #[test]
    fn rejects_sensitive_string_with_non_string_value() {
        let schema = Schema::new(vec![ColumnDef::sensitive("notes", DataType::Varchar)]);
        let mut t = Table::new("bad", schema);
        // Insert a NULL row first so construction succeeds, then force a bad value
        // through the untyped path by building the row vector manually.
        t.insert_row(vec![Value::Null]).unwrap();
        let mut ks = KeyStore::generate(KeyConfig::TEST, 17).unwrap();
        assert!(Encryptor::encrypt_table(&mut ks, &t, UploadOptions::default()).is_ok());
    }
}
