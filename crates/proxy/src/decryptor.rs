//! Result decryption and client-side post-processing.
//!
//! The decryptor receives the SP's (partially encrypted) result batch together with
//! the [`ResultPlan`] produced at rewrite time and the per-query session. It
//! decrypts every ingredient column, evaluates any client-side final projections
//! (divisions, AVG, ratios of sums, …), applies post HAVING / DISTINCT / ORDER BY /
//! LIMIT, and returns the plaintext result the application sees.

use std::collections::HashMap;
use std::sync::Arc;

use sdb_crypto::share::{decrypt_limbs, decrypt_value};
use sdb_crypto::SiesCipher;
use sdb_engine::operators::sort::serial_order;
use sdb_engine::UdfRegistry;
use sdb_storage::keys::{BatchKeys, KeySet};
use sdb_storage::{
    Column, ColumnCells, ColumnDef, DataType, RecordBatch, Schema, Sensitivity, Value,
};

use crate::keystore::KeyStore;
use crate::meta::PlainType;
use crate::oracle::{decode_units, OracleParts};
use crate::plan::{Ingredient, OutputSource, ResultPlan};
use crate::session::{HandleKey, QuerySession};
use crate::{ProxyError, Result};

/// Decrypts SP results according to a [`ResultPlan`].
pub struct Decryptor {
    parts: Arc<OracleParts>,
    payload: SiesCipher,
    registry: UdfRegistry,
}

impl Decryptor {
    /// Builds a decryptor from the key store.
    pub fn new(keystore: &KeyStore) -> Self {
        Decryptor::with_parts(Arc::new(OracleParts::new(keystore)), keystore)
    }

    /// Builds a decryptor that derives item keys through `parts`, the ones
    /// the proxy's oracles share.
    pub fn with_parts(parts: Arc<OracleParts>, keystore: &KeyStore) -> Self {
        Decryptor {
            parts,
            payload: keystore.payload_cipher(),
            registry: UdfRegistry::with_sdb_udfs(),
        }
    }

    /// Decrypts and post-processes one result batch.
    pub fn decrypt(
        &self,
        plan: &ResultPlan,
        session: &QuerySession,
        server: &RecordBatch,
    ) -> Result<RecordBatch> {
        if server.num_columns() != plan.ingredients.len() {
            return Err(ProxyError::Decryption {
                detail: format!(
                    "server returned {} columns but the plan expects {}",
                    server.num_columns(),
                    plan.ingredients.len()
                ),
            });
        }
        let rows = server.num_rows();

        // 1. Decrypt every ingredient into an intermediate plaintext column.
        let mut intermediates: HashMap<String, Vec<Value>> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for (idx, (name, ingredient)) in plan.ingredients.iter().enumerate() {
            let column = server.column(idx);
            let values = match ingredient {
                Ingredient::Plain | Ingredient::RowId => column.to_values(),
                Ingredient::EncryptedRowKeyed {
                    handle,
                    decode,
                    row_id_column,
                } => {
                    let key = match session.handle(handle)? {
                        HandleKey::RowKeyed { key, .. } => key,
                        HandleKey::RowIndependent { .. } => {
                            return Err(ProxyError::Decryption {
                                detail: format!("handle {handle} is not row-keyed"),
                            })
                        }
                    };
                    let rid_idx = server.schema().index_of(row_id_column)?;
                    let ColumnCells::Values(rid_col) = server.column(rid_idx).cells() else {
                        return Err(ProxyError::Decryption {
                            detail: format!("row id column {row_id_column} holds shares"),
                        });
                    };
                    // The row ids of the non-NULL cells, then all their item
                    // keys in one call.
                    let row_ids = (0..rows)
                        .filter(|&row| !column.is_null(row))
                        .map(|row| rid_col[row].as_encrypted_row_id())
                        .collect::<std::result::Result<Vec<_>, _>>()?;
                    let item_keys = (self.parts)
                        .row_keyed(&key, row_ids.into_iter(), session)
                        .map_err(|e| ProxyError::Decryption {
                            detail: format!("row id decryption failed: {e}"),
                        })?;
                    let mut item_keys = item_keys.into_iter();
                    let mut out = Vec::with_capacity(rows);
                    for row in 0..rows {
                        out.push(match column.is_null(row) {
                            true => Value::Null,
                            false => {
                                let ik = item_keys.next().expect("one item key per share");
                                self.decode_share(column.cells(), row, &ik, *decode)?
                            }
                        });
                    }
                    out
                }
                Ingredient::EncryptedRowIndependent { handle, decode } => {
                    let item_key = match session.handle(handle)? {
                        HandleKey::RowIndependent { item_key, .. } => item_key,
                        HandleKey::RowKeyed { .. } => {
                            return Err(ProxyError::Decryption {
                                detail: format!("handle {handle} is not row-independent"),
                            })
                        }
                    };
                    (0..rows)
                        .map(|row| {
                            if column.is_null(row) {
                                Ok(Value::Null)
                            } else {
                                self.decode_share(column.cells(), row, &item_key, *decode)
                            }
                        })
                        .collect::<Result<Vec<_>>>()?
                }
                Ingredient::SurrogateTag => (0..rows)
                    .map(|row| {
                        let v = column.value(row);
                        match &*v {
                            Value::Null => Ok(Value::Null),
                            Value::Tag(t) => {
                                session.tag_value(*t).ok_or_else(|| ProxyError::Decryption {
                                    detail: format!("no plaintext recorded for tag {t}"),
                                })
                            }
                            other => Err(ProxyError::Decryption {
                                detail: format!("expected a tag surrogate, found {other:?}"),
                            }),
                        }
                    })
                    .collect::<Result<Vec<_>>>()?,
                Ingredient::SurrogateRank => (0..rows)
                    .map(|row| {
                        let v = column.value(row);
                        match &*v {
                            Value::Null => Ok(Value::Null),
                            Value::Int(r) => session.rank_value(*r as u64).ok_or_else(|| {
                                ProxyError::Decryption {
                                    detail: format!("no plaintext recorded for rank {r}"),
                                }
                            }),
                            other => Err(ProxyError::Decryption {
                                detail: format!("expected a rank surrogate, found {other:?}"),
                            }),
                        }
                    })
                    .collect::<Result<Vec<_>>>()?,
                Ingredient::SiesString => (0..rows)
                    .map(|row| {
                        let v = column.value(row);
                        match &*v {
                            Value::Null => Ok(Value::Null),
                            Value::EncryptedRowId(ct) => {
                                let bytes = self.payload.decrypt_bytes(&ct.0).map_err(|e| {
                                    ProxyError::Decryption {
                                        detail: format!("payload decryption failed: {e}"),
                                    }
                                })?;
                                String::from_utf8(bytes).map(Value::Str).map_err(|_| {
                                    ProxyError::Decryption {
                                        detail: "payload is not valid UTF-8".into(),
                                    }
                                })
                            }
                            other => Err(ProxyError::Decryption {
                                detail: format!("expected a SIES payload, found {other:?}"),
                            }),
                        }
                    })
                    .collect::<Result<Vec<_>>>()?,
            };
            order.push(name.clone());
            intermediates.insert(name.clone(), values);
        }

        // 2. Assemble the intermediate plaintext batch.
        let mut defs = Vec::new();
        let mut columns = Vec::new();
        for name in &order {
            let values = &intermediates[name];
            let data_type = values
                .iter()
                .find_map(|v| v.data_type())
                .unwrap_or(DataType::Int);
            defs.push(ColumnDef {
                name: name.clone(),
                data_type,
                sensitivity: Sensitivity::Public,
            });
            columns.push(Column::from_values_unchecked(data_type, values.clone()));
        }
        let intermediate = RecordBatch::new(Schema::new(defs), columns)?;

        // 3. Produce the output columns (including hidden ones used by post
        // steps), a computed one through the engine's value entry.
        let mut out_defs = Vec::new();
        let mut out_columns = Vec::new();
        for output in &plan.outputs {
            let column = match &output.source {
                OutputSource::Column(name) => intermediate.column_by_name(name)?.clone(),
                OutputSource::Computed(expr) => {
                    let mut computed = self.registry.evaluate_columns(&[expr], &intermediate)?;
                    computed.pop().expect("one column per expression")
                }
            };
            out_defs.push(ColumnDef {
                name: output.name.clone(),
                data_type: column.data_type(),
                sensitivity: Sensitivity::Public,
            });
            out_columns.push(column);
        }
        let mut result = RecordBatch::new(Schema::new(out_defs), out_columns)?;

        // 4. Post HAVING, through the engine's predicate entry.
        if let Some(predicate) = &plan.post_having {
            result = result.filter_bitmap(&self.registry.select_rows(predicate, &result)?)?;
        }

        // 5. Post DISTINCT (over the visible columns only), on the engine's
        // key path: NULL is one key of its own, and a string never equals
        // another value.
        let visible: Vec<usize> = (plan.outputs.iter().enumerate())
            .filter(|(_, o)| !o.hidden)
            .map(|(i, _)| i)
            .collect();
        if plan.post_distinct {
            let keys = visible.iter().map(|&i| result.column(i).clone());
            let keys = BatchKeys::new(keys.collect(), result.num_rows());
            result = result.filter(&KeySet::default().insert_rows(&keys))?;
        }

        // 6. Post ORDER BY: the engine's serial sort order.
        if !plan.post_sort.is_empty() {
            let mut keys = Vec::new();
            let mut desc = Vec::new();
            for key in &plan.post_sort {
                keys.push(
                    result
                        .column(result.schema().index_of(&key.column)?)
                        .cells(),
                );
                desc.push(key.desc);
            }
            let order = serial_order(&keys, &desc, 0..result.num_rows());
            result = result.reorder(&order)?;
        }

        // 7. Post LIMIT.
        if let Some(limit) = plan.post_limit {
            result = result.limit(limit as usize);
        }

        // 8. Drop hidden columns.
        if visible.len() != plan.outputs.len() {
            result = result.project(&visible);
        }
        Ok(result)
    }

    /// Decrypts and decodes the share in `row` of `cells` (not NULL): a
    /// column of shares is read from its limbs.
    fn decode_share(
        &self,
        cells: ColumnCells<'_>,
        row: usize,
        item_key: &num_bigint::BigUint,
        decode: PlainType,
    ) -> Result<Value> {
        let system = &self.parts.system;
        let residue = match cells {
            ColumnCells::Shares(shares) => decrypt_limbs(system, shares.row(row), item_key),
            ColumnCells::Values(values) => {
                decrypt_value(system, values[row].as_encrypted()?, item_key)
            }
        };
        let units = self.parts.codec.decode(&residue)?;
        Ok(decode_units(units, decode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OutputColumn, PostSortKey};
    use num_bigint::BigUint;
    use rand::SeedableRng;
    use sdb_crypto::share::{encrypt_value, gen_item_key};
    use sdb_crypto::{Drbg, KeyConfig, SignedCodec};
    use sdb_sql::ast::{BinaryOp, Expr};

    fn keystore() -> KeyStore {
        KeyStore::generate(KeyConfig::TEST, &mut Drbg::seed_from_u64(31)).unwrap()
    }

    /// End-to-end decryption of a small hand-built "server result".
    #[test]
    fn decrypts_row_keyed_and_computes_outputs() {
        let ks = keystore();
        let system = ks.system().clone();
        let codec = SignedCodec::new(&system);
        let mut rng = Drbg::seed_from_u64(5);
        let session = QuerySession::new();

        let key = system.gen_column_key(&mut rng);
        let handle = session.register_handle(HandleKey::RowKeyed {
            key: key.clone(),
            decode: PlainType::Decimal(2),
        });

        // Build a 3-row server batch: plain qty, encrypted price, row id.
        let row_gen = ks.row_id_generator();
        let mut rows = Vec::new();
        for (qty, price_units) in [(2i64, 1050i64), (1, 300), (5, -250)] {
            let rid = row_gen.generate(&mut rng, &system);
            let enc_rid = row_gen.encrypt(&mut rng, &rid);
            let ik = gen_item_key(&system, &key, rid.value());
            let share = encrypt_value(
                &system,
                &codec.encode(i128::from(price_units)).unwrap(),
                &ik,
            );
            rows.push(vec![
                Value::Int(qty),
                Value::Encrypted(share),
                Value::EncryptedRowId(enc_rid),
            ]);
        }
        let server = RecordBatch::from_rows(
            Schema::new(vec![
                ColumnDef::public("qty", DataType::Int),
                ColumnDef {
                    name: "price".into(),
                    data_type: DataType::Encrypted,
                    sensitivity: Sensitivity::Sensitive,
                },
                ColumnDef {
                    name: "__rowid_t".into(),
                    data_type: DataType::EncryptedRowId,
                    sensitivity: Sensitivity::Sensitive,
                },
            ]),
            rows,
        )
        .unwrap();

        let plan = ResultPlan {
            ingredients: vec![
                ("qty".into(), Ingredient::Plain),
                (
                    "price".into(),
                    Ingredient::EncryptedRowKeyed {
                        handle,
                        decode: PlainType::Decimal(2),
                        row_id_column: "__rowid_t".into(),
                    },
                ),
                ("__rowid_t".into(), Ingredient::RowId),
            ],
            outputs: vec![
                OutputColumn {
                    name: "qty".into(),
                    source: OutputSource::Column("qty".into()),
                    hidden: false,
                },
                OutputColumn {
                    name: "price".into(),
                    source: OutputSource::Column("price".into()),
                    hidden: false,
                },
                OutputColumn {
                    name: "total".into(),
                    source: OutputSource::Computed(Expr::binary(
                        Expr::col("qty"),
                        BinaryOp::Mul,
                        Expr::col("price"),
                    )),
                    hidden: false,
                },
            ],
            post_sort: vec![PostSortKey {
                column: "total".into(),
                desc: true,
            }],
            ..Default::default()
        };

        let decryptor = Decryptor::new(&ks);
        let result = decryptor.decrypt(&plan, &session, &server).unwrap();
        assert_eq!(result.num_rows(), 3);
        assert_eq!(result.num_columns(), 3);
        // Sorted by total descending: 2*10.50 = 21.00, 1*3.00 = 3.00, 5*-2.50 = -12.50.
        assert_eq!(
            *result.column_by_name("price").unwrap().value(0),
            Value::Decimal {
                units: 1050,
                scale: 2
            }
        );
        assert_eq!(
            result
                .column_by_name("total")
                .unwrap()
                .value(0)
                .as_scaled_i128(2)
                .unwrap(),
            2100
        );
        assert_eq!(
            result
                .column_by_name("total")
                .unwrap()
                .value(2)
                .as_scaled_i128(2)
                .unwrap(),
            -1250
        );
    }

    #[test]
    fn decrypts_row_independent_aggregate_and_post_having() {
        let ks = keystore();
        let system = ks.system().clone();
        let codec = SignedCodec::new(&system);
        let mut rng = Drbg::seed_from_u64(6);
        let session = QuerySession::new();

        // A row-independent key, as produced by a SUM rewrite.
        let m = sdb_crypto::ColumnKeyAlgebra::row_independent_target(&system, &mut rng);
        let item_key = sdb_crypto::ColumnKeyAlgebra::row_independent_item_key(&m);
        let handle = session.register_handle(HandleKey::RowIndependent {
            item_key: item_key.clone(),
            decode: PlainType::Int,
        });

        // Two "groups" with encrypted sums 100 and 900.
        let rows = [100i64, 900]
            .iter()
            .map(|v| {
                let share =
                    encrypt_value(&system, &codec.encode(i128::from(*v)).unwrap(), &item_key);
                vec![Value::Str(format!("g{v}")), Value::Encrypted(share)]
            })
            .collect();
        let server = RecordBatch::from_rows(
            Schema::new(vec![
                ColumnDef::public("grp", DataType::Varchar),
                ColumnDef {
                    name: "SUM(x)".into(),
                    data_type: DataType::Encrypted,
                    sensitivity: Sensitivity::Sensitive,
                },
            ]),
            rows,
        )
        .unwrap();

        let plan = ResultPlan {
            ingredients: vec![
                ("grp".into(), Ingredient::Plain),
                (
                    "SUM(x)".into(),
                    Ingredient::EncryptedRowIndependent {
                        handle,
                        decode: PlainType::Int,
                    },
                ),
            ],
            outputs: vec![
                OutputColumn {
                    name: "grp".into(),
                    source: OutputSource::Column("grp".into()),
                    hidden: false,
                },
                OutputColumn {
                    name: "total".into(),
                    source: OutputSource::Column("SUM(x)".into()),
                    hidden: false,
                },
            ],
            post_having: Some(Expr::binary(
                Expr::col("total"),
                BinaryOp::Gt,
                Expr::int(500),
            )),
            ..Default::default()
        };

        let decryptor = Decryptor::new(&ks);
        let result = decryptor.decrypt(&plan, &session, &server).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(
            *result.column_by_name("total").unwrap().value(0),
            Value::Int(900)
        );
    }

    #[test]
    fn surrogates_resolve_through_session() {
        let ks = keystore();
        let session = QuerySession::new();
        session.record_tag(11, Value::Int(42));
        session.record_rank(
            99,
            Value::Decimal {
                units: 777,
                scale: 2,
            },
        );

        let server = RecordBatch::from_rows(
            Schema::new(vec![
                ColumnDef::public("g", DataType::Tag),
                ColumnDef::public("m", DataType::Int),
            ]),
            vec![vec![Value::Tag(11), Value::Int(99)]],
        )
        .unwrap();
        let plan = ResultPlan {
            ingredients: vec![
                ("g".into(), Ingredient::SurrogateTag),
                ("m".into(), Ingredient::SurrogateRank),
            ],
            outputs: vec![
                OutputColumn {
                    name: "g".into(),
                    source: OutputSource::Column("g".into()),
                    hidden: false,
                },
                OutputColumn {
                    name: "m".into(),
                    source: OutputSource::Column("m".into()),
                    hidden: false,
                },
            ],
            ..Default::default()
        };
        let result = Decryptor::new(&ks)
            .decrypt(&plan, &session, &server)
            .unwrap();
        assert_eq!(*result.column(0).value(0), Value::Int(42));
        assert_eq!(
            *result.column(1).value(0),
            Value::Decimal {
                units: 777,
                scale: 2
            }
        );

        // Unknown surrogate → clear error.
        let server2 = RecordBatch::from_rows(
            Schema::new(vec![ColumnDef::public("g", DataType::Tag)]),
            vec![vec![Value::Tag(12)]],
        )
        .unwrap();
        let plan2 = ResultPlan {
            ingredients: vec![("g".into(), Ingredient::SurrogateTag)],
            outputs: vec![OutputColumn {
                name: "g".into(),
                source: OutputSource::Column("g".into()),
                hidden: false,
            }],
            ..Default::default()
        };
        assert!(Decryptor::new(&ks)
            .decrypt(&plan2, &session, &server2)
            .is_err());
    }

    #[test]
    fn hidden_columns_are_dropped_and_limit_applies() {
        let ks = keystore();
        let session = QuerySession::new();
        let server = RecordBatch::from_rows(
            Schema::new(vec![ColumnDef::public("a", DataType::Int)]),
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap();
        let plan = ResultPlan {
            ingredients: vec![("a".into(), Ingredient::Plain)],
            outputs: vec![
                OutputColumn {
                    name: "a".into(),
                    source: OutputSource::Column("a".into()),
                    hidden: false,
                },
                OutputColumn {
                    name: "__sortkey".into(),
                    source: OutputSource::Column("a".into()),
                    hidden: true,
                },
            ],
            post_sort: vec![PostSortKey {
                column: "__sortkey".into(),
                desc: false,
            }],
            post_limit: Some(2),
            ..Default::default()
        };
        let result = Decryptor::new(&ks)
            .decrypt(&plan, &session, &server)
            .unwrap();
        assert_eq!(result.num_columns(), 1);
        assert_eq!(result.num_rows(), 2);
        assert_eq!(*result.column(0).value(0), Value::Int(1));
        assert_eq!(*result.column(0).value(1), Value::Int(2));
    }

    #[test]
    fn column_count_mismatch_is_an_error() {
        let ks = keystore();
        let session = QuerySession::new();
        let server = RecordBatch::from_rows(
            Schema::new(vec![ColumnDef::public("a", DataType::Int)]),
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        let plan = ResultPlan::default();
        assert!(Decryptor::new(&ks)
            .decrypt(&plan, &session, &server)
            .is_err());
        let _ = BigUint::from(0u32); // keep the import used in all feature combos
    }
}
