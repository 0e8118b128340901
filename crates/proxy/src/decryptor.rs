//! Result decryption and client-side post-processing.
//!
//! The decryptor receives the SP's (partially encrypted) result batch together with
//! the [`ResultPlan`] produced at rewrite time and the per-query session. It
//! decrypts every ingredient column, evaluates any client-side final projections
//! (divisions, AVG, ratios of sums, …), applies post HAVING / DISTINCT / ORDER BY /
//! LIMIT, and returns the plaintext result the application sees.

use std::collections::HashMap;

use sdb_crypto::share::decrypt_value;
use sdb_crypto::{gen_item_keys, RowIdGenerator, SiesCipher, SignedCodec, SystemKey};
use sdb_engine::eval::Evaluator;
use sdb_engine::UdfRegistry;
use sdb_storage::{Column, ColumnDef, DataType, RecordBatch, Schema, Sensitivity, Value};

use crate::keystore::KeyStore;
use crate::meta::PlainType;
use crate::oracle::decode_units;
use crate::plan::{Ingredient, OutputSource, ResultPlan};
use crate::session::{HandleKey, QuerySession};
use crate::{ProxyError, Result};

/// Decrypts SP results according to a [`ResultPlan`].
pub struct Decryptor {
    system: SystemKey,
    row_ids: RowIdGenerator,
    payload: SiesCipher,
    codec: SignedCodec,
    registry: UdfRegistry,
}

impl Decryptor {
    /// Builds a decryptor from the key store.
    pub fn new(keystore: &KeyStore) -> Self {
        Decryptor {
            system: keystore.system().clone(),
            row_ids: keystore.row_id_generator(),
            payload: keystore.payload_cipher(),
            codec: SignedCodec::new(keystore.system()),
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
                Ingredient::Plain | Ingredient::RowId => column.values().to_vec(),
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
                    let rid_col = server.column(rid_idx);
                    // The row ids of the non-NULL cells, then all their item
                    // keys in one call.
                    let mut row_ids = Vec::with_capacity(rows);
                    for row in (0..rows).filter(|&row| !column.get(row).is_null()) {
                        let rid = self
                            .row_ids
                            .decrypt(rid_col.get(row).as_encrypted_row_id()?)
                            .map_err(|e| ProxyError::Decryption {
                                detail: format!("row id decryption failed: {e}"),
                            })?;
                        row_ids.push(rid.0);
                    }
                    let mut item_keys = gen_item_keys(&self.system, &key, &row_ids).into_iter();
                    let mut out = Vec::with_capacity(rows);
                    for share in column.values() {
                        out.push(match share {
                            Value::Null => Value::Null,
                            share => {
                                let ik = item_keys.next().expect("one item key per share");
                                self.decode_share(share, &ik, *decode)?
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
                            let share = column.get(row);
                            if share.is_null() {
                                Ok(Value::Null)
                            } else {
                                self.decode_share(share, &item_key, *decode)
                            }
                        })
                        .collect::<Result<Vec<_>>>()?
                }
                Ingredient::SurrogateTag => (0..rows)
                    .map(|row| {
                        let v = column.get(row);
                        match v {
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
                        let v = column.get(row);
                        match v {
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
                        let v = column.get(row);
                        match v {
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
            let mut col = Column::new(data_type);
            for v in values {
                col.push_unchecked(v.clone());
            }
            columns.push(col);
        }
        let intermediate = RecordBatch::new(Schema::new(defs), columns)?;

        // 3. Produce the output columns (including hidden ones used by post steps).
        let evaluator = Evaluator::new(&self.registry);
        let mut out_defs = Vec::new();
        let mut out_columns = Vec::new();
        for output in &plan.outputs {
            let values: Vec<Value> = match &output.source {
                OutputSource::Column(name) => intermediate.column_by_name(name)?.values().to_vec(),
                OutputSource::Computed(expr) => (0..intermediate.num_rows())
                    .map(|row| evaluator.evaluate(expr, &intermediate, row))
                    .collect::<std::result::Result<Vec<_>, _>>()?,
            };
            let data_type = values
                .iter()
                .find_map(|v| v.data_type())
                .unwrap_or(DataType::Int);
            out_defs.push(ColumnDef {
                name: output.name.clone(),
                data_type,
                sensitivity: Sensitivity::Public,
            });
            let mut col = Column::new(data_type);
            for v in values {
                col.push_unchecked(v);
            }
            out_columns.push(col);
        }
        let mut result = RecordBatch::new(Schema::new(out_defs), out_columns)?;

        // 4. Post HAVING.
        if let Some(predicate) = &plan.post_having {
            let mut mask = Vec::with_capacity(result.num_rows());
            for row in 0..result.num_rows() {
                mask.push(evaluator.evaluate_predicate(predicate, &result, row)?);
            }
            result = result.filter(&mask)?;
        }

        // 5. Post DISTINCT (over the visible columns only).
        if plan.post_distinct {
            let visible: Vec<usize> = plan
                .outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| !o.hidden)
                .map(|(i, _)| i)
                .collect();
            let mut seen = std::collections::HashSet::new();
            let mut mask = Vec::with_capacity(result.num_rows());
            for row in 0..result.num_rows() {
                let key: String = visible
                    .iter()
                    .map(|&i| result.column(i).get(row).render())
                    .collect::<Vec<_>>()
                    .join("\u{1f}");
                mask.push(seen.insert(key));
            }
            result = result.filter(&mask)?;
        }

        // 6. Post ORDER BY.
        if !plan.post_sort.is_empty() {
            let mut key_indices = Vec::new();
            for key in &plan.post_sort {
                key_indices.push((result.schema().index_of(&key.column)?, key.desc));
            }
            let mut order: Vec<usize> = (0..result.num_rows()).collect();
            order.sort_by(|&a, &b| {
                for (idx, desc) in &key_indices {
                    let ord = result
                        .column(*idx)
                        .get(a)
                        .cmp_total(result.column(*idx).get(b));
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            result = result.reorder(&order)?;
        }

        // 7. Post LIMIT.
        if let Some(limit) = plan.post_limit {
            result = result.limit(limit as usize);
        }

        // 8. Drop hidden columns.
        let visible: Vec<usize> = plan
            .outputs
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.hidden)
            .map(|(i, _)| i)
            .collect();
        if visible.len() != plan.outputs.len() {
            result = result.project(&visible);
        }
        Ok(result)
    }

    fn decode_share(
        &self,
        share: &Value,
        item_key: &num_bigint::BigUint,
        decode: PlainType,
    ) -> Result<Value> {
        let residue = decrypt_value(&self.system, share.as_encrypted()?, item_key);
        let units = self.codec.decode(&residue)?;
        Ok(decode_units(units, decode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OutputColumn, PostSortKey};
    use num_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdb_crypto::share::{encrypt_value, gen_item_key};
    use sdb_crypto::KeyConfig;
    use sdb_sql::ast::{BinaryOp, Expr};

    fn keystore() -> KeyStore {
        KeyStore::generate(KeyConfig::TEST, 31).unwrap()
    }

    /// End-to-end decryption of a small hand-built "server result".
    #[test]
    fn decrypts_row_keyed_and_computes_outputs() {
        let ks = keystore();
        let system = ks.system().clone();
        let codec = SignedCodec::new(&system);
        let mut rng = StdRng::seed_from_u64(5);
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
            result.column_by_name("price").unwrap().get(0),
            &Value::Decimal {
                units: 1050,
                scale: 2
            }
        );
        assert_eq!(
            result
                .column_by_name("total")
                .unwrap()
                .get(0)
                .as_scaled_i128(2)
                .unwrap(),
            2100
        );
        assert_eq!(
            result
                .column_by_name("total")
                .unwrap()
                .get(2)
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
        let mut rng = StdRng::seed_from_u64(6);
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
            result.column_by_name("total").unwrap().get(0),
            &Value::Int(900)
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
        assert_eq!(result.column(0).get(0), &Value::Int(42));
        assert_eq!(
            result.column(1).get(0),
            &Value::Decimal {
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
        assert_eq!(result.column(0).get(0), &Value::Int(1));
        assert_eq!(result.column(0).get(1), &Value::Int(2));
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
