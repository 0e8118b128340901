//! An executable CryptDB-style client used by the overhead benches (E6) and the
//! coverage demo (E5).
//!
//! Each sensitive column is stored at the (plaintext-engine) server in up to four
//! onion columns: `<c>_rnd` (randomised, for retrieval), `<c>_det` (deterministic,
//! for equality / grouping), `<c>_ope` (order-preserving, for ranges) and `<c>_hom`
//! (Paillier, for additive aggregation). The client rewrites the query shapes those
//! onions support; anything that needs one operator's output to feed another —
//! the data-interoperability gap the SDB paper targets — is reported as
//! [`OnionOutcome::RequiresClient`].

use std::collections::BTreeMap;

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb_crypto::prf::PrfKey;
use sdb_crypto::{KeyConfig, SiesCipher};
use sdb_engine::SpEngine;
use sdb_proxy::meta::{PlainType, TableMeta};
use sdb_sql::ast::{BinaryOp, Expr, Literal, Query, SelectItem};
use sdb_sql::{parse_sql, Statement};
use sdb_storage::{ColumnDef, DataType, RecordBatch, Schema, Sensitivity, Table, Value};

use crate::onion::{DetCipher, OpeCipher};
use crate::paillier::PaillierKey;
use crate::{BaselineError, Result};

/// Outcome of submitting a query to the onion baseline.
#[derive(Debug, Clone)]
pub enum OnionOutcome {
    /// The server executed the query; the client only decrypted.
    Supported {
        /// The decrypted result.
        batch: RecordBatch,
        /// Rewritten SQL executed at the server.
        rewritten_sql: String,
    },
    /// The query is outside what the onions support natively — the DO would have to
    /// take over part of the computation (the paper's "significantly involving the
    /// DO").
    RequiresClient {
        /// Why.
        reason: String,
    },
}

impl OnionOutcome {
    /// True when the server could run the query natively.
    pub fn is_native(&self) -> bool {
        matches!(self, OnionOutcome::Supported { .. })
    }
}

/// The CryptDB-style client + server pair.
pub struct OnionClient {
    engine: SpEngine,
    det: DetCipher,
    ope: OpeCipher,
    rnd: SiesCipher,
    paillier: PaillierKey,
    metas: BTreeMap<String, TableMeta>,
    rng: StdRng,
}

impl OnionClient {
    /// Creates a client with fresh onion keys.
    pub fn new(seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(OnionClient {
            engine: SpEngine::new(),
            det: DetCipher::new(PrfKey::random(&mut rng)),
            ope: OpeCipher::new(PrfKey::random(&mut rng)),
            rnd: SiesCipher::from_master(&mut rng),
            paillier: PaillierKey::generate(&mut rng, KeyConfig::TEST)?,
            metas: BTreeMap::new(),
            rng,
        })
    }

    /// The underlying (honest-but-curious) server engine.
    pub fn engine(&self) -> &SpEngine {
        &self.engine
    }

    /// Table metadata registered so far.
    pub fn metas(&self) -> &BTreeMap<String, TableMeta> {
        &self.metas
    }

    /// Encrypts and loads a table (schema sensitivity markers decide which columns
    /// get onions).
    pub fn upload_table(&mut self, table: &Table) -> Result<()> {
        let meta = TableMeta::from_schema(table.name(), table.schema());

        let mut defs = Vec::new();
        for column in &meta.columns {
            if column.sensitive {
                defs.push(ColumnDef {
                    name: format!("{}_rnd", column.name),
                    data_type: DataType::EncryptedRowId,
                    sensitivity: Sensitivity::Sensitive,
                });
                defs.push(ColumnDef {
                    name: format!("{}_det", column.name),
                    data_type: DataType::Tag,
                    sensitivity: Sensitivity::Sensitive,
                });
                if column.is_numeric_sensitive() {
                    defs.push(ColumnDef {
                        name: format!("{}_ope", column.name),
                        data_type: DataType::Varchar,
                        sensitivity: Sensitivity::Sensitive,
                    });
                    defs.push(ColumnDef {
                        name: format!("{}_hom", column.name),
                        data_type: DataType::Encrypted,
                        sensitivity: Sensitivity::Sensitive,
                    });
                }
            } else {
                defs.push(ColumnDef {
                    name: column.name.clone(),
                    data_type: column.data_type,
                    sensitivity: Sensitivity::Public,
                });
            }
        }
        let mut encrypted = Table::new(table.name(), Schema::new(defs));

        let batch = table.scan();
        for row in batch.rows() {
            let mut out = Vec::new();
            for (column, value) in meta.columns.iter().zip(row.iter()) {
                if !column.sensitive {
                    out.push(value.clone());
                    continue;
                }
                if value.is_null() {
                    out.push(Value::Null); // rnd
                    out.push(Value::Null); // det
                    if column.is_numeric_sensitive() {
                        out.push(Value::Null); // ope
                        out.push(Value::Null); // hom
                    }
                    continue;
                }
                let domain = format!("onion:{}", column.name);
                match column.plain_type().map_err(|e| BaselineError::Internal {
                    detail: e.to_string(),
                })? {
                    PlainType::Varchar => {
                        let text = value.as_str()?;
                        out.push(Value::EncryptedRowId(sdb_crypto::EncryptedRowId(
                            self.rnd.encrypt_bytes(&mut self.rng, text.as_bytes()),
                        )));
                        out.push(Value::Tag(self.det.encrypt_str(&domain, text)));
                    }
                    plain => {
                        let units = value.as_scaled_i128(plain.scale())?;
                        out.push(Value::EncryptedRowId(sdb_crypto::EncryptedRowId(
                            self.rnd.encrypt_bytes(&mut self.rng, &units.to_le_bytes()),
                        )));
                        out.push(Value::Tag(self.det.encrypt_i128(&domain, units)));
                        out.push(Value::Str(pad_ope(self.ope.encrypt(units))));
                        let non_negative = BigUint::from(units.unsigned_abs());
                        // Paillier works over non-negative residues; negatives wrap.
                        let encoded = if units >= 0 {
                            non_negative
                        } else {
                            self.paillier.n() - (non_negative % self.paillier.n())
                        };
                        out.push(Value::Encrypted(
                            self.paillier.encrypt(&mut self.rng, &encoded).0,
                        ));
                    }
                }
            }
            encrypted.insert_row(out)?;
        }

        self.engine.load_table(encrypted)?;
        self.metas.insert(meta.name.clone(), meta);
        Ok(())
    }

    /// Submits a query. Supported shapes: projections of plain or bare sensitive
    /// columns, equality / range predicates comparing a sensitive column with a
    /// literal, plain aggregates, and `SUM` / `COUNT` / `MIN` / `MAX` of a bare
    /// sensitive column without GROUP BY. Everything else requires client-side
    /// processing (which is the point of the comparison).
    pub fn try_query(&self, sql: &str) -> Result<OnionOutcome> {
        let Statement::Query(query) = parse_sql(sql)? else {
            return Err(BaselineError::Internal {
                detail: "only SELECT statements are supported".into(),
            });
        };
        match self.rewrite(&query) {
            Ok((server_sql, decrypts)) => {
                let output = self.engine.execute_sql(&server_sql)?;
                let batch = self.decrypt(&output.batch, &decrypts)?;
                Ok(OnionOutcome::Supported {
                    batch,
                    rewritten_sql: server_sql,
                })
            }
            Err(BaselineError::NotNativelySupported { reason }) => {
                Ok(OnionOutcome::RequiresClient { reason })
            }
            Err(other) => Err(other),
        }
    }

    // ------------------------------------------------------------------

    fn meta_for(&self, query: &Query) -> Result<&TableMeta> {
        if query.from.len() != 1 || !query.joins.is_empty() {
            return Err(BaselineError::NotNativelySupported {
                reason: "multi-table queries over onion-encrypted data".into(),
            });
        }
        self.metas
            .get(&query.from[0].name.to_ascii_lowercase())
            .ok_or_else(|| BaselineError::Internal {
                detail: format!("unknown table {}", query.from[0].name),
            })
    }

    fn column_meta<'a>(
        &self,
        meta: &'a TableMeta,
        expr: &Expr,
    ) -> Option<&'a sdb_proxy::meta::ColumnMeta> {
        match expr {
            Expr::Column(name) => meta.column(name),
            _ => None,
        }
    }

    /// Rewrites the query; returns the server SQL and, per output column, how to
    /// decrypt it.
    fn rewrite(&self, query: &Query) -> Result<(String, Vec<OnionDecrypt>)> {
        let meta = self.meta_for(query)?;
        if !query.group_by.is_empty() || query.having.is_some() || query.distinct {
            // Grouping/distinct over DET onions is possible in principle; the
            // executable baseline keeps to the shapes the benches need.
            if query.group_by.iter().any(|g| {
                self.column_meta(meta, g)
                    .map(|c| c.sensitive)
                    .unwrap_or(false)
            }) || query.having.is_some()
            {
                return Err(BaselineError::NotNativelySupported {
                    reason: "grouping over encrypted columns".into(),
                });
            }
        }

        let mut rewritten = query.clone();

        // Projections.
        let mut decrypts = Vec::new();
        let mut items = Vec::new();
        for item in &query.projections {
            match item {
                SelectItem::Wildcard => {
                    return Err(BaselineError::NotNativelySupported {
                        reason: "SELECT * over onion-encrypted tables".into(),
                    })
                }
                SelectItem::Expr { expr, .. } => {
                    let (server_expr, decrypt) = self.rewrite_projection(meta, expr)?;
                    decrypts.push(decrypt);
                    items.push(SelectItem::Expr {
                        expr: server_expr,
                        alias: Some(format!("c{}", items.len())),
                    });
                }
            }
        }
        rewritten.projections = items;

        // Predicates.
        rewritten.where_clause = match &query.where_clause {
            Some(predicate) => Some(self.rewrite_predicate(meta, predicate)?),
            None => None,
        };

        // ORDER BY on sensitive columns → OPE column.
        let mut order_by = Vec::new();
        for key in &query.order_by {
            if let Some(column) = self.column_meta(meta, &key.expr) {
                if column.sensitive {
                    if !column.is_numeric_sensitive() {
                        return Err(BaselineError::NotNativelySupported {
                            reason: "ordering by an encrypted string".into(),
                        });
                    }
                    order_by.push(sdb_sql::ast::OrderItem {
                        expr: Expr::col(&format!("{}_ope", column.name)),
                        desc: key.desc,
                    });
                    continue;
                }
            }
            order_by.push(key.clone());
        }
        rewritten.order_by = order_by;

        Ok((rewritten.to_string(), decrypts))
    }

    fn rewrite_projection(&self, meta: &TableMeta, expr: &Expr) -> Result<(Expr, OnionDecrypt)> {
        // Bare plain column or expression over plain columns.
        if !self.expr_sensitive(meta, expr) {
            return Ok((expr.clone(), OnionDecrypt::Plain));
        }
        // Bare sensitive column → fetch the RND onion.
        if let Some(column) = self.column_meta(meta, expr) {
            let plain = column.plain_type().map_err(|e| BaselineError::Internal {
                detail: e.to_string(),
            })?;
            return Ok((
                Expr::col(&format!("{}_rnd", column.name)),
                OnionDecrypt::Rnd { plain },
            ));
        }
        // Aggregates of a bare sensitive column.
        if let Expr::Function { name, args, .. } = expr {
            if let Some(Expr::Column(_)) = args.first() {
                let column =
                    self.column_meta(meta, &args[0])
                        .ok_or_else(|| BaselineError::Internal {
                            detail: "unresolved aggregate argument".into(),
                        })?;
                if !column.is_numeric_sensitive() {
                    return Err(BaselineError::NotNativelySupported {
                        reason: "aggregate over an encrypted string".into(),
                    });
                }
                let plain = column.plain_type().map_err(|e| BaselineError::Internal {
                    detail: e.to_string(),
                })?;
                match name.to_ascii_uppercase().as_str() {
                    "SUM" => {
                        // The HOM onion supports addition. The engine has no
                        // Paillier aggregate UDF, so the server returns the
                        // (filtered) ciphertext column and the homomorphic fold +
                        // single decryption happen at the client — see decrypt().
                        return Ok((
                            Expr::col(&format!("{}_hom", column.name)),
                            OnionDecrypt::PaillierSum {
                                column: format!("{}_hom", column.name),
                                plain,
                            },
                        ));
                    }
                    "COUNT" => {
                        return Ok((
                            Expr::func("COUNT", vec![Expr::col(&format!("{}_det", column.name))]),
                            OnionDecrypt::Plain,
                        ))
                    }
                    "MIN" | "MAX" => {
                        return Ok((
                            Expr::func(name, vec![Expr::col(&format!("{}_ope", column.name))]),
                            OnionDecrypt::Ope { plain },
                        ))
                    }
                    _ => {
                        return Err(BaselineError::NotNativelySupported {
                            reason: format!("{name} over an encrypted column"),
                        })
                    }
                }
            }
            return Err(BaselineError::NotNativelySupported {
                reason: "aggregate of a computed expression over encrypted columns".into(),
            });
        }
        Err(BaselineError::NotNativelySupported {
            reason: format!("arithmetic over encrypted columns: {expr}"),
        })
    }

    fn rewrite_predicate(&self, meta: &TableMeta, expr: &Expr) -> Result<Expr> {
        match expr {
            Expr::Binary {
                left,
                op: op @ (BinaryOp::And | BinaryOp::Or),
                right,
            } => Ok(Expr::binary(
                self.rewrite_predicate(meta, left)?,
                *op,
                self.rewrite_predicate(meta, right)?,
            )),
            Expr::Binary { left, op, right } if op.is_comparison() => {
                let (column, literal, flipped) =
                    match (self.column_meta(meta, left), self.column_meta(meta, right)) {
                        (Some(c), None) if c.sensitive => (c, right.as_ref(), false),
                        (None, Some(c)) if c.sensitive => (c, left.as_ref(), true),
                        (Some(l), Some(r)) if l.sensitive || r.sensitive => {
                            return Err(BaselineError::NotNativelySupported {
                                reason: "comparing two encrypted columns".into(),
                            })
                        }
                        _ if self.expr_sensitive(meta, expr) => {
                            return Err(BaselineError::NotNativelySupported {
                                reason: format!("comparing a computed encrypted value: {expr}"),
                            })
                        }
                        _ => return Ok(expr.clone()),
                    };
                let Expr::Literal(literal) = literal else {
                    return Err(BaselineError::NotNativelySupported {
                        reason: "comparing an encrypted column with a computed value".into(),
                    });
                };
                let plain = column.plain_type().map_err(|e| BaselineError::Internal {
                    detail: e.to_string(),
                })?;
                let mut op = *op;
                if flipped {
                    op = flip(op);
                }
                match op {
                    BinaryOp::Eq | BinaryOp::NotEq => {
                        let tag = match (plain, literal) {
                            (PlainType::Varchar, Literal::Str(s)) => {
                                self.det.encrypt_str(&format!("onion:{}", column.name), s)
                            }
                            (_, lit) => {
                                let units = literal_units(lit, plain)?;
                                self.det
                                    .encrypt_i128(&format!("onion:{}", column.name), units)
                            }
                        };
                        let eq = Expr::func(
                            "SDB_TAG_EQ",
                            vec![
                                Expr::col(&format!("{}_det", column.name)),
                                Expr::str(&tag.to_string()),
                            ],
                        );
                        Ok(if op == BinaryOp::NotEq {
                            Expr::Unary {
                                op: sdb_sql::ast::UnaryOp::Not,
                                expr: Box::new(eq),
                            }
                        } else {
                            eq
                        })
                    }
                    _ => {
                        if !column.is_numeric_sensitive() {
                            return Err(BaselineError::NotNativelySupported {
                                reason: "range predicate over an encrypted string".into(),
                            });
                        }
                        let units = literal_units(literal, plain)?;
                        let bound = pad_ope(self.ope.encrypt(units));
                        Ok(Expr::binary(
                            Expr::col(&format!("{}_ope", column.name)),
                            op,
                            Expr::str(&bound),
                        ))
                    }
                }
            }
            Expr::Between {
                expr: tested,
                low,
                high,
                negated,
            } => {
                let ge = self.rewrite_predicate(
                    meta,
                    &Expr::binary(
                        tested.as_ref().clone(),
                        BinaryOp::GtEq,
                        low.as_ref().clone(),
                    ),
                )?;
                let le = self.rewrite_predicate(
                    meta,
                    &Expr::binary(
                        tested.as_ref().clone(),
                        BinaryOp::LtEq,
                        high.as_ref().clone(),
                    ),
                )?;
                let both = Expr::binary(ge, BinaryOp::And, le);
                Ok(if *negated {
                    Expr::Unary {
                        op: sdb_sql::ast::UnaryOp::Not,
                        expr: Box::new(both),
                    }
                } else {
                    both
                })
            }
            other if !self.expr_sensitive(meta, other) => Ok(other.clone()),
            other => Err(BaselineError::NotNativelySupported {
                reason: format!("predicate over encrypted data: {other}"),
            }),
        }
    }

    fn expr_sensitive(&self, meta: &TableMeta, expr: &Expr) -> bool {
        let mut columns = Vec::new();
        expr.referenced_columns(&mut columns);
        columns
            .iter()
            .any(|c| meta.column(c).map(|c| c.sensitive).unwrap_or(false))
    }

    fn decrypt(&self, server: &RecordBatch, decrypts: &[OnionDecrypt]) -> Result<RecordBatch> {
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); decrypts.len()];
        for row in 0..server.num_rows() {
            for (i, decrypt) in decrypts.iter().enumerate() {
                let value = server.column(i).value(row);
                let value = &*value;
                columns[i].push(match decrypt {
                    OnionDecrypt::Plain => value.clone(),
                    OnionDecrypt::Rnd { plain } => {
                        if value.is_null() {
                            Value::Null
                        } else {
                            let bytes = self
                                .rnd
                                .decrypt_bytes(&value.as_encrypted_row_id()?.0)
                                .map_err(|e| BaselineError::Internal {
                                    detail: e.to_string(),
                                })?;
                            decode_rnd(&bytes, *plain)?
                        }
                    }
                    OnionDecrypt::Ope { plain } => {
                        if value.is_null() {
                            Value::Null
                        } else {
                            let units = self.ope.decrypt(value.as_str()?.parse::<u128>().map_err(
                                |_| BaselineError::Internal {
                                    detail: "malformed OPE ciphertext".into(),
                                },
                            )?);
                            units_to_value(units, *plain)
                        }
                    }
                    OnionDecrypt::PaillierSum { .. } => value.clone(), // folded below
                });
            }
        }

        // Paillier SUM columns: the "server" cannot add them with a plain SUM, so
        // the client folds the ciphertexts homomorphically and decrypts once. (This
        // matches CryptDB's HOM onion; our engine simply has no Paillier aggregate
        // UDF, so the fold happens here and is charged to the client.)
        for (i, decrypt) in decrypts.iter().enumerate() {
            if let OnionDecrypt::PaillierSum { column, plain } = decrypt {
                // Re-query the filtered hom column? Not needed: fold what the server
                // returned for this column across rows.
                let _ = column;
                let mut acc = crate::paillier::PaillierCiphertext(BigUint::from(1u32));
                let mut saw = false;
                for value in &columns[i] {
                    if let Value::Encrypted(ct) = value {
                        acc = self
                            .paillier
                            .add(&acc, &crate::paillier::PaillierCiphertext(ct.clone()));
                        saw = true;
                    }
                }
                let folded = if saw {
                    let units = self.paillier.decrypt(&acc);
                    let half = self.paillier.n() >> 1u32;
                    let signed = if units > half {
                        -i128::try_from(self.paillier.n() - units).unwrap_or(0)
                    } else {
                        i128::try_from(units).unwrap_or(0)
                    };
                    units_to_value(signed, *plain)
                } else {
                    Value::Null
                };
                columns[i] = vec![folded];
            }
        }

        // Harmonise row counts (a Paillier fold collapses to one row only when every
        // column collapsed; mixed cases only occur for global aggregates where the
        // other columns are plain aggregates with a single row already).
        let rows = columns.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut defs = Vec::new();
        let mut out = Vec::new();
        for (i, values) in columns.into_iter().enumerate() {
            let mut values = values;
            while values.len() < rows {
                values.push(values.last().cloned().unwrap_or(Value::Null));
            }
            let data_type = values
                .iter()
                .find_map(|v| v.data_type())
                .unwrap_or(DataType::Int);
            defs.push(ColumnDef {
                name: format!("c{i}"),
                data_type,
                sensitivity: Sensitivity::Public,
            });
            let mut column = sdb_storage::Column::new(data_type);
            for v in values {
                column.push_unchecked(v);
            }
            out.push(column);
        }
        RecordBatch::new(Schema::new(defs), out).map_err(Into::into)
    }
}

/// How one server output column decrypts at the onion client.
#[derive(Debug, Clone)]
enum OnionDecrypt {
    Plain,
    Rnd { plain: PlainType },
    Ope { plain: PlainType },
    PaillierSum { column: String, plain: PlainType },
}

fn pad_ope(ct: u128) -> String {
    format!("{ct:040}")
}

fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

fn literal_units(literal: &Literal, plain: PlainType) -> Result<i128> {
    let value = match literal {
        Literal::Int(v) => Value::Int(*v),
        Literal::Decimal { units, scale } => Value::Decimal {
            units: *units,
            scale: *scale,
        },
        Literal::Date(d) => Value::Date(*d),
        Literal::Bool(b) => Value::Bool(*b),
        other => {
            return Err(BaselineError::NotNativelySupported {
                reason: format!("literal {other} in a numeric comparison"),
            })
        }
    };
    value.as_scaled_i128(plain.scale()).map_err(Into::into)
}

fn units_to_value(units: i128, plain: PlainType) -> Value {
    match plain {
        PlainType::Int => Value::Int(units as i64),
        PlainType::Decimal(scale) => Value::Decimal {
            units: units as i64,
            scale,
        },
        PlainType::Date => Value::Date(units as i32),
        PlainType::Bool => Value::Bool(units != 0),
        PlainType::Varchar => Value::Str(units.to_string()),
    }
}

fn decode_rnd(bytes: &[u8], plain: PlainType) -> Result<Value> {
    match plain {
        PlainType::Varchar => Ok(Value::Str(String::from_utf8(bytes.to_vec()).map_err(
            |_| BaselineError::Internal {
                detail: "RND payload is not UTF-8".into(),
            },
        )?)),
        _ => {
            let mut buf = [0u8; 16];
            let len = bytes.len().min(16);
            buf[..len].copy_from_slice(&bytes[..len]);
            Ok(units_to_value(i128::from_le_bytes(buf), plain))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> OnionClient {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("price", DataType::Decimal { scale: 2 }),
            ColumnDef::sensitive("qty", DataType::Int),
            ColumnDef::public("note", DataType::Varchar),
        ]);
        let mut table = Table::new("items", schema);
        for (id, price, qty, note) in [
            (1, 1050i64, 3i64, "a"),
            (2, 250, 10, "b"),
            (3, 9900, 1, "c"),
            (4, 1050, 7, "d"),
        ] {
            table
                .insert_row(vec![
                    Value::Int(id),
                    Value::Decimal {
                        units: price,
                        scale: 2,
                    },
                    Value::Int(qty),
                    Value::Str(note.into()),
                ])
                .unwrap();
        }
        let mut client = OnionClient::new(99).unwrap();
        client.upload_table(&table).unwrap();
        client
    }

    #[test]
    fn upload_produces_onion_columns_without_plaintext() {
        let client = fixture();
        let handle = client.engine().catalog().table("items").unwrap();
        let table = handle.read();
        let names: Vec<&str> = table
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert!(names.contains(&"price_det"));
        assert!(names.contains(&"price_ope"));
        assert!(names.contains(&"price_hom"));
        assert!(names.contains(&"qty_rnd"));
        let json = serde_json::to_string(&table.scan()).unwrap();
        assert!(
            !json.contains("9900"),
            "plaintext price leaked to the onion server"
        );
    }

    #[test]
    fn equality_and_range_filters_work() {
        let client = fixture();
        match client
            .try_query("SELECT id FROM items WHERE qty = 10")
            .unwrap()
        {
            OnionOutcome::Supported {
                batch,
                rewritten_sql,
            } => {
                assert_eq!(batch.num_rows(), 1);
                assert_eq!(*batch.column(0).value(0), Value::Int(2));
                assert!(rewritten_sql.contains("SDB_TAG_EQ(qty_det"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match client
            .try_query("SELECT id, price FROM items WHERE price > 10.00 ORDER BY id")
            .unwrap()
        {
            OnionOutcome::Supported { batch, .. } => {
                assert_eq!(batch.num_rows(), 3);
                assert_eq!(
                    *batch.column(1).value(0),
                    Value::Decimal {
                        units: 1050,
                        scale: 2
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sum_via_paillier_and_min_via_ope() {
        let client = fixture();
        match client
            .try_query("SELECT SUM(price) AS total FROM items WHERE qty >= 3")
            .unwrap()
        {
            OnionOutcome::Supported { batch, .. } => {
                assert_eq!(batch.num_rows(), 1);
                // Rows with qty >= 3: prices 10.50 + 2.50 + 10.50 = 23.50.
                assert_eq!(
                    *batch.column(0).value(0),
                    Value::Decimal {
                        units: 2350,
                        scale: 2
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        match client
            .try_query("SELECT MIN(price) AS lo FROM items")
            .unwrap()
        {
            OnionOutcome::Supported { batch, .. } => {
                assert_eq!(
                    *batch.column(0).value(0),
                    Value::Decimal {
                        units: 250,
                        scale: 2
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interoperability_gap_is_reported() {
        let client = fixture();
        for sql in [
            "SELECT SUM(price * qty) AS revenue FROM items",
            "SELECT price * qty AS v FROM items",
            "SELECT id FROM items WHERE price - qty > 5",
            "SELECT id FROM items WHERE price > qty",
        ] {
            match client.try_query(sql).unwrap() {
                OnionOutcome::RequiresClient { .. } => {}
                other => panic!("{sql} should require client processing, got {other:?}"),
            }
        }
    }

    #[test]
    fn plain_queries_pass_through() {
        let client = fixture();
        match client
            .try_query("SELECT id FROM items WHERE id <= 2 ORDER BY id")
            .unwrap()
        {
            OnionOutcome::Supported { batch, .. } => assert_eq!(batch.num_rows(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
