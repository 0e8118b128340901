//! The proxy's oracle: the DO-side half of the interactive protocol steps
//! (comparison signs, group tags, rank surrogates).
//!
//! The SP never learns key material from these exchanges: it sends encrypted row
//! ids plus blinded or encrypted shares, and receives back only sign bits or opaque
//! surrogates. The proxy, in turn, learns only blinded differences for comparisons
//! (magnitudes hidden by the SP's blinding factors) and the actual values of
//! columns it is explicitly asked to group or rank — values its own application
//! asked to group by in the first place.

use std::sync::Arc;

use num_bigint::BigUint;
use sdb_crypto::share::decrypt_value;
use sdb_crypto::{gen_item_keys, RowIdGenerator, SignedCodec, SystemKey};
use sdb_engine::secure::OracleRow;
use sdb_engine::{OracleRequest, OracleResponse, OracleResult, SdbOracle};
use sdb_storage::Value;

use crate::keystore::KeyStore;
use crate::meta::PlainType;
use crate::session::{HandleKey, QuerySession};

/// The oracle served by the proxy for one query.
pub struct ProxyOracle {
    system: SystemKey,
    row_ids: RowIdGenerator,
    tagger: sdb_crypto::EqualityTagger,
    codec: SignedCodec,
    session: Arc<QuerySession>,
}

impl ProxyOracle {
    /// Builds an oracle bound to a query session from the key store.
    pub fn new(keystore: &KeyStore, session: Arc<QuerySession>) -> Self {
        ProxyOracle {
            system: keystore.system().clone(),
            row_ids: keystore.row_id_generator(),
            tagger: keystore.tagger(),
            codec: SignedCodec::new(keystore.system()),
            session,
        }
    }

    /// The item key of every row of a request: for a row-keyed handle, all
    /// of them derived in one call from the rows' decrypted row ids.
    fn item_keys(&self, handle: &HandleKey, rows: &[OracleRow]) -> Result<Vec<BigUint>, String> {
        match handle {
            HandleKey::RowKeyed { key, .. } => {
                let row_ids = (rows.iter())
                    .map(|row| self.row_ids.decrypt(&row.row_id).map(|rid| rid.0))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("row id decryption failed: {e}"))?;
                Ok(gen_item_keys(&self.system, key, &row_ids))
            }
            HandleKey::RowIndependent { item_key, .. } => Ok(vec![item_key.clone(); rows.len()]),
        }
    }

    fn decode_of(handle: &HandleKey) -> PlainType {
        match handle {
            HandleKey::RowKeyed { decode, .. } => *decode,
            HandleKey::RowIndependent { decode, .. } => *decode,
        }
    }
}

/// Decodes scaled integer units into a runtime value according to the plain type.
pub fn decode_units(units: i128, plain: PlainType) -> Value {
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

impl SdbOracle for ProxyOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        let handle = self
            .session
            .handle(&request.handle)
            .map_err(|e| e.to_string())?;
        self.session.count_oracle_request(request.rows.len());
        let item_keys = self.item_keys(&handle, &request.rows)?;
        let rows = request.rows.iter().zip(&item_keys);

        match request.kind {
            sdb_engine::secure::OracleRequestKind::Sign => {
                let mut signs = Vec::with_capacity(request.rows.len());
                for (row, ik) in rows {
                    let residue = decrypt_value(&self.system, &row.share, ik);
                    signs.push(self.codec.sign(&residue));
                }
                Ok(OracleResponse::Signs(signs))
            }
            sdb_engine::secure::OracleRequestKind::GroupTag => {
                let decode = Self::decode_of(&handle);
                let mut tags = Vec::with_capacity(request.rows.len());
                for (row, ik) in rows {
                    let residue = decrypt_value(&self.system, &row.share, ik);
                    let units = self
                        .codec
                        .decode(&residue)
                        .map_err(|e| format!("decoding failed: {e}"))?;
                    let domain = match decode {
                        PlainType::Date => "sdb:date",
                        _ => "sdb:num",
                    };
                    let tag = self.tagger.tag_i128(domain, units);
                    self.session.record_tag(tag, decode_units(units, decode));
                    tags.push(tag);
                }
                Ok(OracleResponse::Tags(tags))
            }
            sdb_engine::secure::OracleRequestKind::Rank => {
                // Ranks are *opaque* order surrogates: the proxy decrypts the whole
                // batch, sorts the distinct values, and hands back dense ranks drawn
                // from a block reserved for this request. The SP learns only the
                // relative order within the batch (the leakage MIN/MAX/ORDER BY over
                // sensitive data requires) and cannot invert a rank to a value.
                let decode = Self::decode_of(&handle);
                let mut units_per_row = Vec::with_capacity(request.rows.len());
                for (row, ik) in rows {
                    let residue = decrypt_value(&self.system, &row.share, ik);
                    let units = self
                        .codec
                        .decode(&residue)
                        .map_err(|e| format!("decoding failed: {e}"))?;
                    units_per_row.push(units);
                }
                let mut distinct: Vec<i128> = units_per_row.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let base = self.session.allocate_rank_base(distinct.len());
                let ranks = units_per_row
                    .iter()
                    .map(|units| {
                        let position = distinct
                            .binary_search(units)
                            .expect("value came from the same batch")
                            as u64;
                        let rank = base + position;
                        self.session.record_rank(rank, decode_units(*units, decode));
                        rank
                    })
                    .collect();
                Ok(OracleResponse::Ranks(ranks))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdb_crypto::share::{encrypt_value, gen_item_key};
    use sdb_crypto::KeyConfig;
    use sdb_engine::secure::OracleRequestKind;

    struct Setup {
        keystore: KeyStore,
        session: Arc<QuerySession>,
        oracle: ProxyOracle,
        rng: StdRng,
    }

    fn setup() -> Setup {
        let keystore = KeyStore::generate(KeyConfig::TEST, 21).unwrap();
        let session = Arc::new(QuerySession::new());
        let oracle = ProxyOracle::new(&keystore, session.clone());
        Setup {
            keystore,
            session,
            oracle,
            rng: StdRng::seed_from_u64(77),
        }
    }

    /// Encrypts `value` in a fresh row under a fresh column key, registers a handle,
    /// and returns the oracle row plus the handle.
    fn encrypted_row(setup: &mut Setup, value: i64, decode: PlainType) -> (OracleRow, String) {
        let system = setup.keystore.system().clone();
        let codec = SignedCodec::new(&system);
        let key = system.gen_column_key(&mut setup.rng);
        let rid = setup
            .keystore
            .row_id_generator()
            .generate(&mut setup.rng, &system);
        let enc_rid = setup
            .keystore
            .row_id_generator()
            .encrypt(&mut setup.rng, &rid);
        let ik = gen_item_key(&system, &key, rid.value());
        let share = encrypt_value(&system, &codec.encode(i128::from(value)).unwrap(), &ik);
        let handle = setup
            .session
            .register_handle(HandleKey::RowKeyed { key, decode });
        (
            OracleRow {
                row_id: enc_rid,
                share,
            },
            handle,
        )
    }

    #[test]
    fn sign_resolution_with_blinding() {
        let mut s = setup();
        for (value, expected) in [(42i64, 1i8), (-17, -1), (0, 0)] {
            let (mut row, handle) = encrypted_row(&mut s, value, PlainType::Int);
            // Simulate the SP's blinding: multiply the share by a positive factor.
            row.share = row.share * BigUint::from(12_345u32) % s.keystore.system().n();
            let response = s
                .oracle
                .resolve(OracleRequest {
                    kind: OracleRequestKind::Sign,
                    handle,
                    rows: vec![row],
                })
                .unwrap();
            assert_eq!(
                response,
                OracleResponse::Signs(vec![expected]),
                "value {value}"
            );
        }
        assert_eq!(s.session.oracle_requests(), 3);
    }

    #[test]
    fn group_tags_are_consistent_and_recoverable() {
        let mut s = setup();
        let (row_a, handle_a) = encrypted_row(&mut s, 7, PlainType::Int);
        let (row_b, handle_b) = encrypted_row(&mut s, 7, PlainType::Int);
        let (row_c, handle_c) = encrypted_row(&mut s, 9, PlainType::Int);
        let tag_of = |oracle: &ProxyOracle, row: OracleRow, handle: String| -> u64 {
            match oracle
                .resolve(OracleRequest {
                    kind: OracleRequestKind::GroupTag,
                    handle,
                    rows: vec![row],
                })
                .unwrap()
            {
                OracleResponse::Tags(t) => t[0],
                other => panic!("unexpected {other:?}"),
            }
        };
        let ta = tag_of(&s.oracle, row_a, handle_a);
        let tb = tag_of(&s.oracle, row_b, handle_b);
        let tc = tag_of(&s.oracle, row_c, handle_c);
        // Equal plaintexts get equal tags even under different column keys/handles.
        assert_eq!(ta, tb);
        assert_ne!(ta, tc);
        // And the session can map the tag back to the plaintext for the decryptor.
        assert_eq!(s.session.tag_value(ta), Some(Value::Int(7)));
        assert_eq!(s.session.tag_value(tc), Some(Value::Int(9)));
    }

    #[test]
    fn ranks_preserve_order_and_decode() {
        let mut s = setup();
        let values = [-500i64, -1, 0, 3, 1_000_000];
        let mut ranks = Vec::new();
        for v in values {
            let (row, handle) = encrypted_row(&mut s, v, PlainType::Decimal(2));
            match s
                .oracle
                .resolve(OracleRequest {
                    kind: OracleRequestKind::Rank,
                    handle,
                    rows: vec![row],
                })
                .unwrap()
            {
                OracleResponse::Ranks(r) => ranks.push(r[0]),
                other => panic!("unexpected {other:?}"),
            }
        }
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "rank surrogates must be order-preserving");
        assert_eq!(
            s.session.rank_value(ranks[0]),
            Some(Value::Decimal {
                units: -500,
                scale: 2
            })
        );
    }

    #[test]
    fn unknown_handle_is_rejected() {
        let mut s = setup();
        let (row, _) = encrypted_row(&mut s, 1, PlainType::Int);
        let err = s.oracle.resolve(OracleRequest {
            kind: OracleRequestKind::Sign,
            handle: "h999".into(),
            rows: vec![row],
        });
        assert!(err.is_err());
    }
}
