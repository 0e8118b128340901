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
use sdb_crypto::rowid::EncryptedRowId;
use sdb_crypto::share::decrypt_lanes;
use sdb_crypto::{ColumnKey, EqualityTagger, ItemKeyMemo, RowIdGenerator, SignedCodec, SystemKey};
use sdb_engine::secure::{OracleRequestKind, OracleRows};
use sdb_engine::{OracleRequest, OracleResponse, OracleResult, SdbOracle};
use sdb_storage::Value;

use crate::keystore::KeyStore;
use crate::meta::PlainType;
use crate::session::{HandleKey, QuerySession};

/// What every query's oracle and the result decryptor derive their answers
/// from: the system key, the row-id cipher, the tagger, the codec and the
/// item-key memo. A proxy builds them once and shares them; none of it is
/// part of the key store or its JSON, and `Debug` shows the memo's counts
/// only.
pub struct OracleParts {
    pub(crate) system: SystemKey,
    row_ids: RowIdGenerator,
    tagger: EqualityTagger,
    pub(crate) codec: SignedCodec,
    memo: ItemKeyMemo,
}

impl OracleParts {
    /// Builds the parts from the key store, with an empty memo that admits
    /// nothing yet.
    pub fn new(keystore: &KeyStore) -> Self {
        OracleParts {
            system: keystore.system().clone(),
            row_ids: keystore.row_id_generator(),
            tagger: keystore.tagger(),
            codec: SignedCodec::new(keystore.system()),
            memo: ItemKeyMemo::default(),
        }
    }

    /// The item-key memo.
    pub fn memo(&self) -> &ItemKeyMemo {
        &self.memo
    }

    /// The item key under `key` of every row whose encrypted row id
    /// `row_ids` yields, through the memo, counted in `session`. Every row id
    /// is decrypted (and its MAC checked) whether or not the memo holds it.
    pub(crate) fn row_keyed<'r>(
        &self,
        key: &ColumnKey,
        row_ids: impl Iterator<Item = &'r EncryptedRowId>,
        session: &QuerySession,
    ) -> sdb_crypto::Result<Vec<BigUint>> {
        let row_ids = self.decrypt_row_ids(row_ids)?;
        let (item_keys, counts) = self.memo.item_keys(&self.system, key, &row_ids);
        session.count_item_keys(counts);
        Ok(item_keys)
    }

    /// [`Self::row_keyed`] in Montgomery form, as a lane
    /// ([`ItemKeyMemo::item_key_lanes`]).
    fn row_keyed_lanes(
        &self,
        key: &ColumnKey,
        row_ids: &[EncryptedRowId],
        session: &QuerySession,
    ) -> sdb_crypto::Result<Vec<u64>> {
        let row_ids = self.decrypt_row_ids(row_ids.iter())?;
        let (item_keys, counts) = self.memo.item_key_lanes(&self.system, key, &row_ids);
        session.count_item_keys(counts);
        Ok(item_keys)
    }

    fn decrypt_row_ids<'r>(
        &self,
        row_ids: impl Iterator<Item = &'r EncryptedRowId>,
    ) -> sdb_crypto::Result<Vec<BigUint>> {
        (row_ids.map(|row_id| self.row_ids.decrypt(row_id).map(|rid| rid.0))).collect()
    }
}

impl std::fmt::Debug for OracleParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleParts")
            .field("memo", &self.memo)
            .finish_non_exhaustive()
    }
}

/// The oracle served by the proxy for one query.
pub struct ProxyOracle {
    parts: Arc<OracleParts>,
    session: Arc<QuerySession>,
}

impl ProxyOracle {
    /// Builds an oracle bound to a query session from the key store.
    pub fn new(keystore: &KeyStore, session: Arc<QuerySession>) -> Self {
        ProxyOracle::with_parts(Arc::new(OracleParts::new(keystore)), session)
    }

    /// Builds an oracle bound to a query session from parts built earlier.
    pub fn with_parts(parts: Arc<OracleParts>, session: Arc<QuerySession>) -> Self {
        ProxyOracle { parts, session }
    }

    /// The residues of a request's shares, decrypted a lane at a time
    /// (`limbs(n)` limbs a row): under the rows' item keys in Montgomery
    /// form for a row-keyed handle, all of them from one memo call, or under
    /// the handle's one key.
    fn residues(&self, handle: &HandleKey, rows: &OracleRows) -> Result<Vec<u64>, String> {
        let system = &self.parts.system;
        let item_keys = match handle {
            HandleKey::RowKeyed { key, .. } => (self.parts)
                .row_keyed_lanes(key, rows.row_ids(), &self.session)
                .map_err(|e| format!("row id decryption failed: {e}"))?,
            HandleKey::RowIndependent { item_key, .. } => system.modulus().mont_row(item_key),
        };
        let shares = rows.shares();
        Ok(decrypt_lanes(
            system,
            rows.len(),
            shares.width(),
            shares.words(),
            &item_keys,
        ))
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
        let residues = self.residues(&handle, &request.rows)?;
        let OracleParts {
            system,
            codec,
            tagger,
            ..
        } = &*self.parts;
        let residues = residues.chunks_exact(system.modulus().lane_limbs());
        let decode = |residue: &[u64]| {
            codec
                .decode_limbs(residue)
                .map_err(|e| format!("decoding failed: {e}"))
        };

        match request.kind {
            OracleRequestKind::Sign => Ok(OracleResponse::Signs(
                residues.map(|residue| codec.sign_limbs(residue)).collect(),
            )),
            OracleRequestKind::GroupTag => {
                let decode_as = Self::decode_of(&handle);
                let domain = match decode_as {
                    PlainType::Date => "sdb:date",
                    _ => "sdb:num",
                };
                let mut tags = Vec::with_capacity(request.rows.len());
                for residue in residues {
                    let units = decode(residue)?;
                    let tag = tagger.tag_i128(domain, units);
                    self.session.record_tag(tag, decode_units(units, decode_as));
                    tags.push(tag);
                }
                Ok(OracleResponse::Tags(tags))
            }
            OracleRequestKind::Rank => {
                // Ranks are *opaque* order surrogates: the proxy decrypts the whole
                // batch, sorts the distinct values, and hands back dense ranks drawn
                // from a block reserved for this request. The SP learns only the
                // relative order within the batch (the leakage MIN/MAX/ORDER BY over
                // sensitive data requires) and cannot invert a rank to a value.
                let decode_as = Self::decode_of(&handle);
                let units_per_row = residues.map(decode).collect::<Result<Vec<i128>, _>>()?;
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
                        self.session
                            .record_rank(rank, decode_units(*units, decode_as));
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
    use rand::SeedableRng;
    use sdb_crypto::share::{encrypt_value, gen_item_key};
    use sdb_crypto::{Drbg, KeyConfig};

    struct Setup {
        keystore: KeyStore,
        session: Arc<QuerySession>,
        oracle: ProxyOracle,
        rng: Drbg,
    }

    fn setup() -> Setup {
        let keystore = KeyStore::generate(KeyConfig::TEST, &mut Drbg::seed_from_u64(21)).unwrap();
        let session = Arc::new(QuerySession::new());
        let oracle = ProxyOracle::new(&keystore, session.clone());
        Setup {
            keystore,
            session,
            oracle,
            rng: Drbg::seed_from_u64(77),
        }
    }

    /// Encrypts `value` in a fresh row under a fresh column key, registers a handle,
    /// and returns the oracle row plus the handle.
    fn encrypted_row(
        setup: &mut Setup,
        value: i64,
        decode: PlainType,
    ) -> ((EncryptedRowId, BigUint), String) {
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
        ((enc_rid, share), handle)
    }

    #[test]
    fn sign_resolution_with_blinding() {
        let mut s = setup();
        for (value, expected) in [(42i64, 1i8), (-17, -1), (0, 0)] {
            let ((row_id, share), handle) = encrypted_row(&mut s, value, PlainType::Int);
            // Simulate the SP's blinding: multiply the share by a positive factor.
            let share = share * BigUint::from(12_345u32) % s.keystore.system().n();
            let response = s
                .oracle
                .resolve(OracleRequest {
                    kind: OracleRequestKind::Sign,
                    handle,
                    rows: [(row_id, share)].into_iter().collect(),
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
        let tag_of =
            |oracle: &ProxyOracle, row: (EncryptedRowId, BigUint), handle: String| match oracle
                .resolve(OracleRequest {
                    kind: OracleRequestKind::GroupTag,
                    handle,
                    rows: [row].into_iter().collect(),
                })
                .unwrap()
            {
                OracleResponse::Tags(t) => t[0],
                other => panic!("unexpected {other:?}"),
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
                    rows: [row].into_iter().collect(),
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
            rows: [row].into_iter().collect(),
        });
        assert!(err.is_err());
    }
}
