//! The proxy's key store (demo step 1: "examining the key store in the SDB proxy").
//!
//! The key store holds everything the DO must keep secret: the system key (ρ₁, ρ₂,
//! φ(n), g), the per-column column keys, each table's auxiliary all-ones column key,
//! the row-id cipher, the SIES cipher for sensitive VARCHAR payloads and the
//! equality-tag PRF key. Its size is what the demo invites attendees to inspect —
//! the point being that it is tiny compared to the outsourced data (a handful of
//! numbers per column, independent of row count).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sdb_crypto::prf::PrfKey;
use sdb_crypto::{ColumnKey, EqualityTagger, KeyConfig, RowIdGenerator, SiesCipher, SystemKey};

use crate::{ProxyError, Result};

/// Keys for one uploaded table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableKeys {
    /// Column key of the auxiliary all-ones column `S` (its `x` is invertible
    /// modulo φ(n); see ARCHITECTURE.md, "Modular arithmetic").
    pub aux: ColumnKey,
    /// Column keys of the sensitive numeric columns, by column name.
    pub columns: BTreeMap<String, ColumnKey>,
}

/// The DO's key store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeyStore {
    system: SystemKey,
    row_id_prf: (PrfKey, PrfKey),
    payload_prf: (PrfKey, PrfKey),
    tag_key: PrfKey,
    tables: BTreeMap<String, TableKeys>,
    rng_seed: u64,
}

impl KeyStore {
    /// Generates a key store under the given parameter profile from a
    /// fixture seed: the same seed gives the same keys, so this is for
    /// tests, benchmarks and examples ([`Self::generate_with`] draws from a
    /// real source).
    pub fn generate(config: KeyConfig, seed: u64) -> Result<KeyStore> {
        KeyStore::draw(config, &mut StdRng::seed_from_u64(seed), seed)
    }

    /// Generates a key store under the given parameter profile with every
    /// secret drawn from `rng` — an OS-keyed [`sdb_crypto::Drbg`] for a
    /// deployment — including the seed of [`Self::derived_rng`].
    pub fn generate_with<R: Rng + ?Sized>(config: KeyConfig, rng: &mut R) -> Result<KeyStore> {
        let mut keystore = KeyStore::draw(config, rng, 0)?;
        keystore.rng_seed = rng.gen();
        Ok(keystore)
    }

    fn draw<R: Rng + ?Sized>(config: KeyConfig, rng: &mut R, rng_seed: u64) -> Result<KeyStore> {
        let system = SystemKey::generate(rng, config)?;
        Ok(KeyStore {
            system,
            row_id_prf: (PrfKey::random(rng), PrfKey::random(rng)),
            payload_prf: (PrfKey::random(rng), PrfKey::random(rng)),
            tag_key: PrfKey::random(rng),
            tables: BTreeMap::new(),
            rng_seed,
        })
    }

    /// The system key.
    pub fn system(&self) -> &SystemKey {
        &self.system
    }

    /// A fresh RNG derived from the store's seed plus a salt (kept deterministic so
    /// uploads and rewrites are reproducible in tests and benches).
    pub fn derived_rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.rng_seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The row-id generator (SIES-style cipher over row ids).
    pub fn row_id_generator(&self) -> RowIdGenerator {
        RowIdGenerator::with_cipher(SiesCipher::new(self.row_id_prf.0, self.row_id_prf.1))
    }

    /// The cipher used for sensitive VARCHAR payloads.
    pub fn payload_cipher(&self) -> SiesCipher {
        SiesCipher::new(self.payload_prf.0, self.payload_prf.1)
    }

    /// The deterministic equality tagger (upload-time tags and literal tags during
    /// rewriting).
    pub fn tagger(&self) -> EqualityTagger {
        EqualityTagger::new(self.tag_key)
    }

    /// Registers keys for a newly uploaded table, generating an aux key plus one
    /// column key per sensitive numeric column.
    pub fn register_table<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        table: &str,
        sensitive_numeric_columns: &[String],
    ) -> Result<&TableKeys> {
        let name = table.to_ascii_lowercase();
        if self.tables.contains_key(&name) {
            return Err(ProxyError::Protocol {
                detail: format!("table {name} already has keys registered"),
            });
        }
        let aux = self.system.gen_aux_column_key(rng);
        let mut columns = BTreeMap::new();
        for column in sensitive_numeric_columns {
            columns.insert(column.to_ascii_lowercase(), self.system.gen_column_key(rng));
        }
        self.tables.insert(name.clone(), TableKeys { aux, columns });
        Ok(self.tables.get(&name).expect("just inserted"))
    }

    /// Keys for a table.
    pub fn table_keys(&self, table: &str) -> Result<&TableKeys> {
        self.tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| ProxyError::UnknownTable {
                name: table.to_string(),
            })
    }

    /// Column key of a sensitive numeric column.
    pub fn column_key(&self, table: &str, column: &str) -> Result<&ColumnKey> {
        let keys = self.table_keys(table)?;
        keys.columns
            .get(&column.to_ascii_lowercase())
            .ok_or_else(|| ProxyError::UnknownColumn {
                name: format!("{table}.{column}"),
            })
    }

    /// Names of tables with registered keys.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Serialised size of the key store in bytes (what demo step 1 inspects).
    pub fn approx_size_bytes(&self) -> usize {
        serde_json::to_vec(self).map(|v| v.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KeyStore {
        KeyStore::generate(KeyConfig::TEST, 7).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut ks = store();
        let mut rng = ks.derived_rng(1);
        ks.register_table(&mut rng, "Emp", &["salary".into(), "bonus".into()])
            .unwrap();
        assert!(ks.column_key("emp", "SALARY").is_ok());
        assert!(ks.column_key("emp", "missing").is_err());
        assert!(ks.column_key("ghost", "salary").is_err());
        assert!(ks.register_table(&mut rng, "emp", &[]).is_err());
        assert_eq!(ks.table_names(), vec!["emp"]);
    }

    #[test]
    fn aux_key_is_invertible_mod_phi() {
        let mut ks = store();
        let mut rng = ks.derived_rng(2);
        let keys = ks
            .register_table(&mut rng, "t", &["a".into()])
            .unwrap()
            .clone();
        let phi = ks.system().phi().clone();
        assert!(sdb_crypto::bigint::coprime(keys.aux.x(), &phi));
    }

    #[test]
    fn key_store_size_is_small_and_grows_per_column_not_per_row() {
        let mut ks = store();
        let base = ks.approx_size_bytes();
        assert!(base > 0);
        let mut rng = ks.derived_rng(3);
        ks.register_table(&mut rng, "t1", &["a".into(), "b".into(), "c".into()])
            .unwrap();
        let after = ks.approx_size_bytes();
        assert!(after > base);
        // The growth is a few hundred bytes per column key, not proportional to data.
        assert!(after - base < 16_384);
    }

    #[test]
    fn ciphers_are_stable_across_reconstruction() {
        let ks = store();
        let mut rng = StdRng::seed_from_u64(5);
        let gen1 = ks.row_id_generator();
        let gen2 = ks.row_id_generator();
        let rid = gen1.generate(&mut rng, ks.system());
        let enc = gen1.encrypt(&mut rng, &rid);
        assert_eq!(gen2.decrypt(&enc).unwrap(), rid);

        let tagger = ks.tagger();
        assert_eq!(tagger.tag_i128("d", 5), ks.tagger().tag_i128("d", 5));
    }

    #[test]
    fn serde_roundtrip_preserves_keys() {
        let mut ks = store();
        let mut rng = ks.derived_rng(9);
        ks.register_table(&mut rng, "t", &["a".into()]).unwrap();
        let json = serde_json::to_string(&ks).unwrap();
        let back: KeyStore = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.column_key("t", "a").unwrap(),
            ks.column_key("t", "a").unwrap()
        );
        assert_eq!(back.system().n(), ks.system().n());
    }
}
