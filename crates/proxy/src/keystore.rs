//! The proxy's key store (demo step 1: "examining the key store in the SDB proxy").
//!
//! The key store holds everything the DO must keep secret: the system key (ρ₁, ρ₂,
//! φ(n), g), the per-column column keys, each table's auxiliary all-ones column key,
//! the row-id cipher, the SIES cipher for sensitive VARCHAR payloads and the
//! equality-tag PRF key. Its size is what the demo invites attendees to inspect —
//! the point being that it is tiny compared to the outsourced data (a handful of
//! numbers per column, independent of row count).
//!
//! Beside the keys it keeps what encrypting under them needs and never
//! serialises: each column key's [`ColumnCipher`] (its `m⁻¹`, a DO secret like
//! `m`), derived when a table's keys are registered or the store is read
//! back, so an upload or INSERT inverts nothing. `Debug` prints the store's
//! shape — the profile, table and column names — and no key.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use sdb_crypto::prf::PrfKey;
use sdb_crypto::{
    ColumnCipher, ColumnKey, Drbg, EqualityTagger, KeyConfig, RowIdGenerator, SiesCipher, SystemKey,
};

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

/// The ciphers of one table's column keys ([`SystemKey::column_cipher`]).
#[derive(Clone, Debug)]
pub struct TableCiphers {
    /// The cipher of the auxiliary all-ones column's key.
    pub aux: ColumnCipher,
    /// The ciphers of the sensitive numeric columns' keys, by column name.
    pub columns: BTreeMap<String, ColumnCipher>,
}

impl TableCiphers {
    fn of(system: &SystemKey, keys: &TableKeys) -> Result<TableCiphers> {
        let mut columns = BTreeMap::new();
        for (name, key) in &keys.columns {
            columns.insert(name.clone(), system.column_cipher(key)?);
        }
        Ok(TableCiphers {
            aux: system.column_cipher(&keys.aux)?,
            columns,
        })
    }
}

/// The persisted part of a [`KeyStore`]: exactly the fields its JSON holds.
#[derive(Clone, Serialize, Deserialize)]
struct StoredKeys {
    system: SystemKey,
    row_id_prf: (PrfKey, PrfKey),
    payload_prf: (PrfKey, PrfKey),
    tag_key: PrfKey,
    tables: BTreeMap<String, TableKeys>,
}

/// The DO's key store.
#[derive(Clone)]
pub struct KeyStore {
    keys: StoredKeys,
    /// The ciphers of every table's keys, by table name: derived from the
    /// keys, never serialised.
    ciphers: BTreeMap<String, TableCiphers>,
}

impl fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tables: BTreeMap<&String, Vec<&String>> = (self.keys.tables.iter())
            .map(|(name, keys)| (name, keys.columns.keys().collect()))
            .collect();
        f.debug_struct("KeyStore")
            .field("system", &self.keys.system)
            .field("tables", &tables)
            .finish_non_exhaustive()
    }
}

impl Serialize for KeyStore {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        self.keys.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for KeyStore {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let keys = StoredKeys::deserialize(deserializer)?;
        let mut ciphers = BTreeMap::new();
        for (name, table) in &keys.tables {
            let table = TableCiphers::of(&keys.system, table).map_err(serde::de::Error::custom)?;
            ciphers.insert(name.clone(), table);
        }
        Ok(KeyStore { keys, ciphers })
    }
}

impl KeyStore {
    /// Generates a key store under the given parameter profile with every
    /// secret drawn from `rng`: an OS-keyed [`Drbg`] for a deployment, a
    /// seeded one (`Drbg::seed_from_u64`) for a fixture.
    pub fn generate(config: KeyConfig, rng: &mut Drbg) -> Result<KeyStore> {
        let system = SystemKey::generate(rng, config)?;
        let keys = StoredKeys {
            system,
            row_id_prf: (PrfKey::random(rng), PrfKey::random(rng)),
            payload_prf: (PrfKey::random(rng), PrfKey::random(rng)),
            tag_key: PrfKey::random(rng),
            tables: BTreeMap::new(),
        };
        Ok(KeyStore {
            keys,
            ciphers: BTreeMap::new(),
        })
    }

    /// The system key.
    pub fn system(&self) -> &SystemKey {
        &self.keys.system
    }

    /// The row-id generator (SIES-style cipher over row ids).
    pub fn row_id_generator(&self) -> RowIdGenerator {
        RowIdGenerator::with_cipher(SiesCipher::new(
            self.keys.row_id_prf.0,
            self.keys.row_id_prf.1,
        ))
    }

    /// The cipher used for sensitive VARCHAR payloads.
    pub fn payload_cipher(&self) -> SiesCipher {
        SiesCipher::new(self.keys.payload_prf.0, self.keys.payload_prf.1)
    }

    /// The deterministic equality tagger (upload-time tags and literal tags during
    /// rewriting).
    pub fn tagger(&self) -> EqualityTagger {
        EqualityTagger::new(self.keys.tag_key)
    }

    /// Registers keys for a newly uploaded table, generating an aux key plus one
    /// column key per sensitive numeric column, and derives their ciphers.
    pub fn register_table(
        &mut self,
        rng: &mut Drbg,
        table: &str,
        sensitive_numeric_columns: &[String],
    ) -> Result<&TableKeys> {
        let name = table.to_ascii_lowercase();
        if self.keys.tables.contains_key(&name) {
            return Err(ProxyError::Protocol {
                detail: format!("table {name} already has keys registered"),
            });
        }
        let system = &self.keys.system;
        let aux = system.gen_aux_column_key(rng);
        let mut columns = BTreeMap::new();
        for column in sensitive_numeric_columns {
            columns.insert(column.to_ascii_lowercase(), system.gen_column_key(rng));
        }
        let keys = TableKeys { aux, columns };
        self.ciphers
            .insert(name.clone(), TableCiphers::of(system, &keys)?);
        Ok(self.keys.tables.entry(name).or_insert(keys))
    }

    /// Keys for a table.
    pub fn table_keys(&self, table: &str) -> Result<&TableKeys> {
        self.keys
            .tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| ProxyError::UnknownTable {
                name: table.to_string(),
            })
    }

    /// The ciphers of a table's keys: what encrypting its rows needs.
    pub fn table_ciphers(&self, table: &str) -> Result<&TableCiphers> {
        self.ciphers
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
        self.keys.tables.keys().cloned().collect()
    }

    /// Serialised size of the key store in bytes (what demo step 1 inspects).
    pub fn approx_size_bytes(&self) -> usize {
        serde_json::to_vec(self).map(|v| v.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn store() -> KeyStore {
        KeyStore::generate(KeyConfig::TEST, &mut Drbg::seed_from_u64(7)).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut ks = store();
        let mut rng = Drbg::seed_from_u64(1);
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
        let mut rng = Drbg::seed_from_u64(2);
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
        let mut rng = Drbg::seed_from_u64(3);
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
        let mut rng = Drbg::seed_from_u64(5);
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
        let mut rng = Drbg::seed_from_u64(9);
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
