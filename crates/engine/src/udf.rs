//! The UDF registry and the built-in scalar functions, including the SDB secure
//! scalar UDFs.
//!
//! The paper's prototype registers its secure operators as Hive UDFs inside Spark
//! SQL; here they are [`ScalarUdf`] implementations registered in a [`UdfRegistry`]
//! that the expression evaluator consults. The SDB UDFs operate exclusively on
//! [`Value::Encrypted`] shares and the public modulus `n` — no key material.
//!
//! `n`, `p` and `q` reach a UDF as decimal strings, the same ones on every row
//! of a call site. Each SDB UDF instance therefore remembers the constants it
//! saw last together with what it derived from them (the parsed numbers, the
//! bound key update), and re-derives only when a different text arrives. The
//! evaluator gives every call site of a query its own instance
//! ([`ScalarUdf::site_instance`], [`UdfSites`]), so two sites with different
//! constants never evict each other; see ARCHITECTURE.md, "Modular arithmetic".

use std::collections::HashMap;
use std::sync::Arc;

use num_bigint::BigUint;
use parking_lot::Mutex;
use sdb_crypto::bigint::{mod_add, mod_mul};
use sdb_crypto::{BoundKeyUpdate, KeyUpdateParams};
use sdb_storage::Value;

use crate::secure::parse_biguint_arg;
use crate::{EngineError, Result};

/// A scalar user-defined function evaluated row by row.
pub trait ScalarUdf: Send + Sync {
    /// The function's upper-case name.
    fn name(&self) -> &str;
    /// Evaluates the function on one row's argument values.
    fn invoke(&self, args: &[Value]) -> Result<Value>;
    /// A fresh instance for one call site, for functions that remember their
    /// constant arguments between calls; `None` when the shared instance
    /// serves every site equally well.
    fn site_instance(&self) -> Option<Arc<dyn ScalarUdf>> {
        None
    }
    /// The constant arguments this instance remembers between calls, as the
    /// texts they arrived in. This is all the state an SP-side function keeps,
    /// and what the leakage audit scans.
    fn remembered_constants(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The UDF instances of one query's call sites, shared by every evaluator of
/// the query so that a site's constants are bound once per query, not once per
/// batch. Sites are told apart by function name and literal arguments.
#[derive(Default)]
pub struct UdfSites {
    sites: Mutex<HashMap<String, Arc<dyn ScalarUdf>>>,
}

impl UdfSites {
    /// The instance serving the call of `name` with the given `signature`
    /// (the name and the literal arguments, rendered).
    pub(crate) fn resolve(
        &self,
        registry: &UdfRegistry,
        name: &str,
        signature: String,
    ) -> Result<Arc<dyn ScalarUdf>> {
        let mut sites = self.sites.lock();
        if let Some(udf) = sites.get(&signature) {
            return Ok(Arc::clone(udf));
        }
        let udf = registry.site(name)?;
        sites.insert(signature, Arc::clone(&udf));
        Ok(udf)
    }

    /// Every constant remembered by any site (see
    /// [`ScalarUdf::remembered_constants`]).
    pub fn remembered_constants(&self) -> Vec<String> {
        let sites = self.sites.lock();
        sites
            .values()
            .flat_map(|udf| udf.remembered_constants())
            .collect()
    }
}

/// Registry of scalar UDFs, keyed by upper-case name.
#[derive(Clone)]
pub struct UdfRegistry {
    udfs: HashMap<String, Arc<dyn ScalarUdf>>,
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.udfs.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("UdfRegistry").field("udfs", &names).finish()
    }
}

impl UdfRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        UdfRegistry {
            udfs: HashMap::new(),
        }
    }

    /// The standard registry: plain scalar helpers plus the full SDB UDF set.
    /// This is what the paper's "relational engine with a set of SDB UDFs" means.
    pub fn with_sdb_udfs() -> Self {
        let mut registry = UdfRegistry::empty();
        registry.register(Arc::new(YearUdf));
        registry.register(Arc::new(AbsUdf));
        registry.register(Arc::new(SdbMultiplyUdf::default()));
        registry.register(Arc::new(SdbAddUdf::default()));
        registry.register(Arc::new(SdbKeyUpdateUdf::default()));
        registry.register(Arc::new(SdbMulPlainUdf::default()));
        registry.register(Arc::new(SdbAddPlainUdf::default()));
        registry.register(Arc::new(SdbTagEqUdf));
        registry
    }

    /// Registers a UDF (replacing any previous one with the same name).
    pub fn register(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.udfs.insert(udf.name().to_ascii_uppercase(), udf);
    }

    /// Looks up a UDF by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn ScalarUdf>> {
        self.udfs.get(&name.to_ascii_uppercase()).cloned()
    }

    /// The instance to evaluate one call site of `name` with: a private one
    /// where the function keeps per-site state, the shared one otherwise.
    pub(crate) fn site(&self, name: &str) -> Result<Arc<dyn ScalarUdf>> {
        let shared = self.get(name).ok_or_else(|| EngineError::UnknownFunction {
            name: name.to_string(),
        })?;
        Ok(shared.site_instance().unwrap_or(shared))
    }

    /// Registered UDF names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.udfs.keys().cloned().collect();
        names.sort_unstable();
        names
    }
}

impl Default for UdfRegistry {
    fn default() -> Self {
        UdfRegistry::with_sdb_udfs()
    }
}

// ---------------------------------------------------------------------------
// Plain scalar helpers
// ---------------------------------------------------------------------------

/// `YEAR(date)` — extracts the calendar year from a date value.
pub struct YearUdf;

impl ScalarUdf for YearUdf {
    fn name(&self) -> &str {
        "YEAR"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let [arg] = args else {
            return Err(arity_error("YEAR", 1, args.len()));
        };
        match arg {
            Value::Null => Ok(Value::Null),
            Value::Date(days) => {
                let (year, _, _) = sdb_sql::dates::civil_from_days(*days);
                Ok(Value::Int(i64::from(year)))
            }
            other => Err(EngineError::UdfInvocation {
                name: "YEAR".into(),
                detail: format!("expected DATE argument, found {other:?}"),
            }),
        }
    }
}

/// `ABS(x)` — absolute value of an integer or decimal.
pub struct AbsUdf;

impl ScalarUdf for AbsUdf {
    fn name(&self) -> &str {
        "ABS"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let [arg] = args else {
            return Err(arity_error("ABS", 1, args.len()));
        };
        match arg {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => Ok(Value::Int(v.abs())),
            Value::Decimal { units, scale } => Ok(Value::Decimal {
                units: units.abs(),
                scale: *scale,
            }),
            other => Err(EngineError::UdfInvocation {
                name: "ABS".into(),
                detail: format!("expected numeric argument, found {other:?}"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// SDB secure scalar UDFs
// ---------------------------------------------------------------------------

fn encrypted_arg<'a>(udf: &str, v: &'a Value) -> Result<&'a BigUint> {
    match v {
        Value::Encrypted(e) => Ok(e),
        other => Err(EngineError::UdfInvocation {
            name: udf.to_string(),
            detail: format!("expected an encrypted share, found {other:?}"),
        }),
    }
}

fn string_arg<'a>(udf: &str, v: &'a Value) -> Result<&'a str> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(EngineError::UdfInvocation {
            name: udf.to_string(),
            detail: format!("expected a string parameter, found {other:?}"),
        }),
    }
}

fn arity_error(name: &str, expected: usize, found: usize) -> EngineError {
    EngineError::UdfInvocation {
        name: name.to_string(),
        detail: format!("expected {expected} arguments, found {found}"),
    }
}

/// Parses the public modulus argument. Zero is refused here: nothing reduces
/// modulo it, and the text comes from the SQL surface.
fn parse_modulus(udf: &str, text: &str) -> Result<BigUint> {
    let n = parse_biguint_arg(udf, text)?;
    if n.bits() == 0 {
        return Err(EngineError::UdfInvocation {
            name: udf.to_string(),
            detail: "the modulus must be non-zero".into(),
        });
    }
    Ok(n)
}

/// What one instance derived from the constant arguments it saw last.
struct Bound<T> {
    texts: Vec<String>,
    value: T,
}

/// One-entry memory of an SDB UDF's constant arguments: as long as the same
/// texts arrive, the derived value is reused; a different text re-derives it,
/// so a stale value can never serve a call it was not built for.
struct LastSeen<T> {
    slot: Mutex<Option<Arc<Bound<T>>>>,
}

impl<T> Default for LastSeen<T> {
    fn default() -> Self {
        LastSeen {
            slot: Mutex::new(None),
        }
    }
}

impl<T> LastSeen<T> {
    /// The value derived from `constants` (string arguments), from memory when
    /// they are the texts seen last and through `derive` otherwise.
    fn get<const N: usize>(
        &self,
        udf: &str,
        constants: [&Value; N],
        derive: impl FnOnce([&str; N]) -> Result<T>,
    ) -> Result<Arc<Bound<T>>> {
        let mut texts = [""; N];
        for (text, constant) in texts.iter_mut().zip(constants) {
            *text = string_arg(udf, constant)?;
        }
        let mut slot = self.slot.lock();
        if let Some(bound) = slot.as_ref() {
            if bound.texts.iter().map(String::as_str).eq(texts) {
                return Ok(Arc::clone(bound));
            }
        }
        let bound = Arc::new(Bound {
            value: derive(texts)?,
            texts: texts.iter().map(|text| text.to_string()).collect(),
        });
        *slot = Some(Arc::clone(&bound));
        Ok(bound)
    }

    fn remembered(&self) -> Vec<String> {
        let slot = self.slot.lock();
        slot.as_ref()
            .map(|bound| bound.texts.clone())
            .unwrap_or_default()
    }
}

/// The parts of [`ScalarUdf`] every SDB UDF with remembered constants shares.
macro_rules! remembers_constants {
    ($field:ident) => {
        fn site_instance(&self) -> Option<Arc<dyn ScalarUdf>> {
            Some(Arc::new(Self::default()))
        }

        fn remembered_constants(&self) -> Vec<String> {
            self.$field.remembered()
        }
    };
}

/// `SDB_MULTIPLY(a_e, b_e, n)` — the EE multiplication of paper §2.2:
/// `A_e × B_e mod n`. The proxy separately tracks the result column key
/// `⟨m_A·m_B, x_A+x_B⟩`.
#[derive(Default)]
pub struct SdbMultiplyUdf {
    n: LastSeen<BigUint>,
}

impl ScalarUdf for SdbMultiplyUdf {
    fn name(&self) -> &str {
        "SDB_MULTIPLY"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let [a, b, n] = args else {
            return Err(arity_error("SDB_MULTIPLY", 3, args.len()));
        };
        if a.is_null() || b.is_null() {
            return Ok(Value::Null);
        }
        let a = encrypted_arg("SDB_MULTIPLY", a)?;
        let b = encrypted_arg("SDB_MULTIPLY", b)?;
        let n = self
            .n
            .get("SDB_MULTIPLY", [n], |[n]| parse_modulus("SDB_MULTIPLY", n))?;
        Ok(Value::Encrypted(mod_mul(a, b, &n.value)))
    }

    remembers_constants!(n);
}

/// `SDB_ADD(a_e, b_e, n)` — modular addition of two shares that have already been
/// key-unified (the rewriter guarantees this by wrapping operands in
/// `SDB_KEY_UPDATE` to a common target key).
#[derive(Default)]
pub struct SdbAddUdf {
    n: LastSeen<BigUint>,
}

impl ScalarUdf for SdbAddUdf {
    fn name(&self) -> &str {
        "SDB_ADD"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let [a, b, n] = args else {
            return Err(arity_error("SDB_ADD", 3, args.len()));
        };
        if a.is_null() || b.is_null() {
            return Ok(Value::Null);
        }
        let a = encrypted_arg("SDB_ADD", a)?;
        let b = encrypted_arg("SDB_ADD", b)?;
        let n = self
            .n
            .get("SDB_ADD", [n], |[n]| parse_modulus("SDB_ADD", n))?;
        Ok(Value::Encrypted(mod_add(a, b, &n.value)))
    }

    remembers_constants!(n);
}

/// `SDB_KEY_UPDATE(a_e, s_e, p, q, n)` — re-encrypts a share from its source column
/// key to a proxy-chosen target key using the auxiliary all-ones column `S`:
/// `A'_e = A_e · S_e^p · q mod n` (ARCHITECTURE.md, "Modular arithmetic"). `p`, `q`
/// and `n` arrive as decimal strings because they exceed 64-bit integer range; the
/// update is bound to them once ([`KeyUpdateParams::bind`]), not per row.
#[derive(Default)]
pub struct SdbKeyUpdateUdf {
    update: LastSeen<BoundKeyUpdate>,
}

impl ScalarUdf for SdbKeyUpdateUdf {
    fn name(&self) -> &str {
        "SDB_KEY_UPDATE"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        const NAME: &str = "SDB_KEY_UPDATE";
        let [a, s, p, q, n] = args else {
            return Err(arity_error(NAME, 5, args.len()));
        };
        if a.is_null() {
            return Ok(Value::Null);
        }
        let a = encrypted_arg(NAME, a)?;
        let s = encrypted_arg(NAME, s)?;
        let update = self.update.get(NAME, [p, q, n], |[p, q, n]| {
            let params = KeyUpdateParams {
                p: parse_biguint_arg(NAME, p)?,
                q: parse_biguint_arg(NAME, q)?,
            };
            Ok(params.bind(&parse_modulus(NAME, n)?))
        })?;
        Ok(Value::Encrypted(update.value.apply(a, s)))
    }

    remembers_constants!(update);
}

/// Encodes a plaintext numeric [`Value`] into `Z_n` at the given fixed-point scale
/// (negative values wrap to `n − |v|`). Used by the EP ("encrypted ⊗ plain") UDFs,
/// which operate on plain columns the SP stores in the clear.
fn encode_plain_operand(udf: &str, value: &Value, scale: &Value, n: &BigUint) -> Result<BigUint> {
    let scale = match scale {
        Value::Int(s) if (0..=18).contains(s) => *s as u8,
        other => {
            return Err(EngineError::UdfInvocation {
                name: udf.to_string(),
                detail: format!("scale argument must be an integer in 0..=18, found {other:?}"),
            })
        }
    };
    let units = value.as_scaled_i128(scale).map_err(EngineError::Storage)?;
    let magnitude = BigUint::from(units.unsigned_abs());
    if units >= 0 {
        Ok(magnitude % n)
    } else {
        Ok(n - (magnitude % n))
    }
}

/// `SDB_MUL_PLAIN(a_e, plain, scale, n)` — EP multiplication by a *per-row plain*
/// operand: `C_e = A_e · enc(plain) mod n` with the column key unchanged, because
/// `D(C_e, ik_A) = plain · a`.
#[derive(Default)]
pub struct SdbMulPlainUdf {
    n: LastSeen<BigUint>,
}

impl ScalarUdf for SdbMulPlainUdf {
    fn name(&self) -> &str {
        "SDB_MUL_PLAIN"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let [a, plain, scale, n] = args else {
            return Err(arity_error("SDB_MUL_PLAIN", 4, args.len()));
        };
        if a.is_null() || plain.is_null() {
            return Ok(Value::Null);
        }
        let a = encrypted_arg("SDB_MUL_PLAIN", a)?;
        let n = self.n.get("SDB_MUL_PLAIN", [n], |[n]| {
            parse_modulus("SDB_MUL_PLAIN", n)
        })?;
        let operand = encode_plain_operand("SDB_MUL_PLAIN", plain, scale, &n.value)?;
        Ok(Value::Encrypted(mod_mul(a, &operand, &n.value)))
    }

    remembers_constants!(n);
}

/// `SDB_ADD_PLAIN(a_e, plain, scale, s_e, n)` — EP addition with a per-row plain
/// operand. The rewriter first key-updates `A` to the auxiliary column `S`'s key, so
/// `A_e` and `S_e` share item keys; then
/// `C_e = A_e + enc(plain)·S_e mod n` decrypts to `a + plain` under `ck_S`.
#[derive(Default)]
pub struct SdbAddPlainUdf {
    n: LastSeen<BigUint>,
}

impl ScalarUdf for SdbAddPlainUdf {
    fn name(&self) -> &str {
        "SDB_ADD_PLAIN"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let [a, plain, scale, s, n] = args else {
            return Err(arity_error("SDB_ADD_PLAIN", 5, args.len()));
        };
        if a.is_null() || plain.is_null() {
            return Ok(Value::Null);
        }
        let a = encrypted_arg("SDB_ADD_PLAIN", a)?;
        let s = encrypted_arg("SDB_ADD_PLAIN", s)?;
        let n = self.n.get("SDB_ADD_PLAIN", [n], |[n]| {
            parse_modulus("SDB_ADD_PLAIN", n)
        })?;
        let n = &n.value;
        let operand = encode_plain_operand("SDB_ADD_PLAIN", plain, scale, n)?;
        Ok(Value::Encrypted(mod_add(a, &mod_mul(&operand, s, n), n)))
    }

    remembers_constants!(n);
}

/// `SDB_TAG_EQ(tag_column, 'tag')` — equality against a deterministic tag the proxy
/// computed for a literal (sensitive VARCHAR equality predicates).
pub struct SdbTagEqUdf;

impl ScalarUdf for SdbTagEqUdf {
    fn name(&self) -> &str {
        "SDB_TAG_EQ"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let [tag, expected] = args else {
            return Err(arity_error("SDB_TAG_EQ", 2, args.len()));
        };
        if tag.is_null() {
            return Ok(Value::Null);
        }
        let tag = match tag {
            Value::Tag(t) => *t,
            other => {
                return Err(EngineError::UdfInvocation {
                    name: "SDB_TAG_EQ".into(),
                    detail: format!("first argument must be a TAG column, found {other:?}"),
                })
            }
        };
        let expected: u64 = string_arg("SDB_TAG_EQ", expected)?.parse().map_err(|_| {
            EngineError::UdfInvocation {
                name: "SDB_TAG_EQ".into(),
                detail: "second argument must be a decimal tag string".into(),
            }
        })?;
        Ok(Value::Bool(tag == expected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdb_crypto::share::{
        decrypt_value, encrypt_value, gen_item_key, ColumnKeyAlgebra, KeyUpdateParams,
    };
    use sdb_crypto::{KeyConfig, SystemKey};
    use sdb_sql::dates::days_from_civil;

    #[test]
    fn registry_lookup_and_names() {
        let registry = UdfRegistry::with_sdb_udfs();
        assert!(registry.get("sdb_multiply").is_some());
        assert!(registry.get("SDB_KEY_UPDATE").is_some());
        assert!(registry.get("NOPE").is_none());
        assert!(registry.names().contains(&"SDB_ADD".to_string()));
        let debug = format!("{registry:?}");
        assert!(debug.contains("SDB_MULTIPLY"));
    }

    #[test]
    fn year_udf() {
        let udf = YearUdf;
        let d = days_from_civil(1995, 7, 4);
        assert_eq!(udf.invoke(&[Value::Date(d)]).unwrap(), Value::Int(1995));
        assert_eq!(udf.invoke(&[Value::Null]).unwrap(), Value::Null);
        assert!(udf.invoke(&[Value::Int(5)]).is_err());
        assert!(udf.invoke(&[]).is_err());
    }

    #[test]
    fn abs_udf() {
        let udf = AbsUdf;
        assert_eq!(udf.invoke(&[Value::Int(-5)]).unwrap(), Value::Int(5));
        assert_eq!(
            udf.invoke(&[Value::Decimal {
                units: -250,
                scale: 2
            }])
            .unwrap(),
            Value::Decimal {
                units: 250,
                scale: 2
            }
        );
        assert!(udf.invoke(&[Value::Str("x".into())]).is_err());
    }

    /// End-to-end check of the three SDB UDFs against the crypto layer: what the
    /// SP computes through UDFs decrypts to the right answer with the proxy's keys.
    #[test]
    fn sdb_udfs_match_protocols() {
        let mut rng = StdRng::seed_from_u64(123);
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let n_str = Value::Str(key.n().to_string());

        let ck_a = key.gen_column_key(&mut rng);
        let ck_b = key.gen_column_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let ck_t = key.gen_column_key(&mut rng);
        let r = key.gen_row_id(&mut rng);

        let a = BigUint::from(21u32);
        let b = BigUint::from(2u32);
        let a_e = encrypt_value(&key, &a, &gen_item_key(&key, &ck_a, &r));
        let b_e = encrypt_value(&key, &b, &gen_item_key(&key, &ck_b, &r));
        let s_e = encrypt_value(&key, &BigUint::from(1u32), &gen_item_key(&key, &ck_s, &r));

        // Multiplication.
        let mult = SdbMultiplyUdf::default()
            .invoke(&[
                Value::Encrypted(a_e.clone()),
                Value::Encrypted(b_e.clone()),
                n_str.clone(),
            ])
            .unwrap();
        let ck_c = ColumnKeyAlgebra::multiply(&key, &ck_a, &ck_b);
        match mult {
            Value::Encrypted(c_e) => {
                assert_eq!(
                    decrypt_value(&key, &c_e, &gen_item_key(&key, &ck_c, &r)),
                    BigUint::from(42u32)
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        // Key update then addition.
        let pa = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_t).unwrap();
        let pb = KeyUpdateParams::compute(&key, &ck_b, &ck_s, &ck_t).unwrap();
        let a_t = SdbKeyUpdateUdf::default()
            .invoke(&[
                Value::Encrypted(a_e),
                Value::Encrypted(s_e.clone()),
                Value::Str(pa.p.to_string()),
                Value::Str(pa.q.to_string()),
                n_str.clone(),
            ])
            .unwrap();
        let b_t = SdbKeyUpdateUdf::default()
            .invoke(&[
                Value::Encrypted(b_e),
                Value::Encrypted(s_e),
                Value::Str(pb.p.to_string()),
                Value::Str(pb.q.to_string()),
                n_str.clone(),
            ])
            .unwrap();
        let sum = SdbAddUdf::default().invoke(&[a_t, b_t, n_str]).unwrap();
        match sum {
            Value::Encrypted(c_e) => {
                assert_eq!(
                    decrypt_value(&key, &c_e, &gen_item_key(&key, &ck_t, &r)),
                    BigUint::from(23u32)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The EP UDFs: multiply / add an encrypted share with a plain per-row operand.
    #[test]
    fn sdb_plain_operand_udfs() {
        let mut rng = StdRng::seed_from_u64(321);
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let n_str = Value::Str(key.n().to_string());
        let codec = sdb_crypto::SignedCodec::new(&key);

        let ck_a = key.gen_column_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let r = key.gen_row_id(&mut rng);
        let a = codec.encode(37).unwrap();
        let a_e = encrypt_value(&key, &a, &gen_item_key(&key, &ck_a, &r));
        let s_e = encrypt_value(&key, &BigUint::from(1u32), &gen_item_key(&key, &ck_s, &r));

        // 37 * (-4) = -148, key unchanged.
        let product = SdbMulPlainUdf::default()
            .invoke(&[
                Value::Encrypted(a_e.clone()),
                Value::Int(-4),
                Value::Int(0),
                n_str.clone(),
            ])
            .unwrap();
        match product {
            Value::Encrypted(c_e) => {
                let plain = decrypt_value(&key, &c_e, &gen_item_key(&key, &ck_a, &r));
                assert_eq!(codec.decode(&plain).unwrap(), -148);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Key-update A to S's key, then add plain 5: 37 + 5 = 42 under ck_S.
        let params = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_s).unwrap();
        let a_at_s = SdbKeyUpdateUdf::default()
            .invoke(&[
                Value::Encrypted(a_e),
                Value::Encrypted(s_e.clone()),
                Value::Str(params.p.to_string()),
                Value::Str(params.q.to_string()),
                n_str.clone(),
            ])
            .unwrap();
        let sum = SdbAddPlainUdf::default()
            .invoke(&[
                a_at_s,
                Value::Int(5),
                Value::Int(0),
                Value::Encrypted(s_e),
                n_str,
            ])
            .unwrap();
        match sum {
            Value::Encrypted(c_e) => {
                let plain = decrypt_value(&key, &c_e, &gen_item_key(&key, &ck_s, &r));
                assert_eq!(codec.decode(&plain).unwrap(), 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sdb_tag_eq_udf() {
        let udf = SdbTagEqUdf;
        assert_eq!(
            udf.invoke(&[Value::Tag(12345), Value::Str("12345".into())])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            udf.invoke(&[Value::Tag(12345), Value::Str("999".into())])
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            udf.invoke(&[Value::Null, Value::Str("1".into())]).unwrap(),
            Value::Null
        );
        assert!(udf
            .invoke(&[Value::Int(1), Value::Str("1".into())])
            .is_err());
        assert!(udf
            .invoke(&[Value::Tag(1), Value::Str("abc".into())])
            .is_err());
    }

    #[test]
    fn plain_operand_scale_handling() {
        let mut rng = StdRng::seed_from_u64(99);
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let codec = sdb_crypto::SignedCodec::new(&key);
        let ck = key.gen_column_key(&mut rng);
        let r = key.gen_row_id(&mut rng);
        // Price 12.50 stored sensitive at scale 2 → units 1250.
        let p_e = encrypt_value(
            &key,
            &codec.encode(1250).unwrap(),
            &gen_item_key(&key, &ck, &r),
        );
        // Multiply by plain decimal 0.08 at scale 2 → units 8; result units at scale 4.
        let out = SdbMulPlainUdf::default()
            .invoke(&[
                Value::Encrypted(p_e),
                Value::Decimal { units: 8, scale: 2 },
                Value::Int(2),
                Value::Str(key.n().to_string()),
            ])
            .unwrap();
        match out {
            Value::Encrypted(c_e) => {
                let plain = decrypt_value(&key, &c_e, &gen_item_key(&key, &ck, &r));
                // 1250 * 8 = 10000 units at scale 4 = 1.0000 (12.50 * 0.08).
                assert_eq!(codec.decode(&plain).unwrap(), 10_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Invalid scale argument.
        assert!(SdbMulPlainUdf::default()
            .invoke(&[
                Value::Encrypted(BigUint::from(1u32)),
                Value::Int(1),
                Value::Int(99),
                Value::Str(key.n().to_string())
            ])
            .is_err());
    }

    /// The textbook key update, as the paper writes it.
    fn textbook_key_update(
        a: &BigUint,
        s: &BigUint,
        p: &BigUint,
        q: &BigUint,
        n: &BigUint,
    ) -> BigUint {
        (a * s.modpow(p, n) % n) * q % n
    }

    fn key_update_args(
        a: &BigUint,
        s: &BigUint,
        p: &BigUint,
        q: &BigUint,
        n: &BigUint,
    ) -> [Value; 5] {
        [
            Value::Encrypted(a.clone()),
            Value::Encrypted(s.clone()),
            Value::Str(p.to_string()),
            Value::Str(q.to_string()),
            Value::Str(n.to_string()),
        ]
    }

    /// `KeyUpdateParams::apply`, `gen_item_keys` and the bound `SDB_KEY_UPDATE`
    /// call give exactly the residues of the textbook formulas at every
    /// shipped key profile (4, 8 and 32 limbs).
    #[test]
    fn montgomery_paths_match_the_textbook_at_every_profile() {
        for config in [KeyConfig::TEST, KeyConfig::BALANCED, KeyConfig::PAPER] {
            let mut rng = StdRng::seed_from_u64(0x5db);
            let key = SystemKey::generate(&mut rng, config).unwrap();
            let n = key.n();
            let (ck_a, ck_s) = (
                key.gen_column_key(&mut rng),
                key.gen_aux_column_key(&mut rng),
            );
            let ck_t = key.gen_column_key(&mut rng);
            let rows: Vec<BigUint> = (0..3).map(|_| key.gen_row_id(&mut rng)).collect();

            let item_keys = sdb_crypto::gen_item_keys(&key, &ck_a, &rows);
            for (row, item_key) in rows.iter().zip(&item_keys) {
                let exponent = (row * ck_a.x()) % key.phi();
                assert_eq!(*item_key, ck_a.m() * key.g().modpow(&exponent, n) % n);
            }

            let params = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_t).unwrap();
            let udf = SdbKeyUpdateUdf::default();
            for (row, item_key) in rows.iter().zip(&item_keys) {
                let a_e = encrypt_value(&key, &BigUint::from(4_200u32), item_key);
                let s_e =
                    encrypt_value(&key, &BigUint::from(1u32), &gen_item_key(&key, &ck_s, row));
                let expected = textbook_key_update(&a_e, &s_e, &params.p, &params.q, n);
                assert_eq!(params.apply(n, &a_e, &s_e), expected);
                assert_eq!(
                    udf.invoke(&key_update_args(&a_e, &s_e, &params.p, &params.q, n))
                        .unwrap(),
                    Value::Encrypted(expected)
                );
            }
            assert_eq!(
                udf.remembered_constants(),
                [params.p.to_string(), params.q.to_string(), n.to_string()]
            );
        }
    }

    /// One instance fed different constants on later calls re-derives its state
    /// every time a text changes: no call is ever served by a context built for
    /// another `n`, `p` or `q`.
    #[test]
    fn changed_constants_never_reuse_a_stale_context() {
        let big = |text: &str| BigUint::parse_bytes(text.as_bytes(), 10).unwrap();
        let (a, s) = (big("123456789012345678901"), big("98765432109876543210"));
        let moduli = [big("1000000000000000000000007"), big("35"), big("1000003")];
        let exponents = [
            big("65537"),
            big("3"),
            big("170141183460469231731687303715884105727"),
        ];
        let factors = [big("17"), big("2")];
        let key_update = SdbKeyUpdateUdf::default();
        let multiply = SdbMultiplyUdf::default();
        let add = SdbAddUdf::default();
        // Twice over, so every combination also follows every other one.
        for _ in 0..2 {
            for n in &moduli {
                for p in &exponents {
                    for q in &factors {
                        assert_eq!(
                            key_update
                                .invoke(&key_update_args(&a, &s, p, q, n))
                                .unwrap(),
                            Value::Encrypted(textbook_key_update(&a, &s, p, q, n)),
                            "n={n} p={p} q={q}"
                        );
                    }
                }
                let binary = [
                    Value::Encrypted(a.clone()),
                    Value::Encrypted(s.clone()),
                    Value::Str(n.to_string()),
                ];
                // `a` and `s` exceed the small moduli: operands are reduced on
                // entry, as an unreduced encrypted SUM requires.
                assert_eq!(
                    multiply.invoke(&binary).unwrap(),
                    Value::Encrypted(&a * &s % n)
                );
                assert_eq!(
                    add.invoke(&binary).unwrap(),
                    Value::Encrypted((&a + &s) % n)
                );
            }
        }
        // An even modulus is served too (no Montgomery context exists for it);
        // zero is refused.
        let even = big("1000000");
        assert_eq!(
            key_update
                .invoke(&key_update_args(&a, &s, &exponents[0], &factors[0], &even))
                .unwrap(),
            Value::Encrypted(textbook_key_update(
                &a,
                &s,
                &exponents[0],
                &factors[0],
                &even
            ))
        );
        assert!(key_update
            .invoke(&key_update_args(
                &a,
                &s,
                &exponents[0],
                &factors[0],
                &big("0")
            ))
            .is_err());
    }

    /// A site instance starts with an empty memory of its own, so call sites
    /// never see each other's constants.
    #[test]
    fn site_instances_are_private() {
        let registry = UdfRegistry::with_sdb_udfs();
        let shared = registry.get("SDB_MULTIPLY").unwrap();
        let args = [
            Value::Encrypted(BigUint::from(6u32)),
            Value::Encrypted(BigUint::from(7u32)),
            Value::Str("35".into()),
        ];
        assert_eq!(
            shared.invoke(&args).unwrap(),
            Value::Encrypted(BigUint::from(7u32))
        );
        assert_eq!(shared.remembered_constants(), ["35"]);
        let site = registry.site("sdb_multiply").unwrap();
        assert!(site.remembered_constants().is_empty());
        assert!(registry.get("YEAR").unwrap().site_instance().is_none());
        assert!(registry.site("NOPE").is_err());
    }

    #[test]
    fn sdb_udfs_validate_arguments() {
        let n = Value::Str("35".into());
        assert!(SdbMultiplyUdf::default()
            .invoke(&[Value::Int(1), Value::Int(2), n.clone()])
            .is_err());
        assert!(SdbMultiplyUdf::default().invoke(&[Value::Int(1)]).is_err());
        assert!(SdbAddUdf::default()
            .invoke(&[
                Value::Encrypted(BigUint::from(1u32)),
                Value::Encrypted(BigUint::from(2u32)),
                Value::Str("xyz".into())
            ])
            .is_err());
        assert!(SdbKeyUpdateUdf::default().invoke(&[Value::Null]).is_err());
        // NULL encrypted operands propagate NULL.
        assert_eq!(
            SdbMultiplyUdf::default()
                .invoke(&[Value::Null, Value::Encrypted(BigUint::from(2u32)), n])
                .unwrap(),
            Value::Null
        );
    }
}
