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
//!
//! The `SDB_KEY_UPDATE` sites of one operator that raise the same auxiliary
//! column under the same `n` form a [`KeyUpdateSets`] group: their `S_e^p`
//! are computed together, on the first call that needs a row, into a row of
//! powers every site reads — several rows at a time in lockstep where a site
//! is known to need the following rows too (ARCHITECTURE.md, "Key-update
//! sets").

use std::collections::HashMap;
use std::sync::Arc;

use num_bigint::BigUint;
use parking_lot::Mutex;
use sdb_crypto::bigint::{mod_add, mod_mul};
use sdb_crypto::{BoundKeyUpdate, BoundKeyUpdateSet, KeyUpdateParams};
use sdb_sql::ast::{Expr, Literal};
use sdb_storage::{Column, Value};

use crate::operators::parallel;
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
    /// The key-update sets of the query's operators.
    key_updates: Mutex<Vec<Arc<KeyUpdateSets>>>,
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

    /// Plans the key-update sets of one operator from its expressions and
    /// keeps them with the query's other arithmetic state. `workers` is how
    /// many threads may evaluate the operator's rows at once.
    pub(crate) fn key_update_sets<'e>(
        &self,
        exprs: impl IntoIterator<Item = &'e Expr>,
        workers: usize,
    ) -> Arc<KeyUpdateSets> {
        let sets = Arc::new(KeyUpdateSets::plan(exprs, workers));
        if !sets.groups.is_empty() {
            self.key_updates.lock().push(Arc::clone(&sets));
        }
        sets
    }

    /// Every constant remembered by any site (see
    /// [`ScalarUdf::remembered_constants`]) or bound by a key-update set.
    pub fn remembered_constants(&self) -> Vec<String> {
        let sites = self.sites.lock();
        let key_updates = self.key_updates.lock();
        sites
            .values()
            .flat_map(|udf| udf.remembered_constants())
            .chain(key_updates.iter().flat_map(|sets| sets.constants()))
            .collect()
    }

    /// Every residue `S_e^p` a key-update set holds in its rows of powers, as
    /// a canonical value. With [`Self::remembered_constants`] this is all
    /// the sets keep, and what the leakage audit scans.
    pub fn remembered_powers(&self) -> Vec<BigUint> {
        let key_updates = self.key_updates.lock();
        key_updates.iter().flat_map(|sets| sets.powers()).collect()
    }
}

// ---------------------------------------------------------------------------
// Key-update sets
// ---------------------------------------------------------------------------

/// The name the key-update function is registered under.
pub(crate) const KEY_UPDATE: &str = "SDB_KEY_UPDATE";

/// What an evaluator counts about the key updates it evaluated.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyUpdateCounts {
    /// Invocations, however served.
    pub(crate) calls: usize,
    /// Exponentiations raised, charged on a row's first use.
    pub(crate) pows: usize,
    /// Powers derived from a neighbour's.
    pub(crate) derived: usize,
}

/// A call site's place in its operator's [`KeyUpdateSets`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyUpdateMember {
    group: usize,
    member: usize,
}

/// The `p`, `q` and `n` texts of an `SDB_KEY_UPDATE` call whose auxiliary
/// share is a plain column and whose parameters are literals, with that
/// column's name.
fn literal_key_update<'e>(name: &str, args: &'e [Expr]) -> Option<[&'e str; 4]> {
    if !name.eq_ignore_ascii_case(KEY_UPDATE) {
        return None;
    }
    let [_, Expr::Column(aux), p, q, n] = args else {
        return None;
    };
    let text = |arg: &'e Expr| match arg {
        Expr::Literal(Literal::Str(text)) => Some(text.as_str()),
        _ => None,
    };
    Some([aux, text(p)?, text(q)?, text(n)?])
}

/// Calls `visit` on every node of `expr` with whether the node is evaluated
/// on every row `expr` is: reached from it only through function arguments
/// and arithmetic, not under a `CASE`, the right side of `AND`/`OR`, the
/// candidates of `IN` or the arguments of `COALESCE`.
fn walk_with_reach<'e>(expr: &'e Expr, every_row: bool, visit: &mut impl FnMut(&'e Expr, bool)) {
    visit(expr, every_row);
    match expr {
        Expr::Function { name, args, .. } => {
            let every_row = every_row && !name.eq_ignore_ascii_case("COALESCE");
            for arg in args {
                walk_with_reach(arg, every_row, visit);
            }
        }
        Expr::Binary { left, op, right } if op.is_arithmetic() => {
            walk_with_reach(left, every_row, visit);
            walk_with_reach(right, every_row, visit);
        }
        Expr::Unary { expr, .. } => walk_with_reach(expr, every_row, visit),
        // Everything below any other node counts as conditional; `walk`
        // visits the node itself first, which was visited above.
        other => {
            let mut below = false;
            other.walk(&mut |node| {
                if below {
                    visit(node, false);
                }
                below = true;
            });
        }
    }
}

/// Whether `expr` is built only from columns, non-NULL literals and function
/// calls: an operand that is NULL only where the data is, not by a branch or
/// a literal of the query's own.
fn plain_operand(expr: &Expr) -> bool {
    match expr {
        Expr::Column(_) => true,
        Expr::Literal(literal) => !matches!(literal, Literal::Null),
        Expr::Function { args, .. } => args.iter().all(plain_operand),
        _ => false,
    }
}

/// The key-update sets of one operator: its `SDB_KEY_UPDATE` call sites with
/// literal `p`, `q` and `n`, grouped by (auxiliary column, `n`). Each group
/// binds its updates as one [`BoundKeyUpdateSet`] and serves them from the
/// powers of the auxiliary shares of a block of rows, raised when the first
/// site asks for a row and not before. A group with an *unconditional*
/// member — evaluated on every row, its first operand built from columns,
/// non-NULL literals and functions — raises that row together with every
/// share among the following cells of the same window, up to
/// [`BoundKeyUpdateSet::block_rows`], in lockstep. A group without one raises
/// one row at a time: a row no site evaluates (a `CASE` branch not taken, a
/// short-circuited `AND`) costs nothing. A group remembers one block per
/// worker, so its readers go row by row — every site of a row before the
/// next row's — as all four operators that evaluate with sets do. Sites whose
/// constants do not parse, or whose `n` is even, are left out: the function
/// itself serves them, and reports what is wrong with them.
#[derive(Default)]
pub struct KeyUpdateSets {
    groups: Vec<KeyUpdateGroup>,
    /// The four texts of a site, joined → its place.
    members: HashMap<String, KeyUpdateMember>,
}

struct KeyUpdateGroup {
    /// `n`, then `p` and `q` of every member, as the SQL wrote them.
    constants: Vec<String>,
    set: BoundKeyUpdateSet,
    /// Whether the group has an unconditional member: a miss then also
    /// raises the following cells of the window that hold a share.
    prefetch: bool,
    /// The block each worker raised last, so the morsels of a fan-out do not
    /// evict each other's.
    blocks: Vec<Mutex<PowerBlock>>,
}

/// The powers of the auxiliary shares in a window of consecutive cells of a
/// column.
#[derive(Default)]
struct PowerBlock {
    /// The window. Holding it keeps its buffer alive, so a hit can only be a
    /// cell the powers were raised from.
    window: Option<Column>,
    /// Per cell of the window that holds a share: which row of `limbs` holds
    /// its powers, and whether a call has used them yet (the counts charge a
    /// row when it is first used).
    cells: Vec<Option<(usize, bool)>>,
    /// A residue per distinct exponent of the group, for every share of the
    /// window, in order.
    limbs: Vec<u64>,
}

impl PowerBlock {
    /// Where `at`, a position in `aux`'s buffer, falls in the window.
    fn cell(&self, aux: &Column, at: usize) -> Option<usize> {
        let window = self.window.as_ref()?;
        let cell = at.checked_sub(window.offset())?;
        (window.shares_buffer(aux) && cell < window.len()).then_some(cell)
    }

    /// Makes the window the `len` cells of `aux` from `row` on, and raises
    /// the share of every one that holds one, in lockstep.
    fn raise(&mut self, set: &BoundKeyUpdateSet, aux: &Column, row: usize, len: usize) {
        let mut shares = Vec::with_capacity(len);
        self.cells.clear();
        for cell in row..row + len {
            let raised = share(aux.get(cell)).map(|share| {
                shares.push(share);
                (shares.len() - 1, false)
            });
            self.cells.push(raised);
        }
        self.limbs.clear();
        self.limbs.resize(shares.len() * set.row_limbs(), 0);
        set.fill_rows(&shares, &mut self.limbs);
        self.window = Some(aux.slice(row, len));
    }
}

/// The share in a cell of an auxiliary column, if it holds one.
fn share(value: &Value) -> Option<&BigUint> {
    match value {
        Value::Encrypted(share) => Some(share),
        _ => None,
    }
}

fn member_key(texts: [&str; 4]) -> String {
    texts.join("\u{1f}")
}

impl KeyUpdateSets {
    fn plan<'e>(exprs: impl IntoIterator<Item = &'e Expr>, workers: usize) -> KeyUpdateSets {
        /// A group while its sites are being collected.
        struct Planned<'e> {
            aux: &'e str,
            n_text: &'e str,
            n: BigUint,
            updates: Vec<KeyUpdateParams>,
            constants: Vec<String>,
            prefetch: bool,
        }
        let mut planned: Vec<Planned<'e>> = Vec::new();
        let mut members: HashMap<String, KeyUpdateMember> = HashMap::new();
        let mut visit = |expr: &'e Expr, every_row: bool| {
            let Expr::Function { name, args, .. } = expr else {
                return;
            };
            let Some(texts @ [aux, p_text, q_text, n_text]) = literal_key_update(name, args) else {
                return;
            };
            let key = member_key(texts);
            let group = match members.get(&key) {
                Some(member) => member.group,
                None => {
                    let parse = |text| parse_biguint_arg(KEY_UPDATE, text);
                    let (Ok(p), Ok(q)) = (parse(p_text), parse(q_text)) else {
                        return;
                    };
                    let same = |g: &Planned<'_>| g.aux == aux && g.n_text == n_text;
                    let group = match planned.iter().position(same) {
                        Some(group) => group,
                        None => match parse(n_text) {
                            Ok(n) if n.bit(0) => {
                                planned.push(Planned {
                                    aux,
                                    n_text,
                                    n,
                                    updates: Vec::new(),
                                    constants: vec![n_text.to_string()],
                                    prefetch: false,
                                });
                                planned.len() - 1
                            }
                            _ => return,
                        },
                    };
                    let planned = &mut planned[group];
                    let member = planned.updates.len();
                    members.insert(key, KeyUpdateMember { group, member });
                    planned.updates.push(KeyUpdateParams { p, q });
                    planned
                        .constants
                        .extend([p_text.to_string(), q_text.to_string()]);
                    group
                }
            };
            planned[group].prefetch |= every_row && plain_operand(&args[0]);
        };
        for expr in exprs {
            walk_with_reach(expr, true, &mut visit);
        }
        let groups = planned
            .into_iter()
            .map(|group| KeyUpdateGroup {
                constants: group.constants,
                set: BoundKeyUpdateSet::bind(&group.n, &group.updates).expect("n is odd"),
                prefetch: group.prefetch,
                blocks: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
            })
            .collect();
        KeyUpdateSets { groups, members }
    }

    /// The place of the call `name(args)` in these sets, if it is one of the
    /// sites they were planned from.
    pub(crate) fn member<'e>(
        &self,
        name: &str,
        args: &'e [Expr],
    ) -> Option<(&'e str, KeyUpdateMember)> {
        let texts = literal_key_update(name, args)?;
        Some((texts[0], *self.members.get(&member_key(texts))?))
    }

    /// `a · S_e^p · q mod n` for `site`, with `S_e` the share in `row` of the
    /// auxiliary column `aux`. `None` when that cell is not a share: the
    /// caller then asks the function, which decides what a NULL or a value
    /// of another type means.
    pub(crate) fn apply(
        &self,
        site: KeyUpdateMember,
        aux: &Column,
        row: usize,
        a: &BigUint,
        counts: &mut KeyUpdateCounts,
    ) -> Option<BigUint> {
        let group = &self.groups[site.group];
        share(aux.get(row))?;
        let mut block = group.blocks[parallel::current_worker() % group.blocks.len()].lock();
        let cell = match block.cell(aux, aux.offset() + row) {
            Some(cell) => cell,
            None => {
                let len = if group.prefetch {
                    group.set.block_rows().min(aux.len() - row)
                } else {
                    1
                };
                block.raise(&group.set, aux, row, len);
                0
            }
        };
        let (raised, used) =
            (block.cells[cell].as_mut()).expect("every share of the window is raised");
        let raised = *raised;
        if !*used {
            *used = true;
            counts.pows += group.set.heads();
            counts.derived += group.set.derived();
        }
        let row_limbs = group.set.row_limbs();
        let powers = &block.limbs[raised * row_limbs..(raised + 1) * row_limbs];
        Some(group.set.apply(site.member, a, powers))
    }

    fn constants(&self) -> impl Iterator<Item = String> + '_ {
        self.groups
            .iter()
            .flat_map(|group| group.constants.iter().cloned())
    }

    fn powers(&self) -> Vec<BigUint> {
        let blocks = self.groups.iter().flat_map(|group| {
            let blocks = group.blocks.iter().map(Mutex::lock);
            blocks.map(|block| group.set.powers(&block.limbs))
        });
        blocks.flatten().collect()
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
        KEY_UPDATE
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        const NAME: &str = KEY_UPDATE;
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

    /// The select-list expressions of `SELECT <items> FROM t`.
    fn select_items(items: &str) -> Vec<Expr> {
        let sql = format!("SELECT {items} FROM t");
        let sdb_sql::Statement::Query(query) = sdb_sql::parse_sql(&sql).unwrap() else {
            unreachable!()
        };
        let exprs = query.projections.into_iter().map(|item| match item {
            sdb_sql::SelectItem::Expr { expr, .. } => expr,
            other => panic!("unexpected {other:?}"),
        });
        exprs.collect()
    }

    /// Sites group by (auxiliary column, `n`); a site the function would
    /// refuse (unparsable constant, even or zero modulus) or whose parameters
    /// are not literals is no member, so the function still answers for it.
    #[test]
    fn key_update_sets_group_sites_by_auxiliary_column_and_modulus() {
        let exprs = select_items(
            "SDB_KEY_UPDATE(a, s, '5', '2', '35'), \
             SDB_ADD(SDB_KEY_UPDATE(b, s, '6', '3', '35'), SDB_KEY_UPDATE(a, s, '5', '2', '35'), '35'), \
             CASE WHEN x THEN sdb_key_update(a, s2, '5', '2', '35') END, \
             SDB_KEY_UPDATE(a, s, '5', '2', '33'), \
             SDB_KEY_UPDATE(a, s, '5', '2', '36'), \
             SDB_KEY_UPDATE(a, s, '5', '2', '0'), \
             SDB_KEY_UPDATE(a, s, 'five', '2', '35'), \
             SDB_KEY_UPDATE(a, s, p, '2', '35'), \
             SDB_KEY_UPDATE(a, SDB_MULTIPLY(s, s, '35'), '5', '2', '35'), \
             SDB_KEY_UPDATE(a, s, '5', '2')",
        );
        let sets = KeyUpdateSets::plan(&exprs, 1);
        // (s, 35) with two members, (s2, 35), (s, 33).
        assert_eq!(sets.groups.len(), 3);
        assert_eq!(sets.members.len(), 4);
        assert_eq!(
            (sets.groups[0].set.heads(), sets.groups[0].set.derived()),
            (1, 1)
        );
        fn member_of<'e>(sets: &KeyUpdateSets, expr: &'e Expr) -> Option<&'e str> {
            let Expr::Function { name, args, .. } = expr else {
                return None;
            };
            sets.member(name, args).map(|(aux, _)| aux)
        }
        let members: Vec<Option<&str>> = exprs.iter().map(|e| member_of(&sets, e)).collect();
        assert_eq!(members[0], Some("s"));
        assert_eq!(members[3], Some("s"));
        assert_eq!(members[4..], [None; 6], "left to the function");
        let mut constants: Vec<String> = sets.constants().collect();
        constants.sort();
        constants.dedup();
        assert_eq!(constants, ["2", "3", "33", "35", "5", "6"]);
        assert!(sets.powers().is_empty(), "nothing is raised before a call");
    }

    /// A group raises rows ahead only for an unconditional member: one reached
    /// through function arguments and arithmetic alone, whose first operand
    /// is built from columns, non-NULL literals and functions. Each select
    /// item below has a group of its own (auxiliary column `s0` … `s9`).
    #[test]
    fn only_an_unconditional_member_makes_a_group_raise_ahead() {
        let ku = |operand: &str, aux: usize| {
            format!("SDB_KEY_UPDATE({operand}, s{aux}, '5', '2', '35')")
        };
        let exprs = select_items(
            &[
                ku("a", 0),
                format!(
                    "SDB_MULTIPLY(b, {}, '35') + 1",
                    ku("SDB_ADD_PLAIN(a, 1, 2, s1, '35')", 1)
                ),
                format!("CASE WHEN x THEN {} END", ku("a", 2)),
                format!("x AND {}", ku("a", 3)),
                format!("x OR {}", ku("a", 4)),
                format!("y IN (1, {})", ku("a", 5)),
                format!("COALESCE({}, y)", ku("a", 6)),
                ku("CASE WHEN x THEN a END", 7),
                ku("SDB_MULTIPLY(a, NULL, '35')", 8),
                // A guarded and an unconditional member of one group.
                format!("CASE WHEN x THEN {} END, {}", ku("a", 9), ku("c", 9)),
            ]
            .join(", "),
        );
        let sets = KeyUpdateSets::plan(&exprs, 1);
        let prefetch: Vec<bool> = sets.groups.iter().map(|group| group.prefetch).collect();
        assert_eq!(
            prefetch,
            [true, true, false, false, false, false, false, false, false, true]
        );
    }

    /// A row's powers are raised by the first site that asks for the row and
    /// read by every other: the same cell through a slice hits, equal values
    /// in another buffer or another row do not, a row nobody asks for is
    /// never charged, NULL rows are the function's, and what the group
    /// remembers is the canonical `S_e^p` of the block raised last.
    #[test]
    fn powers_are_raised_on_the_first_call_of_a_row() {
        let mut rng = StdRng::seed_from_u64(0xb10c);
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let n = key.n();
        let (p, q) = (key.gen_row_id(&mut rng), BigUint::from(12_345u32));
        let next = &p + BigUint::from(1u32);
        let exprs = select_items(&format!(
            "SDB_KEY_UPDATE(a, s, '{p}', '{q}', '{n}'), SDB_KEY_UPDATE(a, s, '{next}', '{q}', '{n}')"
        ));
        let shares: Vec<Value> = (0..8)
            .map(|i| match i {
                5 => Value::Null,
                _ => Value::Encrypted(key.gen_row_id(&mut rng)),
            })
            .collect();
        let column =
            Column::from_values_unchecked(sdb_storage::DataType::Encrypted, shares.clone());
        let a = BigUint::from(777u32);
        let expected = |row: usize, p: &BigUint| match &shares[row] {
            Value::Encrypted(s) => Some(textbook_key_update(&a, s, p, &q, n)),
            _ => None,
        };

        let sets = KeyUpdateSets::plan(&exprs, 1);
        let sites: Vec<KeyUpdateMember> = exprs
            .iter()
            .map(|expr| match expr {
                Expr::Function { name, args, .. } => sets.member(name, args).unwrap().1,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let mut counts = KeyUpdateCounts::default();
        let mut apply = |site: usize, column: &Column, row: usize| {
            let updated = sets.apply(sites[site], column, row, &a, &mut counts);
            (updated, counts.pows, counts.derived)
        };
        // Both sites of row 0 on one exponentiation; rows 1 and 2 are raised
        // with it, in one block, but never charged.
        assert_eq!(apply(0, &column, 0), (expected(0, &p), 1, 1));
        assert_eq!(apply(1, &column, 0), (expected(0, &next), 1, 1));
        assert_eq!(apply(1, &column, 3), (expected(3, &next), 2, 2));
        // The same cell through a slice of the column.
        assert_eq!(apply(0, &column.slice(2, 4), 1), (expected(3, &p), 2, 2));
        // A NULL cell is left to the function and evicts nothing.
        assert_eq!(apply(0, &column, 5), (None, 2, 2));
        assert_eq!(apply(0, &column, 3), (expected(3, &p), 2, 2));
        // Equal values in another buffer are another cell.
        let copy = Column::from_values_unchecked(sdb_storage::DataType::Encrypted, shares.clone());
        assert_eq!(apply(0, &copy, 3), (expected(3, &p), 3, 3));
        // That miss started the block held now: every share of `copy` from
        // row 3 on, up to `block_rows` cells, the NULL of row 5 left out.
        let block = sets.groups[0].set.block_rows();
        let held: Vec<BigUint> = (shares[3..(3 + block).min(shares.len())].iter())
            .filter_map(share)
            .flat_map(|s| [s.modpow(&p, n), s.modpow(&next, n)])
            .collect();
        assert_eq!(sets.powers(), held);
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
