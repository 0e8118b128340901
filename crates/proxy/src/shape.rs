//! Statement shapes: what the proxy keeps of a rewrite so that the next
//! execution of the same application SQL replays it instead of parsing and
//! rewriting again.
//!
//! A statement is known by its lexed form (`sdb_sql::lift`): its tokens,
//! with each literal compared by `=` with a public column at the top level
//! of its `WHERE` lifted into a numbered slot of its class. So statements
//! that differ only in the key they look up are one statement: the lookup
//! lexes the text once and parses nothing. The rewriter copies a lifted
//! literal into the server query as written, and checks on the cold rewrite
//! that every slot sits where the lift put it (`Rewriter::lift`); a
//! statement whose slots fail that check is rewritten with its literals in
//! place and never admitted.
//!
//! Two rewrites of one statement differ only in their randomness — the
//! fresh target keys the rewriter draws for EE additions and pushed
//! encrypted `SUM`s, and through them the `p` and `q` of the
//! `SDB_KEY_UPDATE` calls onto those targets and the keys behind the
//! query's handles — and in their lifted literals. A [`Shape`] therefore
//! holds
//!
//! * the server query as a `Template`: its text with a numbered `$i` slot
//!   for each lifted literal (slots `0 … L − 1`, in the statement's order),
//!   then for each key update's `p` (slot `L + 2k`) and `q` (slot
//!   `L + 2k + 1`), one pair per distinct (source, auxiliary, target) key
//!   triple, so two call sites that render the same text share their slots;
//! * the [`ResultPlan`], whose handle names are the same on every replay;
//! * a `Tape` of the key algebra the rewrite ran: keys read from the key
//!   store, keys drawn afresh, products and constant scalings of earlier
//!   keys, the key updates and the handle registrations.
//!
//! A replay runs the tape with the query's own generator (its fork of the
//! proxy's `Drbg`), so it draws what a cold rewrite with the same fork draws,
//! in the same order, and never reuses randomness. It inverts the key updates'
//! targets in one batch, computes every slot, registers the handles in order
//! and splices the slots into the template — each lifted literal as its own
//! SQL rendering, each draw as a string literal: the server SQL is byte for
//! byte the cold rewrite's.
//!
//! The `ShapeCache` admits a lexed form on its second sighting and holds a
//! bounded number of shapes: when it is full, the shapes no execution has
//! replayed since the last such sweep go (all of them, if every shape was
//! replayed). Uploading a table changes the key store and empties it.
//! Nothing in it is part of the key store or its JSON; the tape holds stored
//! keys, so a shape's `Debug` shows only its id and sizes.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use num_bigint::BigUint;
use parking_lot::{Mutex, RwLock};

use sdb_crypto::share::ColumnKeyAlgebra;
use sdb_crypto::{mod_inverse_batch, ColumnKey, Drbg, KeyUpdateMemo, SystemKey};
use sdb_sql::{Literal, Token};

use crate::meta::PlainType;
use crate::plan::ResultPlan;
use crate::session::{HandleKey, QuerySession};
use crate::Result;

/// How a rewrite obtained one column key.
#[derive(Clone)]
enum KeyStep {
    /// Read from the key store: a stored column's key or a table's
    /// auxiliary key.
    Stored(ColumnKey),
    /// Drawn afresh ([`SystemKey::gen_column_key`]).
    Fresh,
    /// A fresh row-independent target
    /// ([`ColumnKeyAlgebra::row_independent_target`]).
    FreshRowIndependent,
    /// [`ColumnKeyAlgebra::multiply`] of two earlier keys.
    Multiply(usize, usize),
    /// [`ColumnKeyAlgebra::scale_by_constant`] of an earlier key.
    Scale(usize, BigUint),
}

impl KeyStep {
    /// The key this step yields, given the keys of the steps before it.
    fn run(&self, keys: &[ColumnKey], system: &SystemKey, rng: &mut Drbg) -> ColumnKey {
        match self {
            KeyStep::Stored(key) => key.clone(),
            KeyStep::Fresh => system.gen_column_key(rng),
            KeyStep::FreshRowIndependent => ColumnKeyAlgebra::row_independent_target(system, rng),
            KeyStep::Multiply(a, b) => ColumnKeyAlgebra::multiply(system, &keys[*a], &keys[*b]),
            KeyStep::Scale(a, c) => ColumnKeyAlgebra::scale_by_constant(system, &keys[*a], c),
        }
    }
}

/// One handle a rewrite registered, over the key of a step.
#[derive(Clone)]
struct HandleStep {
    key: usize,
    decode: PlainType,
    /// A row-independent key's handle carries its item key `m`.
    row_independent: bool,
}

impl HandleStep {
    fn handle_key(&self, keys: &[ColumnKey]) -> HandleKey {
        let key = &keys[self.key];
        if self.row_independent {
            HandleKey::RowIndependent {
                item_key: ColumnKeyAlgebra::row_independent_item_key(key),
                decode: self.decode,
            }
        } else {
            HandleKey::RowKeyed {
                key: key.clone(),
                decode: self.decode,
            }
        }
    }
}

/// The key algebra one rewrite ran, in order.
#[derive(Clone, Default)]
pub(crate) struct Tape {
    steps: Vec<KeyStep>,
    /// The (source, auxiliary, target) steps of each key update: update `k`
    /// fills slots `2k` (`p`) and `2k + 1` (`q`).
    updates: Vec<[usize; 3]>,
    handles: Vec<HandleStep>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("key_steps", &self.steps.len())
            .field("updates", &self.updates.len())
            .field("handles", &self.handles.len())
            .finish()
    }
}

impl Tape {
    /// One execution's keys and slot values: the key steps run with `rng`,
    /// so drawn keys come in the order the rewrite drew them.
    pub(crate) fn replay(
        &self,
        system: &SystemKey,
        rng: &mut Drbg,
        memo: &KeyUpdateMemo,
    ) -> Result<(Vec<ColumnKey>, Vec<String>)> {
        let mut keys = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let key = step.run(&keys, system, rng);
            keys.push(key);
        }
        let draws = self.draws(&keys, system, memo)?;
        Ok((keys, draws))
    }

    /// Registers the rewrite's handles over `keys`, in order, so each gets
    /// the name the template and the result plan carry.
    pub(crate) fn register_handles(&self, keys: &[ColumnKey], session: &QuerySession) {
        for step in &self.handles {
            session.register_handle(step.handle_key(keys));
        }
    }

    /// The value of every slot over `keys`: each key update's `p` and `q`.
    /// Each target other than the auxiliary key is inverted once, all of
    /// them in one batch; it fails if one has no inverse.
    pub(crate) fn draws(
        &self,
        keys: &[ColumnKey],
        system: &SystemKey,
        memo: &KeyUpdateMemo,
    ) -> Result<Vec<String>> {
        let mut targets: HashMap<usize, usize> = HashMap::new();
        let mut ms = Vec::new();
        for &[_, aux, target] in &self.updates {
            if keys[target] != keys[aux] {
                if let std::collections::hash_map::Entry::Vacant(slot) = targets.entry(target) {
                    slot.insert(ms.len());
                    ms.push(keys[target].m().clone());
                }
            }
        }
        let inverses = mod_inverse_batch(&ms, system.n())?;
        let mut draws = Vec::with_capacity(2 * self.updates.len());
        for &[source, aux, target] in &self.updates {
            let inverse = targets.get(&target).map(|&i| &inverses[i]);
            let params = memo.params(system, &keys[source], &keys[aux], &keys[target], inverse)?;
            draws.push(params.p.to_string());
            draws.push(params.q.to_string());
        }
        Ok(draws)
    }

    /// For each slot, whether its value depends on a key drawn afresh:
    /// through `x` for a `p`, through `m` or `p` for a `q`. The other slots
    /// take the same value on every execution.
    fn drawn_slots(&self) -> Vec<bool> {
        // (m drawn, x drawn) per key step.
        let mut drawn: Vec<(bool, bool)> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let flags = match step {
                KeyStep::Stored(_) => (false, false),
                KeyStep::Fresh => (true, true),
                KeyStep::FreshRowIndependent => (true, false),
                KeyStep::Multiply(a, b) => (drawn[*a].0 || drawn[*b].0, drawn[*a].1 || drawn[*b].1),
                KeyStep::Scale(a, _) => drawn[*a],
            };
            drawn.push(flags);
        }
        let mut slots = Vec::with_capacity(2 * self.updates.len());
        for update in &self.updates {
            let p = update.iter().any(|&k| drawn[k].1);
            slots.push(p);
            slots.push(p || update.iter().any(|&k| drawn[k].0));
        }
        slots
    }

    fn approx_bytes(&self) -> usize {
        let key_bytes: usize = (self.steps.iter())
            .map(|step| match step {
                KeyStep::Stored(key) => (key.m().bits() + key.x().bits()) as usize / 8 + 2,
                KeyStep::Scale(_, c) => c.bits() as usize / 8 + 1,
                _ => 0,
            })
            .sum();
        key_bytes
            + self.steps.len() * std::mem::size_of::<KeyStep>()
            + self.updates.len() * std::mem::size_of::<[usize; 3]>()
            + self.handles.len() * std::mem::size_of::<HandleStep>()
    }
}

/// Records a [`Tape`] while a rewrite computes its keys: every key the
/// rewriter uses comes from one of its methods, which returns the index of
/// the step that made it.
#[derive(Default)]
pub(crate) struct TapeRecorder {
    tape: Tape,
    keys: Vec<ColumnKey>,
    /// Key-update slots by their (source, auxiliary, target) keys.
    updates: HashMap<[ColumnKey; 3], usize>,
    /// Slots the lifted literals take before the key updates'.
    lifted: usize,
}

impl TapeRecorder {
    /// Numbers the key updates' slots after `slots` lifted literals.
    pub(crate) fn lift(&mut self, slots: usize) {
        self.lifted = slots;
    }

    fn step(&mut self, step: KeyStep, system: &SystemKey, rng: &mut Drbg) -> usize {
        let key = step.run(&self.keys, system, rng);
        self.tape.steps.push(step);
        self.keys.push(key);
        self.keys.len() - 1
    }

    /// A key read from the key store.
    pub(crate) fn stored(&mut self, key: ColumnKey, system: &SystemKey, rng: &mut Drbg) -> usize {
        self.step(KeyStep::Stored(key), system, rng)
    }

    /// A fresh column key.
    pub(crate) fn fresh(&mut self, system: &SystemKey, rng: &mut Drbg) -> usize {
        self.step(KeyStep::Fresh, system, rng)
    }

    /// A fresh row-independent target key.
    pub(crate) fn fresh_row_independent(&mut self, system: &SystemKey, rng: &mut Drbg) -> usize {
        self.step(KeyStep::FreshRowIndependent, system, rng)
    }

    /// The product of keys `a` and `b`.
    pub(crate) fn multiply(
        &mut self,
        a: usize,
        b: usize,
        system: &SystemKey,
        rng: &mut Drbg,
    ) -> usize {
        self.step(KeyStep::Multiply(a, b), system, rng)
    }

    /// Key `a` scaled by the constant `c`.
    pub(crate) fn scale(
        &mut self,
        a: usize,
        c: &BigUint,
        system: &SystemKey,
        rng: &mut Drbg,
    ) -> usize {
        self.step(KeyStep::Scale(a, c.clone()), system, rng)
    }

    /// The slots `(p, q)` of the key update `source → target` through `aux`
    /// (numbered after the lifted literals').
    pub(crate) fn key_update(
        &mut self,
        source: usize,
        aux: usize,
        target: usize,
    ) -> (usize, usize) {
        let triple = [source, aux, target].map(|i| self.keys[i].clone());
        let next = self.updates.len();
        let update = *self.updates.entry(triple).or_insert(next);
        if update == next {
            self.tape.updates.push([source, aux, target]);
        }
        let p = self.lifted + 2 * update;
        (p, p + 1)
    }

    /// Registers a handle over key `key` in `session`, and records it.
    pub(crate) fn register_handle(
        &mut self,
        key: usize,
        decode: PlainType,
        row_independent: bool,
        session: &QuerySession,
    ) -> String {
        let step = HandleStep {
            key,
            decode,
            row_independent,
        };
        let handle = session.register_handle(step.handle_key(&self.keys));
        self.tape.handles.push(step);
        handle
    }

    /// The recorded tape and the keys the rewrite computed.
    pub(crate) fn finish(self) -> (Tape, Vec<ColumnKey>) {
        (self.tape, self.keys)
    }
}

/// A server query's text with a numbered `$i` where each slot goes: the
/// first `lifted` slots take lifted literals, the others draws.
#[derive(Debug, Clone)]
pub(crate) struct Template {
    text: String,
    /// The byte range and slot number of every `$i` outside string literals.
    slots: Vec<(usize, usize, usize)>,
    lifted: usize,
}

impl Template {
    pub(crate) fn new(text: String, lifted: usize) -> Template {
        let bytes = text.as_bytes();
        let mut slots = Vec::new();
        let (mut i, mut quoted) = (0, false);
        while i < bytes.len() {
            match bytes[i] {
                // `''` inside a literal toggles twice, which is right.
                b'\'' => quoted = !quoted,
                b'$' if !quoted => {
                    let end = (i + 1..bytes.len())
                        .find(|&j| !bytes[j].is_ascii_digit())
                        .unwrap_or(bytes.len());
                    if let Ok(slot) = text[i + 1..end].parse() {
                        slots.push((i, end, slot));
                    }
                    i = end;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        Template {
            text,
            slots,
            lifted,
        }
    }

    /// The template text.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// The text with each lifted literal's SQL rendering (`lifted`) and
    /// each draw, as a string literal, in its slot.
    pub(crate) fn splice(&self, lifted: &[String], draws: &[String]) -> String {
        debug_assert_eq!(lifted.len(), self.lifted, "one literal per lifted slot");
        let extra: usize = (lifted.iter().chain(draws)).map(|d| d.len() + 2).sum();
        let mut out = String::with_capacity(self.text.len() + extra);
        let mut at = 0;
        for &(start, end, slot) in &self.slots {
            out.push_str(&self.text[at..start]);
            match slot.checked_sub(self.lifted) {
                None => out.push_str(&lifted[slot]),
                Some(draw) => {
                    out.push('\'');
                    out.push_str(&draws[draw].replace('\'', "''"));
                    out.push('\'');
                }
            }
            at = end;
        }
        out.push_str(&self.text[at..]);
        out
    }
}

/// A cached rewrite of one application statement.
pub struct Shape {
    /// The hash of the template text and its lifted slots' classes: the
    /// shape's name at the SP.
    id: u64,
    template: Template,
    plan: ResultPlan,
    tape: Tape,
    /// Whether the template has been sent to the SP.
    announced: AtomicBool,
    /// Replays since the cache's last sweep.
    replays: AtomicU32,
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shape")
            .field("id", &format_args!("{:016x}", self.id))
            .field("lifted", &self.template.lifted)
            .field("slots", &(2 * self.tape.updates.len()))
            .field("key_steps", &self.tape.steps.len())
            .field("handles", &self.tape.handles.len())
            .finish()
    }
}

impl Shape {
    /// The shape of a rewrite: its server query rendered with `$i` slots,
    /// the literals lifted into the first ones (their classes, not their
    /// values, are the shape's), its result plan and its tape.
    pub(crate) fn new(template: String, lifted: &[Literal], plan: ResultPlan, tape: Tape) -> Shape {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        template.hash(&mut hasher);
        for literal in lifted {
            literal.class().hash(&mut hasher);
        }
        Shape {
            id: hasher.finish(),
            template: Template::new(template, lifted.len()),
            plan,
            tape,
            announced: AtomicBool::new(false),
            replays: AtomicU32::new(0),
        }
    }

    /// The shape's id at the SP.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The server query's template text (`$i` for each slot).
    pub fn template(&self) -> &str {
        self.template.text()
    }

    pub(crate) fn plan(&self) -> &ResultPlan {
        &self.plan
    }

    pub(crate) fn tape(&self) -> &Tape {
        &self.tape
    }

    pub(crate) fn splice(&self, lifted: &[String], draws: &[String]) -> String {
        self.template.splice(lifted, draws)
    }

    /// For each draw's slot, whether its value depends on a key drawn
    /// afresh (so it differs between two executions); the others are fixed
    /// by the key store.
    pub fn drawn_slots(&self) -> Vec<bool> {
        self.tape.drawn_slots()
    }

    /// Whether the template has been sent to the SP. (The flag publishes
    /// nothing else: a stale read at worst sends the template twice, or
    /// meets `UnknownShape` and resends it.)
    pub fn announced(&self) -> bool {
        self.announced.load(Ordering::Relaxed)
    }

    /// Records that the template has been sent to the SP.
    pub fn announce(&self) {
        self.announced.store(true, Ordering::Relaxed);
    }

    fn approx_bytes(&self) -> usize {
        self.template.text.len()
            + self.template.slots.len() * std::mem::size_of::<(usize, usize, usize)>()
            + self.tape.approx_bytes()
            + std::mem::size_of::<Self>()
    }
}

/// Shapes the cache holds before it starts over.
const SHAPES: usize = 256;
/// Texts seen once the cache remembers before it starts over.
const SIGHTINGS: usize = 4096;

/// The proxy's shapes, by the lexed form of the application statement (its
/// tokens, with the lifted literals as slots).
#[derive(Default)]
pub(crate) struct ShapeCache {
    shapes: RwLock<Held>,
    /// Hashes of lexed forms seen once.
    sighted: Mutex<HashSet<u64>>,
}

/// The shapes a [`ShapeCache`] holds.
#[derive(Default)]
struct Held {
    /// Every shape, by lexed form.
    by_key: HashMap<Vec<Token>, Arc<Shape>>,
    /// The text each shape was admitted from, with its lifted literals'
    /// renderings: that text sent again as it was is served without lexing
    /// it (a workload's fixed statements are; a lookup on a new key is
    /// not).
    by_text: HashMap<String, (Arc<Shape>, Vec<String>)>,
}

/// Approximate bytes of a lexed form.
fn key_bytes(key: &[Token]) -> usize {
    let text: usize = (key.iter())
        .map(|token| match token {
            Token::Ident(s) | Token::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    text + std::mem::size_of_val(key)
}

impl ShapeCache {
    /// The shape of the lexed form `key`, if admitted, counted as replayed.
    pub(crate) fn get(&self, key: &[Token]) -> Option<Arc<Shape>> {
        let shape = self.shapes.read().by_key.get(key).cloned()?;
        shape.replays.fetch_add(1, Ordering::Relaxed);
        Some(shape)
    }

    /// The shape `sql` was admitted from and the renderings of its lifted
    /// literals, if `sql` is that very text, counted as replayed.
    pub(crate) fn get_text(&self, sql: &str) -> Option<(Arc<Shape>, Vec<String>)> {
        let (shape, lifted) = self.shapes.read().by_text.get(sql).cloned()?;
        shape.replays.fetch_add(1, Ordering::Relaxed);
        Some((shape, lifted))
    }

    /// Records a cold rewrite of the lexed form `key`: true on its second
    /// sighting, when the caller admits its shape, false on the first,
    /// which is only remembered.
    pub(crate) fn sighted(&self, key: &[Token]) -> bool {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let sighting = hasher.finish();
        let mut sighted = self.sighted.lock();
        if sighted.remove(&sighting) {
            return true;
        }
        if sighted.len() >= SIGHTINGS {
            sighted.clear();
        }
        sighted.insert(sighting);
        false
    }

    /// Holds `shape` for the lexed form `key`, admitted from the text `sql`
    /// whose lifted literals render as `lifted`. A full cache first sweeps
    /// out the shapes no execution replayed since its last sweep, or every
    /// shape if all were; they are dropped after the lock is released.
    pub(crate) fn admit(&self, key: Vec<Token>, sql: &str, lifted: &[String], shape: &Arc<Shape>) {
        let mut held = self.shapes.write();
        let swept: Vec<(Vec<Token>, Arc<Shape>)> = if held.by_key.len() >= SHAPES {
            let unused =
                (held.by_key).extract_if(|_, shape| shape.replays.swap(0, Ordering::Relaxed) == 0);
            let mut swept: Vec<_> = unused.collect();
            if held.by_key.len() >= SHAPES {
                swept.extend(held.by_key.drain());
            }
            let gone: HashSet<*const Shape> = swept.iter().map(|(_, s)| Arc::as_ptr(s)).collect();
            (held.by_text).retain(|_, (shape, _)| !gone.contains(&Arc::as_ptr(shape)));
            swept
        } else {
            Vec::new()
        };
        held.by_key.insert(key, Arc::clone(shape));
        (held.by_text).insert(sql.to_string(), (Arc::clone(shape), lifted.to_vec()));
        drop(held);
        drop(swept);
    }

    /// Forgets every shape and sighting.
    pub(crate) fn clear(&self) {
        *self.shapes.write() = Held::default();
        self.sighted.lock().clear();
    }

    /// Shapes held.
    pub(crate) fn len(&self) -> usize {
        self.shapes.read().by_key.len()
    }

    /// Approximate bytes the shapes hold, their lexed forms and admitting
    /// texts as keys included.
    pub(crate) fn approx_bytes(&self) -> usize {
        let held = self.shapes.read();
        let shapes: usize = (held.by_key.iter())
            .map(|(key, shape)| key_bytes(key) + shape.approx_bytes())
            .sum();
        let texts: usize = (held.by_text.iter())
            .map(|(sql, (_, lifted))| sql.len() + lifted.iter().map(String::len).sum::<usize>())
            .sum();
        shapes + texts
    }

    /// Every held template's text (for leakage scans).
    pub(crate) fn templates(&self) -> Vec<String> {
        (self.shapes.read().by_key.values())
            .map(|shape| shape.template().to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sql: &str) -> Vec<Token> {
        sdb_sql::Lexer::new(sql).tokenize().unwrap()
    }

    fn shape() -> Arc<Shape> {
        Arc::new(Shape::new(
            String::new(),
            &[],
            ResultPlan::default(),
            Tape::default(),
        ))
    }

    #[test]
    fn a_template_splices_slots_outside_string_literals_only() {
        let template = Template::new("SELECT F(a, $0, $1, '$0 it''s', $10) FROM t".into(), 0);
        assert_eq!(template.slots.len(), 3);
        let draws: Vec<String> = (0..11).map(|i| format!("{}", 100 + i)).collect();
        assert_eq!(
            template.splice(&[], &draws),
            "SELECT F(a, '100', '101', '$0 it''s', '110') FROM t"
        );
        let plain = Template::new("SELECT a FROM t".into(), 0);
        assert_eq!(plain.splice(&[], &[]), "SELECT a FROM t");
    }

    #[test]
    fn lifted_slots_take_their_literal_as_written_and_draws_follow() {
        let template = Template::new("SELECT F(a, $2) FROM t WHERE k = $0 AND s = $1".into(), 2);
        let lifted = ["4231".to_string(), "'it''s'".to_string()];
        assert_eq!(
            template.splice(&lifted, &["7".to_string()]),
            "SELECT F(a, '7') FROM t WHERE k = 4231 AND s = 'it''s'"
        );
    }

    #[test]
    fn a_slots_class_is_part_of_the_shape_id() {
        let with = |literal: Literal| {
            let tape = Tape::default();
            Shape::new("k = $0".into(), &[literal], ResultPlan::default(), tape).id()
        };
        assert_ne!(with(Literal::Int(7)), with(Literal::Str("7".into())));
        assert_eq!(with(Literal::Int(7)), with(Literal::Int(4231)));
    }

    #[test]
    fn a_text_is_admitted_on_its_second_sighting() {
        let cache = ShapeCache::default();
        let sql = key("SELECT 1");
        assert!(!cache.sighted(&sql));
        assert!(cache.get(&sql).is_none());
        assert!(cache.sighted(&sql));
        cache.admit(sql.clone(), "SELECT 1", &[], &shape());
        assert!(cache.get(&sql).is_some());
        assert!(cache.get(&key("SELECT   1 -- the same tokens")).is_some());
        assert!(cache.get_text("SELECT 1").is_some(), "the admitting text");
        assert!(
            cache.get_text("SELECT  1").is_none(),
            "another text is lexed"
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.approx_bytes() > 0);
        cache.clear();
        assert!(cache.get(&sql).is_none());
        assert!(cache.get_text("SELECT 1").is_none());
        assert!(!cache.sighted(&sql), "sightings start over too");
    }

    #[test]
    fn the_cache_is_bounded() {
        let cache = ShapeCache::default();
        let admit = |cache: &ShapeCache, sql: &str| {
            let lexed = key(sql);
            let admitted = cache.sighted(&lexed) || cache.sighted(&lexed);
            cache.admit(lexed, sql, &[], &shape());
            admitted
        };
        for i in 0..SHAPES {
            assert!(admit(&cache, &format!("SELECT {i}")));
        }
        assert!(cache.get(&key("SELECT 0")).is_some(), "replayed");
        assert!(admit(&cache, "SELECT new"));
        assert_eq!(cache.len(), 2, "a sweep keeps the replayed shape");
        assert!(cache.get(&key("SELECT 0")).is_some());
        assert!(cache.get_text("SELECT 0").is_some(), "and its text");
        assert!(
            cache.get_text("SELECT 1").is_none(),
            "a swept shape's text goes"
        );
        assert_eq!(cache.shapes.read().by_text.len(), 2);

        let busy = ShapeCache::default();
        for i in 0..SHAPES {
            let sql = format!("SELECT {i}");
            assert!(admit(&busy, &sql));
            assert!(busy.get(&key(&sql)).is_some());
        }
        assert!(admit(&busy, "SELECT new"));
        assert_eq!(busy.len(), 1, "every shape replayed: the cache starts over");
        for i in 0..(SIGHTINGS + 3) {
            cache.sighted(&key(&format!("SELECT a{i}")));
        }
        assert!(cache.sighted.lock().len() <= SIGHTINGS);
    }
}
