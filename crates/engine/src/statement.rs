//! Statement shapes at the SP: a rewritten statement the DO proxy sends again
//! and again differs between executions only in its per-execution constants
//! (the `p` and `q` of each `SDB_KEY_UPDATE`) and in the public literals the
//! DO lifted out of its text (see `sdb_sql::lift`). The DO sends the
//! statement's *template* — its text with a numbered `$i` in place of each
//! of them — once, and afterwards only the template's shape id, the lifted
//! literals and the constants (the draw vector) as a [`ServerStatement`].
//!
//! The engine keeps each template it was sent and caches its optimised
//! logical plan with the parameters still in it. A cached plan is
//! keyed by the catalog's epoch and the optimiser's inputs (`PlanKey`), so
//! `ANALYZE`, DDL or a replaced table re-plans; it is admitted on the
//! second execution under one key, so a plan built once is never kept. Each
//! execution binds its values into the plan and then plans it physically
//! exactly like a statement that arrived as text: the optimiser never looks
//! at a parameter's value (a draw is a string literal with no estimate; a
//! lifted literal sits in an equality, whose estimate reads only the
//! column's distinct count), so both routes give the same physical plan.
//!
//! A lifted literal is bound as the literal it spells, of its slot's class:
//! the class is the one the statement that sent the template had in that
//! slot, and a value that is not exactly one literal of it is
//! [`crate::EngineError::InvalidLiteral`], never text spliced into SQL.
//!
//! What the cache holds is what the SP was sent: the template text once, and
//! nothing of the values, which are bound into a per-execution copy. It holds
//! a bounded number of shapes: when it is full, the shapes no execution has
//! found since the last such sweep go (all of them, if every shape was
//! found).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::Serialize;

use sdb_sql::{parse_literal, Literal, LiteralClass, LogicalPlan};

use crate::{EngineError, Result};

/// A statement the DO sends by shape: the shape's id, this execution's
/// lifted literals and constants, and the template text when the DO has not
/// sent it before (or the engine answered
/// [`crate::EngineError::UnknownShape`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServerStatement {
    /// The shape's id (the DO's hash of the template text and its slots'
    /// classes).
    pub shape: u64,
    /// The SQL rendering of each lifted literal, filling `$0`, `$1`, … in
    /// order (`4231`, `'BUILDING'`, `DATE '1995-03-15'`).
    pub lifted: Vec<String>,
    /// The value of each `$i` after the lifted ones, in slot order.
    pub draws: Vec<String>,
    /// The template text, on the shape's first sending.
    pub template: Option<String>,
}

/// What an optimised plan depends on besides its shape: the catalog's epoch
/// and the inputs of the optimiser's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanKey {
    pub epoch: u64,
    pub optimizer: bool,
    pub batch_size: usize,
    pub budget: Option<usize>,
}

/// Shapes the engine holds before it starts over.
const SHAPES: usize = 256;
/// Plan keys one shape holds (seen once or admitted) before it starts over.
const PLANS_PER_SHAPE: usize = 4;

/// The lifted literals of `statement`, parsed: each exactly one literal.
pub(crate) fn lifted_literals(statement: &ServerStatement) -> Result<Vec<Literal>> {
    (statement.lifted.iter().enumerate())
        .map(|(slot, text)| {
            parse_literal(text).map_err(|e| EngineError::InvalidLiteral {
                slot,
                detail: e.to_string(),
            })
        })
        .collect()
}

/// One shape the engine was sent.
pub(crate) struct CachedShape {
    /// The template text.
    pub template: String,
    /// The class of each lifted slot, from the statement that sent the
    /// template.
    classes: Vec<Option<LiteralClass>>,
    /// Plan keys seen once (`None`) or admitted with their optimised plan.
    plans: Mutex<Vec<(PlanKey, Option<Arc<LogicalPlan>>)>>,
    /// Lookups since the cache's last sweep.
    found: AtomicU32,
}

impl CachedShape {
    /// Checks that `literals` fill this shape's lifted slots, each with a
    /// literal of its slot's class.
    pub fn check(&self, literals: &[Literal]) -> Result<()> {
        if literals.len() != self.classes.len() {
            return Err(EngineError::InvalidLiteral {
                slot: literals.len().min(self.classes.len()),
                detail: format!(
                    "the shape has {} lifted slots, the statement {}",
                    self.classes.len(),
                    literals.len()
                ),
            });
        }
        for (slot, (literal, class)) in literals.iter().zip(&self.classes).enumerate() {
            if literal.class() != *class {
                return Err(EngineError::InvalidLiteral {
                    slot,
                    detail: format!("the slot takes a {class:?} literal, not {literal}"),
                });
            }
        }
        Ok(())
    }

    /// The admitted plan for `key`.
    pub fn plan(&self, key: &PlanKey) -> Option<Arc<LogicalPlan>> {
        let plans = self.plans.lock();
        let (_, plan) = plans.iter().find(|(k, _)| k == key)?;
        plan.clone()
    }

    /// Records that `plan` was built under `key`: a first sighting is only
    /// remembered, the second stores the plan.
    pub fn offer(&self, key: PlanKey, plan: &Arc<LogicalPlan>) {
        let mut plans = self.plans.lock();
        if let Some((_, slot)) = plans.iter_mut().find(|(k, _)| *k == key) {
            *slot = Some(Arc::clone(plan));
            return;
        }
        if plans.len() >= PLANS_PER_SHAPE {
            plans.clear();
        }
        plans.push((key, None));
    }

    fn approx_bytes(&self) -> usize {
        let plans = self.plans.lock();
        let plan_bytes: usize = (plans.iter())
            .filter_map(|(_, plan)| plan.as_ref())
            .map(|plan| format!("{plan:?}").len())
            .sum();
        std::mem::size_of::<Self>() + plan_bytes
    }
}

/// The engine's shapes, by id.
#[derive(Default)]
pub(crate) struct PlanCache {
    shapes: RwLock<HashMap<u64, Arc<CachedShape>>>,
}

impl PlanCache {
    /// The shape `id`, if the engine holds it.
    pub fn shape(&self, id: u64) -> Option<Arc<CachedShape>> {
        let shape = self.shapes.read().get(&id).cloned()?;
        shape.found.fetch_add(1, Ordering::Relaxed);
        Some(shape)
    }

    /// Holds `template` as shape `id`, its lifted slots of the classes of
    /// `lifted` (the sending statement's literals). A shape already held
    /// under `id` keeps its plans if it has the same template and classes,
    /// and is replaced if not: the id is the sender's hash, so two
    /// templates may share one. A full
    /// cache first sweeps out the shapes no execution found since its last
    /// sweep, or every shape if all were; they are dropped after the lock is
    /// released.
    pub fn insert(&self, id: u64, template: &str, lifted: &[Literal]) -> Arc<CachedShape> {
        let classes: Vec<Option<LiteralClass>> = lifted.iter().map(Literal::class).collect();
        let mut shapes = self.shapes.write();
        let held =
            |shape: &&Arc<CachedShape>| shape.template == template && shape.classes == classes;
        if let Some(shape) = shapes.get(&id).filter(held) {
            return Arc::clone(shape);
        }
        let swept: Vec<(u64, Arc<CachedShape>)> = if shapes.len() >= SHAPES {
            let unused = shapes.extract_if(|_, shape| shape.found.swap(0, Ordering::Relaxed) == 0);
            let mut swept: Vec<_> = unused.collect();
            if shapes.len() >= SHAPES {
                swept.extend(shapes.drain());
            }
            swept
        } else {
            Vec::new()
        };
        let shape = Arc::new(CachedShape {
            template: template.to_string(),
            classes,
            plans: Mutex::new(Vec::new()),
            found: AtomicU32::new(0),
        });
        shapes.insert(id, Arc::clone(&shape));
        drop(shapes);
        drop(swept);
        shape
    }

    /// Shapes held.
    pub fn len(&self) -> usize {
        self.shapes.read().len()
    }

    /// Approximate bytes held: each shape's template, plus each admitted
    /// plan's `Debug` rendering.
    pub fn approx_bytes(&self) -> usize {
        (self.shapes.read().values())
            .map(|shape| shape.template.len() + shape.approx_bytes())
            .sum()
    }

    /// Every held template and every admitted plan in full (`Debug`), for
    /// leakage scans.
    pub fn dump(&self) -> Vec<String> {
        let shapes = self.shapes.read();
        let mut out = Vec::new();
        for shape in shapes.values() {
            out.push(shape.template.clone());
            let plans = shape.plans.lock();
            out.extend(
                (plans.iter()).filter_map(|(_, plan)| plan.as_ref().map(|p| format!("{p:?}"))),
            );
        }
        out
    }

    /// Drops every shape.
    pub fn clear(&self) {
        self.shapes.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_sql::{parse_sql, PlanBuilder, Statement};

    fn plan(sql: &str) -> Arc<LogicalPlan> {
        match parse_sql(sql).unwrap() {
            Statement::Query(query) => Arc::new(PlanBuilder::build(&query).unwrap()),
            other => panic!("not a query: {other}"),
        }
    }

    fn key(epoch: u64) -> PlanKey {
        PlanKey {
            epoch,
            optimizer: true,
            batch_size: 1024,
            budget: None,
        }
    }

    #[test]
    fn a_plan_is_admitted_on_its_second_sighting_under_one_key() {
        let cache = PlanCache::default();
        let shape = cache.insert(7, "SELECT a FROM t WHERE b = $0", &[]);
        let plan = plan(&shape.template);
        shape.offer(key(1), &plan);
        assert!(shape.plan(&key(1)).is_none(), "seen once");
        shape.offer(key(1), &plan);
        assert!(shape.plan(&key(1)).is_some(), "seen twice");
        assert!(shape.plan(&key(2)).is_none(), "another epoch re-plans");
        let again = cache.insert(7, "SELECT a FROM t WHERE b = $0", &[]);
        assert!(
            again.plan(&key(1)).is_some(),
            "a held shape keeps its plans"
        );
        let other = cache.insert(7, "SELECT 1 FROM t", &[]);
        assert_eq!(
            other.template, "SELECT 1 FROM t",
            "another template under the id"
        );
        assert!(other.plan(&key(1)).is_none(), "replaces the shape");
        assert_eq!(cache.shape(7).unwrap().template, "SELECT 1 FROM t");
        assert_eq!(cache.len(), 1);

        let int = cache.insert(8, "SELECT a FROM t WHERE b = $0", &[Literal::Int(7)]);
        assert!(int.check(&[Literal::Int(4231)]).is_ok());
        for bad in [
            vec![Literal::Str("7".into())],
            vec![],
            vec![Literal::Int(7); 2],
        ] {
            assert!(matches!(
                int.check(&bad),
                Err(EngineError::InvalidLiteral { .. })
            ));
        }
        let string = cache.insert(8, &int.template, &[Literal::Str("7".into())]);
        assert!(
            string.check(&[Literal::Str("x".into())]).is_ok(),
            "another class replaces"
        );
        assert!(cache.approx_bytes() > 0);
        cache.clear();
        assert!(cache.shape(7).is_none());
    }

    #[test]
    fn the_cache_is_bounded() {
        let cache = PlanCache::default();
        for id in 0..SHAPES as u64 {
            cache.insert(id, "SELECT a FROM t", &[]);
        }
        assert!(cache.shape(0).is_some(), "found");
        cache.insert(u64::MAX, "SELECT a FROM t", &[]);
        assert_eq!(cache.len(), 2, "a sweep keeps the shape found");
        for id in 1..SHAPES as u64 {
            cache.insert(id, "SELECT a FROM t", &[]);
            assert!(cache.shape(id).is_some());
        }
        cache.insert(u64::MAX - 1, "SELECT a FROM t", &[]);
        assert!(cache.len() <= SHAPES);
        let shape = cache.insert(u64::MAX, "SELECT a FROM t", &[]);
        let plan = plan(&shape.template);
        for epoch in 0..(PLANS_PER_SHAPE as u64 + 2) {
            shape.offer(key(epoch), &plan);
        }
        assert!(shape.plans.lock().len() <= PLANS_PER_SHAPE);
    }
}
