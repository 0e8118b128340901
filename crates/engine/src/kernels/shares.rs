//! Share kernels: expressions built from the five SDB share UDFs, evaluated a
//! batch at a time over lanes of Montgomery limbs.
//!
//! An operator plans its [`ShareKernels`] once, where it plans its
//! key-update sets, from the expressions it evaluates: the sets themselves
//! and the Montgomery context of every literal odd `n` its share calls use.
//! Per batch, [`ShareKernels::batch`] compiles each expression that is a
//! tree of
//!
//! * `SDB_KEY_UPDATE`, `SDB_MULTIPLY`, `SDB_ADD`, `SDB_ADD_PLAIN` and
//!   `SDB_MUL_PLAIN` with literal constants — one odd `n` across the
//!   expression, every key update a member of the operator's sets, a scale
//!   in `0..=18`;
//! * encrypted column references as shares;
//! * columns and numeric literals as the plain operands,
//!
//! into nodes over lanes (see `sdb_crypto::Modulus::mul_lanes`): a share
//! column is loaded into limbs once, every node is one pass of products or
//! sums over the rows — [`CHUNK_ROWS`] of them at a time. A lane loads its
//! rows' limbs straight from the column's [`ShareColumn`], and each root's
//! lane is copied into a `ShareColumn` of `limbs(n)` words a row: no
//! `BigUint` is built on the way in or out. Anything else declines, and the
//! interpreter serves it.
//!
//! The kernels are observably the interpreter:
//!
//! * **Decline rule.** Before anything runs, the batch's cells are checked:
//!   a share column cell that is neither NULL nor a share below `n`, a key
//!   update whose auxiliary cell is not a share where its operand is, an
//!   `SDB_ADD_PLAIN` auxiliary operand that is NULL where the sum is not, a
//!   plain operand that does not scale. Any of them sends the whole batch to
//!   the interpreter, so every error is the interpreter's own.
//! * **NULLs** propagate as each function's own checks do.
//! * **Counters.** `udf_calls` is rows × call nodes, as the interpreter counts
//!   calls whatever their arguments; the key-update counts come from the very
//!   windows the interpreter would raise, visited in its order
//!   ([`KeyUpdateSets::gather`]).
//! * **No common subexpressions.** A subtree written twice is computed
//!   twice, as the interpreter computes it, so the counters match.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use num_bigint::BigUint;
use parking_lot::Mutex;
use sdb_crypto::bigint::mod_inverse_word;
use sdb_crypto::Modulus;
use sdb_sql::ast::{Expr, Literal};
use sdb_storage::{Bitmap, Column, ColumnCells, RecordBatch, Schema, ShareColumn, Value};

use crate::eval::literal_to_value;
use crate::operators::parallel;
use crate::udf::{KeyUpdateCounts, KeyUpdateMember, KeyUpdateSets, ShareOp, UdfRegistry};

/// What a batch kernel did: the calls and key updates it made, counted as
/// the interpreter counts them, its rows and its time.
#[derive(Debug, Default)]
pub(crate) struct KernelWork {
    pub(crate) udf_calls: usize,
    pub(crate) key_updates: KeyUpdateCounts,
    pub(crate) rows: usize,
    pub(crate) time: Duration,
}

/// The share arithmetic of one operator, planned once: its key-update sets
/// and the moduli its share calls name.
#[derive(Default)]
pub(crate) struct ShareKernels {
    key_updates: Arc<KeyUpdateSets>,
    /// The context of every literal odd `n` of a share call, by its text.
    moduli: HashMap<String, Arc<Modulus>>,
    /// Limb registers, one pool per worker, reused from batch to batch.
    registers: Vec<Mutex<Registers>>,
}

/// Lanes kept between batches.
#[derive(Default)]
struct Registers {
    lanes: Vec<Vec<u64>>,
    powers: Vec<Vec<u64>>,
}

/// The arguments of a share call: which slot holds `n`, and the whole arity.
fn layout(op: ShareOp) -> (usize, usize) {
    match op {
        ShareOp::Multiply | ShareOp::Add => (2, 3),
        ShareOp::MulPlain => (3, 4),
        ShareOp::KeyUpdate | ShareOp::AddPlain => (4, 5),
    }
}

/// The share call `expr` is, when the registry serves its name with one of
/// the share UDFs.
fn share_call<'e>(registry: &UdfRegistry, expr: &'e Expr) -> Option<(ShareOp, &'e [Expr])> {
    let Expr::Function { name, args, .. } = expr else {
        return None;
    };
    Some((registry.get(name)?.share_op()?, args))
}

fn literal_text(expr: &Expr) -> Option<&str> {
    match expr {
        Expr::Literal(Literal::Str(text)) => Some(text),
        _ => None,
    }
}

impl ShareKernels {
    /// Plans the share arithmetic of an operator that evaluates `exprs` with
    /// the key-update sets `key_updates`, on up to `workers` threads at once.
    pub(crate) fn plan<'e>(
        registry: &UdfRegistry,
        key_updates: Arc<KeyUpdateSets>,
        exprs: impl IntoIterator<Item = &'e Expr>,
        workers: usize,
    ) -> ShareKernels {
        let mut moduli = HashMap::new();
        for expr in exprs {
            expr.walk(&mut |node| {
                let Some((op, args)) = share_call(registry, node) else {
                    return;
                };
                let Some(text) = args.get(layout(op).0).and_then(literal_text) else {
                    return;
                };
                if moduli.contains_key(text) {
                    return;
                }
                let modulus = match key_updates.modulus(text) {
                    Some(modulus) => Some(Arc::clone(modulus)),
                    None => BigUint::parse_bytes(text.as_bytes(), 10)
                        .and_then(|n| Modulus::new(&n))
                        .map(Arc::new),
                };
                if let Some(modulus) = modulus {
                    moduli.insert(text.to_string(), modulus);
                }
            });
        }
        ShareKernels {
            key_updates,
            registers: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
            moduli,
        }
    }

    /// The texts of the moduli the kernels bound.
    pub(crate) fn moduli(&self) -> impl Iterator<Item = &str> {
        self.moduli.keys().map(String::as_str)
    }

    /// The operator's key-update sets, for its interpreter.
    pub(crate) fn key_updates(&self) -> &KeyUpdateSets {
        &self.key_updates
    }

    /// Compiles the expressions of `exprs` marked `pending` for `batch`, or
    /// `None` when the batch is the interpreter's: nothing compiles, a
    /// pending expression that does not compile calls a member of the
    /// key-update sets (its calls must interleave with the kernel's row by
    /// row), or a cell declines (see the module documentation).
    pub(crate) fn batch<'b>(
        &'b self,
        registry: &UdfRegistry,
        exprs: &[&Expr],
        pending: &[bool],
        batch: &'b RecordBatch,
    ) -> Option<BatchKernel<'b>> {
        if self.moduli.is_empty() {
            return None;
        }
        let mut program = Program {
            nodes: Vec::new(),
            modulus: None,
            schema: batch.schema(),
        };
        let mut roots = vec![None; exprs.len()];
        for (i, expr) in exprs.iter().enumerate() {
            if !pending[i] {
                continue;
            }
            let mark = program.nodes.len();
            roots[i] = self.compile(registry, expr, &mut program);
            if roots[i].is_none() {
                program.nodes.truncate(mark);
                if self.calls_a_member(expr) {
                    return None;
                }
            }
        }
        let modulus = program
            .modulus
            .filter(|_| roots.iter().any(Option::is_some))?;
        let mut kernel = BatchKernel {
            kernels: self,
            batch,
            nodes: program.nodes,
            roots,
            modulus,
            checked: Vec::new(),
            loaded: Vec::new(),
            checking: Duration::ZERO,
        };
        let started = Instant::now();
        kernel.check()?;
        kernel.checking = started.elapsed();
        Some(kernel)
    }

    /// Whether `expr` calls `SDB_KEY_UPDATE` at a site of the sets.
    fn calls_a_member(&self, expr: &Expr) -> bool {
        let mut member = false;
        expr.walk(&mut |node| {
            if let Expr::Function { name, args, .. } = node {
                member |= self.key_updates.member(name, args).is_some();
            }
        });
        member
    }

    /// Compiles `expr` as a share node of `program`: its index, or `None`
    /// (the nodes pushed so far are then the caller's to drop).
    fn compile(
        &self,
        registry: &UdfRegistry,
        expr: &Expr,
        program: &mut Program<'_>,
    ) -> Option<usize> {
        if let Expr::Column(name) = expr {
            let column = program.schema.index_of(name).ok()?;
            return Some(program.share(column));
        }
        let (op, args) = share_call(registry, expr)?;
        let (n_slot, arity) = layout(op);
        if args.len() != arity {
            return None;
        }
        let modulus = self.moduli.get(literal_text(&args[n_slot])?)?;
        match &program.modulus {
            Some(known) if known.n() != modulus.n() => return None,
            Some(_) => {}
            None => program.modulus = Some(Arc::clone(modulus)),
        }
        let node = match op {
            ShareOp::Multiply | ShareOp::Add => {
                let a = self.compile(registry, &args[0], program)?;
                let b = self.compile(registry, &args[1], program)?;
                match op {
                    ShareOp::Multiply => Node::Multiply { a, b },
                    _ => Node::Add { a, b },
                }
            }
            ShareOp::KeyUpdate => {
                let Expr::Function { name, .. } = expr else {
                    unreachable!("a share call is a function");
                };
                let (aux, site) = self.key_updates.member(name, args)?;
                let aux = program.schema.index_of(aux).ok()?;
                let a = self.compile(registry, &args[0], program)?;
                Node::KeyUpdate { a, aux, site }
            }
            ShareOp::MulPlain | ShareOp::AddPlain => {
                let scale = match &args[2] {
                    Expr::Literal(Literal::Int(scale)) if (0..=18).contains(scale) => *scale as u8,
                    _ => return None,
                };
                let plain = match &args[1] {
                    Expr::Column(name) => Plain::Column {
                        column: program.schema.index_of(name).ok()?,
                        scale,
                    },
                    Expr::Literal(literal) => match literal_to_value(literal) {
                        Value::Null => Plain::Null,
                        value => Plain::Literal(value.as_scaled_i128(scale).ok()?),
                    },
                    _ => return None,
                };
                let a = self.compile(registry, &args[0], program)?;
                match op {
                    ShareOp::MulPlain => Node::MulPlain { a, plain },
                    _ => {
                        let s = self.compile(registry, &args[3], program)?;
                        Node::AddPlain { a, plain, s }
                    }
                }
            }
        };
        Some(program.push(node))
    }
}

/// The nodes of one batch's expressions while they compile.
struct Program<'s> {
    /// In evaluation order: a node's operands come before it.
    nodes: Vec<Node>,
    modulus: Option<Arc<Modulus>>,
    schema: &'s Schema,
}

impl Program<'_> {
    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// The node of share column `column`: one per column, loaded once.
    fn share(&mut self, column: usize) -> usize {
        let loaded = |node: &Node| matches!(node, Node::Share { column: c } if *c == column);
        match self.nodes.iter().position(loaded) {
            Some(node) => node,
            None => self.push(Node::Share { column }),
        }
    }
}

/// A compiled node; operands are indices of earlier nodes.
enum Node {
    /// An encrypted column.
    Share {
        column: usize,
    },
    Multiply {
        a: usize,
        b: usize,
    },
    Add {
        a: usize,
        b: usize,
    },
    /// A key update at `site`, raising the auxiliary column `aux`.
    KeyUpdate {
        a: usize,
        aux: usize,
        site: KeyUpdateMember,
    },
    MulPlain {
        a: usize,
        plain: Plain,
    },
    AddPlain {
        a: usize,
        plain: Plain,
        s: usize,
    },
}

impl Node {
    /// The share operands, in the order the interpreter evaluates them.
    fn operands(&self) -> impl Iterator<Item = usize> {
        let (a, b) = match *self {
            Node::Share { .. } => (None, None),
            Node::Multiply { a, b } | Node::Add { a, b } => (Some(a), Some(b)),
            Node::KeyUpdate { a, .. } | Node::MulPlain { a, .. } => (Some(a), None),
            Node::AddPlain { a, s, .. } => (Some(a), Some(s)),
        };
        a.into_iter().chain(b)
    }
}

/// The plain operand of `SDB_MUL_PLAIN` / `SDB_ADD_PLAIN`.
#[derive(Clone, Copy)]
enum Plain {
    /// A column, scaled row by row.
    Column { column: usize, scale: u8 },
    /// A literal, scaled once.
    Literal(i128),
    /// The NULL literal: every result is NULL.
    Null,
}

/// Rows a kernel evaluates at a time: a lane holds at most this many rows
/// (64 KiB at 8 limbs a residue), however long the batch.
const CHUNK_ROWS: usize = 1024;

/// What checking a batch's cells establishes for one node.
struct Checked {
    /// Which rows are not NULL.
    valid: Vec<bool>,
    /// A plain node's column operand, scaled, per row (0 where unused).
    units: Vec<i128>,
}

/// One node's values over a chunk of rows: a residue per row that is the
/// value but for a constant `factor` the kernel multiplies in later — where
/// the lane is added to another or stored, or never when it is one.
struct Lane {
    limbs: Vec<u64>,
    factor: BigUint,
}

/// The compiled expressions of one batch, their cells checked: running it
/// cannot fail.
pub(crate) struct BatchKernel<'b> {
    kernels: &'b ShareKernels,
    batch: &'b RecordBatch,
    nodes: Vec<Node>,
    /// Per expression, its root node when it compiled.
    roots: Vec<Option<usize>>,
    modulus: Arc<Modulus>,
    /// Per node, filled by [`Self::check`].
    checked: Vec<Checked>,
    /// Per node, the shares of a share column node (packed when the column
    /// held them as values), filled by [`Self::check`].
    loaded: Vec<Option<ShareColumn>>,
    /// What checking took, charged with the rest of the kernel's time.
    checking: Duration,
}

impl BatchKernel<'_> {
    /// Whether expression `i` is the kernel's.
    pub(crate) fn serves(&self, i: usize) -> bool {
        self.roots[i].is_some()
    }

    /// Works out which rows of every node are NULL and scales the plain
    /// operands; `None` when a cell declines. Touches nothing but the batch.
    fn check(&mut self) -> Option<()> {
        let rows = self.batch.num_rows();
        for node in &self.nodes {
            let mut units = Vec::new();
            let mut loaded = None;
            let valid = match *node {
                Node::Share { column } => {
                    let column = self.batch.column(column);
                    let shares = match column.shares() {
                        Some(shares) => shares.clone(),
                        None => ShareColumn::from_values(column.as_values()?)?,
                    };
                    let valid = |row| match shares.is_valid(row) {
                        false => Some(false),
                        true => self.modulus.is_residue(shares.row(row)).then_some(true),
                    };
                    let valid = (0..rows).map(valid).collect::<Option<Vec<bool>>>()?;
                    loaded = Some(shares);
                    valid
                }
                Node::Multiply { a, b } | Node::Add { a, b } => {
                    let (a, b) = (&self.checked[a].valid, &self.checked[b].valid);
                    a.iter().zip(b).map(|(a, b)| *a && *b).collect()
                }
                Node::KeyUpdate { a, aux, .. } => {
                    let valid = self.checked[a].valid.clone();
                    let aux = self.batch.column(aux).cells();
                    let share = |row: usize| match aux {
                        ColumnCells::Shares(shares) => shares.is_valid(row),
                        ColumnCells::Values(cells) => matches!(cells[row], Value::Encrypted(_)),
                    };
                    if !(0..rows).all(|row| !valid[row] || share(row)) {
                        return None;
                    }
                    valid
                }
                Node::MulPlain { a, plain } | Node::AddPlain { a, plain, .. } => {
                    let mut valid = self.checked[a].valid.clone();
                    match plain {
                        Plain::Null => valid.fill(false),
                        Plain::Literal(_) => {}
                        Plain::Column { column, scale } => {
                            units = vec![0; rows];
                            let cells = self.batch.column(column).cells();
                            for row in 0..rows {
                                let cell = cells.value(row);
                                if cell.is_null() {
                                    valid[row] = false;
                                } else if valid[row] {
                                    units[row] = cell.as_scaled_i128(scale).ok()?;
                                }
                            }
                        }
                    }
                    if let Node::AddPlain { s, .. } = *node {
                        let s = &self.checked[s].valid;
                        if valid.iter().zip(s).any(|(valid, s)| *valid && !s) {
                            return None;
                        }
                    }
                    valid
                }
            };
            self.checked.push(Checked { valid, units });
            self.loaded.push(loaded);
        }
        Some(())
    }

    /// Evaluates the compiled expressions, [`CHUNK_ROWS`] rows at a time:
    /// per expression it serves, its index and its column of shares, a root
    /// lane's limbs copied in; and what that took.
    pub(crate) fn run(self) -> (Vec<(usize, ShareColumn)>, KernelWork) {
        let started = Instant::now();
        let rows = self.batch.num_rows();
        let k = self.modulus.lane_limbs();
        let key_updates = &self.kernels.key_updates;
        let mut registers = self.kernels.registers().lock();
        let mut counts = KeyUpdateCounts::default();

        // The key updates, every call visited as the interpreter makes it: a
        // key update evaluates when its operand is not NULL.
        let sites: Vec<(KeyUpdateMember, &Column)> = (self.nodes.iter())
            .filter_map(|node| match *node {
                Node::KeyUpdate { aux, site, .. } => Some((site, self.batch.column(aux))),
                _ => None,
            })
            .collect();
        let operands: Vec<usize> = (self.nodes.iter())
            .filter_map(|node| match *node {
                Node::KeyUpdate { a, .. } => Some(a),
                _ => None,
            })
            .collect();
        let uses = |site: usize, row: usize| self.checked[operands[site]].valid[row];
        counts.calls = rows * sites.len();
        // The last node that reads each node: a lane goes back to the
        // registers once that has run (roots stay until they are stored).
        let mut last_use: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for operand in node.operands() {
                last_use[operand] = Some(i);
            }
        }
        let mut outputs: Vec<(usize, Vec<u64>)> = (self.roots.iter().enumerate())
            .filter(|(_, root)| root.is_some())
            .map(|(i, _)| (i, Vec::with_capacity(rows * k)))
            .collect();

        let mut powers = std::mem::take(&mut registers.powers);
        let radix = self.modulus.radix();
        for start in (0..rows).step_by(CHUNK_ROWS) {
            let chunk = start..(start + CHUNK_ROWS).min(rows);
            key_updates.gather(&sites, uses, chunk.clone(), &mut powers, &mut counts);
            let mut arithmetic = Arithmetic {
                modulus: &self.modulus,
                radix: &radix,
                registers: &mut registers,
                len: chunk.len() * k,
            };
            let mut lanes: Vec<Lane> = Vec::with_capacity(self.nodes.len());
            for (i, node) in self.nodes.iter().enumerate() {
                let lane = match *node {
                    Node::Share { .. } => {
                        let shares = self.loaded[i].as_ref().expect("loaded when checked");
                        arithmetic.load(shares, chunk.clone())
                    }
                    Node::Multiply { a, b } => arithmetic.product(&lanes[a], &lanes[b]),
                    Node::Add { a, b } => arithmetic.sum(&lanes[a], &lanes[b]),
                    Node::KeyUpdate { a, site, .. } => {
                        let a = &lanes[a];
                        let mut limbs = arithmetic.registers.take(arithmetic.len);
                        key_updates.apply_lanes(site, &a.limbs, &powers, &mut limbs);
                        let factor = arithmetic.times(&a.factor, &key_updates.factor(site));
                        Lane { limbs, factor }
                    }
                    Node::MulPlain { a, plain } => {
                        let units = self.checked[i].units.get(chunk.clone());
                        arithmetic.times_plain(&lanes[a], plain, units)
                    }
                    Node::AddPlain { a, plain, s } => {
                        let units = self.checked[i].units.get(chunk.clone());
                        let term = arithmetic.times_plain(&lanes[s], plain, units);
                        let sum = arithmetic.sum(&lanes[a], &term);
                        arithmetic.registers.give(term.limbs);
                        sum
                    }
                };
                lanes.push(lane);
                for operand in node.operands() {
                    if last_use[operand] == Some(i) {
                        arithmetic
                            .registers
                            .give(std::mem::take(&mut lanes[operand].limbs));
                    }
                }
            }
            let roots = self.roots.iter().flatten();
            for (&root, (_, out)) in roots.zip(&mut outputs) {
                let lane = &lanes[root];
                let exact = arithmetic.exact(lane);
                let limbs = exact.as_deref().unwrap_or(&lane.limbs);
                let valid = &self.checked[root].valid[chunk.clone()];
                for (limbs, &valid) in limbs.chunks_exact(k).zip(valid) {
                    match valid {
                        true => out.extend_from_slice(limbs),
                        false => out.resize(out.len() + k, 0),
                    }
                }
                arithmetic.registers.lanes.extend(exact);
            }
            for lane in lanes {
                if lane.limbs.capacity() > 0 {
                    arithmetic.registers.give(lane.limbs);
                }
            }
        }
        registers.powers = powers;
        drop(registers);

        let calls: usize = (self.roots.iter().flatten())
            .map(|&root| self.call_nodes(root))
            .sum();
        let outputs = (outputs.into_iter())
            .zip(self.roots.iter().flatten())
            .map(|((i, limbs), &root)| {
                let valid = Bitmap::from_bools(&self.checked[root].valid);
                (i, ShareColumn::from_parts(k, limbs, valid))
            })
            .collect();
        let work = KernelWork {
            udf_calls: rows * calls,
            key_updates: counts,
            rows,
            time: self.checking + started.elapsed(),
        };
        (outputs, work)
    }

    /// The calls in the tree under `node`, itself included.
    fn call_nodes(&self, node: usize) -> usize {
        let node = &self.nodes[node];
        let own = usize::from(!matches!(node, Node::Share { .. }));
        own + node
            .operands()
            .map(|operand| self.call_nodes(operand))
            .sum::<usize>()
    }
}

impl ShareKernels {
    fn registers(&self) -> &Mutex<Registers> {
        &self.registers[parallel::current_worker() % self.registers.len()]
    }
}

impl Registers {
    /// A lane of `len` limbs, its contents unspecified.
    fn take(&mut self, len: usize) -> Vec<u64> {
        let mut lane = self.lanes.pop().unwrap_or_default();
        lane.resize(len, 0);
        lane
    }

    fn give(&mut self, lane: Vec<u64>) {
        self.lanes.push(lane);
    }
}

/// The lane operations of one chunk, on lanes of `len` limbs that carry a
/// constant factor (see [`Lane`]).
struct Arithmetic<'r> {
    modulus: &'r Modulus,
    /// `R mod n`: a Montgomery product `x·y·R⁻¹` is off by `R⁻¹`, so its
    /// factor carries an `R`.
    radix: &'r BigUint,
    registers: &'r mut Registers,
    len: usize,
}

impl Arithmetic<'_> {
    /// `x·y mod n`, for factors.
    fn times(&self, x: &BigUint, y: &BigUint) -> BigUint {
        self.modulus.mul(x, y)
    }

    /// The shares of `rows` of `shares` (checked: NULL or below `n`),
    /// exact: their limbs copied in; a NULL row's limbs are left as they
    /// are.
    fn load(&mut self, shares: &ShareColumn, rows: Range<usize>) -> Lane {
        let mut limbs = self.registers.take(self.len);
        let k = self.modulus.lane_limbs();
        for (row, lane) in rows.zip(limbs.chunks_exact_mut(k)) {
            if shares.is_valid(row) {
                self.modulus.load_lane_limbs(shares.row(row), lane);
            }
        }
        Lane {
            limbs,
            factor: BigUint::from(1u32),
        }
    }

    /// `a·b`: one product a row, off by `R·f_a·f_b`.
    fn product(&mut self, a: &Lane, b: &Lane) -> Lane {
        let mut limbs = self.registers.take(self.len);
        self.modulus.mul_lanes(&a.limbs, &b.limbs, &mut limbs);
        let factor = self.times(&self.times(&a.factor, &b.factor), self.radix);
        Lane { limbs, factor }
    }

    /// `a + b`: a sum a row when the two are off by the same factor.
    /// Otherwise one of them is moved to the other's factor `f`, one product
    /// a row with `f'·f⁻¹·R`, where `f` is a word (one, or a literal plain
    /// operand) and its inverse cheap; failing that both are made exact.
    /// (The inverse of a wide factor would save a product a row too, but
    /// costs more than the products of a batch at the widths the scheme
    /// uses.)
    fn sum(&mut self, a: &Lane, b: &Lane) -> Lane {
        let mut limbs = self.registers.take(self.len);
        let n = self.modulus.n();
        let inverse = |lane: &Lane| mod_inverse_word(lane.factor.to_u64()?, n);
        let (moved_a, moved_b, factor) = if a.factor == b.factor {
            (None, None, a.factor.clone())
        } else if let Some(inverse) = inverse(b) {
            let moved = self.scaled(a, &self.times(&a.factor, &inverse));
            (Some(moved), None, b.factor.clone())
        } else if let Some(inverse) = inverse(a) {
            let moved = self.scaled(b, &self.times(&b.factor, &inverse));
            (None, Some(moved), a.factor.clone())
        } else {
            let (exact_a, exact_b) = (self.scaled(a, &a.factor), self.scaled(b, &b.factor));
            (Some(exact_a), Some(exact_b), BigUint::from(1u32))
        };
        let a_limbs = moved_a.as_deref().unwrap_or(&a.limbs);
        let b_limbs = moved_b.as_deref().unwrap_or(&b.limbs);
        self.modulus.add_lanes(a_limbs, b_limbs, &mut limbs);
        self.registers
            .lanes
            .extend(moved_a.into_iter().chain(moved_b));
        Lane { limbs, factor }
    }

    /// `lane` times a plain operand: a literal only changes the factor (a
    /// copy); a column — `units`, its scaled values for the chunk — is one
    /// product a row.
    fn times_plain(&mut self, lane: &Lane, plain: Plain, units: Option<&[i128]>) -> Lane {
        let mut limbs = self.registers.take(self.len);
        let k = self.modulus.lane_limbs();
        let factor = match plain {
            Plain::Literal(units) => {
                limbs.copy_from_slice(&lane.limbs);
                let mut value = vec![0; k];
                self.modulus.load_signed_lane(units, &mut value);
                self.times(&lane.factor, &self.modulus.store_lane(&value))
            }
            // Every row is NULL: nothing to compute.
            Plain::Null => lane.factor.clone(),
            Plain::Column { .. } => {
                let mut scaled = self.registers.take(self.len);
                let units = units.expect("a column operand is scaled when checked");
                for (&units, row) in units.iter().zip(scaled.chunks_exact_mut(k)) {
                    self.modulus.load_signed_lane(units, row);
                }
                self.modulus.mul_lanes(&lane.limbs, &scaled, &mut limbs);
                self.registers.give(scaled);
                self.times(&lane.factor, self.radix)
            }
        };
        Lane { limbs, factor }
    }

    /// `lane`'s values with the factor multiplied in, or `None` when it is
    /// one and the limbs are the values.
    fn exact(&mut self, lane: &Lane) -> Option<Vec<u64>> {
        (lane.factor != BigUint::from(1u32)).then(|| self.scaled(lane, &lane.factor))
    }

    /// `lane`'s limbs times `c`: one product a row with the constant `c·R`.
    fn scaled(&mut self, lane: &Lane, c: &BigUint) -> Vec<u64> {
        let mut out = self.registers.take(self.len);
        let constant = (self.modulus).lane_constant(&self.times(c, self.radix));
        self.modulus.mul_lanes_by(&lane.limbs, &constant, &mut out);
        out
    }
}
