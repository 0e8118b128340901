//! A yardstick for the host's speed.
//!
//! The box this benchmark runs on is a small VM whose cores change speed
//! for seconds to minutes at a time: the same register-only loop runs 10–20 %
//! faster than usual in one state and about 17 % slower in another, and every
//! workload's pass times follow (1.95 s ↔ 1.45 s on `tpch_crypto`). No median
//! over the passes of one run removes a state that lasts longer than the run,
//! so timed runs measure the host beside the program: three short fixed
//! kernels (a round of them is `NOMINAL_S`, 1 ms; a reading is the median of
//! three rounds) are timed right before and right after each timed interval,
//! and the interval is reported in **calibrated seconds** — wall seconds ×
//! (the kernels' nominal time ÷ their time just measured). A calibrated
//! second is a second on a host in its nominal state. The kernels are the
//! harness's own and share no code with the repository, so no change to the
//! repository moves them. Three, because the states do not slow all code
//! alike (throughput-bound code loses more than latency-bound code);
//! together they follow bignum and engine work to within about 4 % where one
//! alone leaves 6 %.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one round of the three kernels takes on this box in its usual
/// state.
const NOMINAL_S: f64 = 0.001;
/// A reading older than this is taken again before an interval starts.
const STALE_S: f64 = 0.02;

/// A dependent chain of shifts and xors: bound by instruction latency.
fn shift_chain() -> u64 {
    let mut x: u64 = 88_172_645_463_325_252;
    for _ in 0..186_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Four independent multiply-add chains: bound by multiplier throughput,
/// which a busy sibling hardware thread takes away first.
fn multiply_chains() -> u64 {
    let (mut p, mut q, mut r, mut s) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..273_000u64 {
        p = p.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        q = q
            .wrapping_mul(2_862_933_555_777_941_757)
            .wrapping_add(p >> 7);
        r = r
            .wrapping_mul(3_202_034_522_624_059_733)
            .wrapping_add(i ^ 5);
        s = s.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(r >> 3);
    }
    p ^ q ^ r ^ s
}

/// Schoolbook products of eight-limb numbers into freshly allocated
/// buffers: wide multiplies, carries, loads, stores and the allocator.
fn limb_products() -> u64 {
    let x: Vec<u64> = (1..=8u64)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i))
        .collect();
    let mut y: Vec<u64> = (1..=8u64)
        .map(|i| 0xd1b5_4a32_d192_ed03u64.wrapping_mul(i))
        .collect();
    for _ in 0..4_000 {
        // A heap buffer per product on purpose: the allocator is part of
        // what bignum code pays.
        #[allow(clippy::useless_vec)]
        let mut product = vec![0u64; 16];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let cell = u128::from(product[i + j]) + u128::from(x[i]) * u128::from(y[j]) + carry;
                product[i + j] = cell as u64;
                carry = cell >> 64;
            }
            product[i + 8] = carry as u64;
        }
        for k in 0..8 {
            y[k] = product[k] ^ product[k + 8];
        }
    }
    y[0]
}

/// One reading on the calling thread: nominal time ÷ measured time of a
/// round of the three kernels (1.0 in the nominal state, above 1 when the
/// host is faster). The median of three rounds, so a round an interrupt
/// lands in does not count.
fn read_one() -> f64 {
    let mut rounds = [0.0; 3];
    for round in &mut rounds {
        let started = Instant::now();
        black_box(shift_chain());
        black_box(multiply_chains());
        black_box(limb_products());
        *round = started.elapsed().as_secs_f64();
    }
    rounds.sort_by(f64::total_cmp);
    NOMINAL_S / rounds[1]
}

/// A timed interval: wall seconds and the host's speed beside it.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub wall_s: f64,
    /// Mean of the yardstick readings before and after the interval.
    pub speed: f64,
}

impl Interval {
    /// Seconds the interval would have taken on a host in its nominal state.
    pub fn calibrated_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// A reading on `threads` threads at once, averaged: a workload that keeps
/// two cores busy is slowed by whichever of them the host has slowed.
fn read(threads: usize) -> f64 {
    if threads <= 1 {
        return read_one();
    }
    let readings: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(read_one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("yardstick thread"))
            .collect()
    });
    readings.iter().sum::<f64>() / threads as f64
}

/// Times intervals and reads the yardstick around each.
pub struct Clock {
    /// Threads the measured work keeps busy.
    threads: usize,
    reading: f64,
    read_at: Instant,
    /// Every reading taken, for `host.speed`.
    pub readings: Vec<f64>,
}

impl Clock {
    /// A clock for work that keeps `threads` threads busy.
    pub fn new(threads: usize) -> Self {
        let reading = read(threads);
        Clock {
            threads,
            reading,
            read_at: Instant::now(),
            readings: vec![reading],
        }
    }

    fn take(&mut self) -> f64 {
        self.reading = read(self.threads);
        self.read_at = Instant::now();
        self.readings.push(self.reading);
        self.reading
    }

    /// Runs `work` and returns its result with the interval it took. The
    /// reading before is the previous interval's reading after, unless that
    /// has gone stale.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Interval) {
        let before = if self.read_at.elapsed().as_secs_f64() > STALE_S {
            self.take()
        } else {
            self.reading
        };
        let started = Instant::now();
        let result = work();
        let wall_s = started.elapsed().as_secs_f64();
        let after = self.take();
        let interval = Interval {
            wall_s,
            speed: (before + after) / 2.0,
        };
        (result, interval)
    }
}
