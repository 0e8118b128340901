//! Offline shim for the `criterion` crate.
//!
//! Provides the API surface the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `BenchmarkId` and
//! the `criterion_group!`/`criterion_main!` macros — with a simple timing loop
//! instead of criterion's statistical machinery.
//!
//! Behaviour under the two cargo entry points:
//!
//! * `cargo bench` — each benchmark runs a short warmup then a measured batch,
//!   and prints the mean iteration time.
//! * `cargo test` (which runs `harness = false` bench targets with `--test`) —
//!   each benchmark body executes exactly once, as a smoke test.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How benchmarks should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full timing loop (`cargo bench`).
    Measure,
    /// One iteration per benchmark (`cargo test` smoke run).
    Test,
    /// Skip every benchmark body (`--list` etc.).
    List,
}

fn mode_from_args() -> Mode {
    let mut mode = Mode::Measure;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => mode = Mode::Test,
            "--list" => mode = Mode::List,
            _ => {}
        }
    }
    mode
}

/// The benchmark manager.
pub struct Criterion {
    mode: Mode,
    measure_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { mode: mode_from_args(), measure_time: Duration::from_millis(300) }
    }
}

impl Criterion {
    /// Applies command-line configuration (accepted for API compatibility).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Sets the sample count (accepted for API compatibility).
    pub fn sample_size(self, _samples: usize) -> Self {
        self
    }

    /// Sets the per-benchmark measurement budget.
    pub fn measurement_time(mut self, time: Duration) -> Self {
        self.measure_time = time;
        self
    }

    /// Sets the warmup budget (accepted for API compatibility; this shim's
    /// calibration pass doubles as warmup).
    pub fn warm_up_time(self, _time: Duration) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count (accepted for API compatibility).
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion.mode, self.criterion.measure_time, &label, &mut body);
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Display,
        input: &I,
        mut body: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion.mode, self.criterion.measure_time, &label, &mut |b| {
            body(b, input)
        });
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}
}

/// Identifier combining a function name and a parameter.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Builds an id like `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId { text: format!("{name}/{parameter}") }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Drives a single benchmark's iterations.
pub struct Bencher {
    mode: Mode,
    measure_time: Duration,
    /// Mean nanoseconds per iteration, filled in by `iter`.
    mean_nanos: f64,
    iterations: u64,
}

impl Bencher {
    /// Times `routine` (once in test mode; warmup + measured batch otherwise).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.mode != Mode::Measure {
            black_box(routine());
            self.iterations = 1;
            return;
        }
        // Warmup and iteration-count calibration.
        let calibration_start = Instant::now();
        black_box(routine());
        let first = calibration_start.elapsed().max(Duration::from_nanos(1));
        let target = self.measure_time;
        let iterations = (target.as_nanos() / first.as_nanos()).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iterations {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        self.iterations = iterations;
        self.mean_nanos = elapsed.as_nanos() as f64 / iterations as f64;
    }
}

fn run_one(mode: Mode, measure_time: Duration, label: &str, body: &mut dyn FnMut(&mut Bencher)) {
    if mode == Mode::List {
        println!("{label}: benchmark");
        return;
    }
    let mut bencher = Bencher { mode, measure_time, mean_nanos: 0.0, iterations: 0 };
    body(&mut bencher);
    match mode {
        Mode::Measure => {
            let mean = Duration::from_nanos(bencher.mean_nanos as u64);
            println!(
                "{label:<60} {mean:>12?}/iter ({} iterations)",
                bencher.iterations
            );
        }
        Mode::Test => println!("{label}: ok (smoke run)"),
        Mode::List => {}
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_runs_once_in_test_mode() {
        let mut runs = 0u32;
        let mut bencher =
            Bencher { mode: Mode::Test, measure_time: Duration::ZERO, mean_nanos: 0.0, iterations: 0 };
        bencher.iter(|| runs += 1);
        assert_eq!(runs, 1);
        assert_eq!(bencher.iterations, 1);
    }

    #[test]
    fn measured_bench_reports_iterations() {
        let mut bencher = Bencher {
            mode: Mode::Measure,
            measure_time: Duration::from_millis(5),
            mean_nanos: 0.0,
            iterations: 0,
        };
        bencher.iter(|| black_box(3u64 * 7));
        assert!(bencher.iterations >= 1);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("op", 16).to_string(), "op/16");
    }
}
