//! `perf_report`: the layered SDB-vs-plaintext benchmark.
//!
//! ```text
//! perf_report --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf_report [--traced] [--smoke] [--repeat N] [--seed <n>] [--seconds <s>]
//! ```
//!
//! With `--workload` it runs that workload and ends its output with the
//! result object of the benchmark contract (`BENCHMARK.json`). Without, it
//! runs all five, each in a child process of its own, and ends with a
//! summary object whose last key is
//! `"claim": null`: the benchmark measures, it never claims a gain. See the
//! README beside the manifest for workloads, metrics and how to read a
//! trace.

mod deploy;
mod layers;
mod report;
mod serve;
mod spec;
mod stats;
mod tpch;
mod trace;
mod upload;
mod yardstick;

use std::process::{Command, ExitCode, Stdio};

use deploy::RunConfig;
use report::Outcome;
use sdb_bench::BENCH_SEED;
use spec::{MetricSpec, END_TO_END, PER_LAYER, REFUSED_ENV, WORKLOADS};

/// Window of one run unless `--seconds` says otherwise (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    config: RunConfig,
    repeat: usize,
}

fn usage() -> String {
    format!(
        "usage: perf_report [--workload {}] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--repeat N]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        config: RunConfig {
            seed: BENCH_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.config.trace = value()? == "1",
            "--traced" => args.config.trace = true,
            "--smoke" => args.config.smoke = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.repeat == 0 || !args.config.seconds.is_finite() || args.config.seconds < 0.0 {
        return Err("--repeat must be at least 1 and --seconds at least 0".to_string());
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    match name {
        "serve_mixed" => serve::run(cfg),
        "upload" => upload::run(cfg),
        analytic => tpch::TpchWorkload::named(analytic)
            .expect("workload names are validated")
            .run(cfg),
    }
}

/// Runs one workload as `perf_report --workload <name>` in a process of its
/// own, so that `peak_rss_mb` (`VmHWM`) is that workload's and not the
/// largest so far. Echoes the child's report and returns its result object
/// and whether every operation was correct.
fn run_in_child(name: &str, cfg: &RunConfig) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .pop()
        .filter(|line| line.starts_with("{\"correct\""))
        .ok_or(format!("child ended without a result ({})", output.status))?;
    // The child's first line repeats this process's header.
    for line in lines.iter().skip(1) {
        println!("{line}");
    }
    Ok((result.to_string(), output.status.success()))
}

/// The value of metric `name` in a result object this program printed.
fn metric_value(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn specs(cfg: &RunConfig) -> &'static [MetricSpec] {
    if cfg.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Median, quartiles and spread of one metric on one workload over the
/// repeated sets; a metric whose spread exceeds its bound is `unresolved`,
/// never reported as unchanged.
fn print_repeat_row(workload: &str, spec: &MetricSpec, values: &[f64]) {
    let median = stats::median(values);
    let (q1, q3) = stats::quartiles(values);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    let verdict = match spec.bound {
        Some(bound) if spread > bound => "unresolved",
        Some(_) => "inside",
        None => "-",
    };
    println!(
        "{workload:<12} {:<32} {median:>16.6} {q1:>16.6} {q3:>16.6} {:>8.4} {:>6} {verdict}",
        spec.name,
        spread,
        spec.bound.map_or("-".to_string(), |b| b.to_string()),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        eprintln!("refusing to measure while {var} is set: it changes what the engine does");
        return ExitCode::from(2);
    }
    let cfg = args.config;
    let specs = specs(&cfg);
    println!(
        "perf_report seed {} seconds {} trace {} smoke {} cores {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // The contract's form: one workload, the result object last.
    if let Some(name) = &args.workload {
        let outcome = run_workload(name, &cfg);
        outcome.print(name, specs);
        println!("{}", outcome.result_json(specs));
        return if outcome.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Every workload, `--repeat` times, each run in a process of its own.
    let mut sets: Vec<Vec<String>> = Vec::new();
    let mut all_correct = true;
    for set in 0..args.repeat {
        let mut results = Vec::new();
        if args.repeat > 1 {
            println!("set {} of {}", set + 1, args.repeat);
        }
        for name in WORKLOADS {
            match run_in_child(name, &cfg) {
                Ok((result, correct)) => {
                    all_correct &= correct;
                    results.push(result);
                }
                Err(message) => {
                    eprintln!("{name}: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(results);
    }
    if args.repeat > 1 {
        println!(
            "{:<12} {:<32} {:>16} {:>16} {:>16} {:>8} {:>6} verdict",
            "workload", "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (w, name) in WORKLOADS.iter().enumerate() {
            for spec in specs {
                let values: Vec<f64> = sets
                    .iter()
                    .map(|set| metric_value(&set[w], spec.name).unwrap_or(0.0))
                    .collect();
                print_repeat_row(name, spec, &values);
            }
        }
    }

    let last = sets.last().expect("at least one set");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(last)
        .map(|(name, result)| format!("\"{name}\": {result}"))
        .collect();
    let directions: Vec<String> = specs
        .iter()
        .map(|s| format!("\"{}\": \"{}\"", s.name, s.better.as_str()))
        .collect();
    println!(
        "{{\"seed\": {}, \"trace\": {}, \"sets\": {}, \"workloads\": {{{}}}, \"better\": {{{}}}, \"claim\": null}}",
        cfg.seed,
        cfg.trace,
        args.repeat,
        workloads.join(", "),
        directions.join(", ")
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
