//! `recd-benchmark`: the repo benchmark.
//!
//! ```text
//! recd-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! recd-benchmark suite [--seed N] [--seconds S] [--runs R] [--out DIR] [--smoke]
//! recd-benchmark compare A.json B.json | --self-test
//! ```
//!
//! `run` measures one workload in this process and prints, as its last line
//! of standard output, one JSON object with the metrics `BENCHMARK.json`
//! names. `suite` runs every workload, untraced then traced, each in a fresh
//! process. `compare` sets two suite result files against the bounds in
//! `BENCHMARK.json`. See `README.md`.

mod compare;
mod json;
mod ledger;
mod procfs;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod verify;
mod workloads;

use json::Json;
use run::{Metric, RunOptions, RunResult};
use std::process::ExitCode;
use std::time::Instant;

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.switch(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot read '{text}'")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // The bare flags of the benchmark contract mean `run`.
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "run".to_string(),
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => run_command(&args, process_start),
        "suite" => suite::run(&args),
        "compare" => compare::run(&args),
        other => Err(format!("unknown command '{other}' (run | suite | compare)")),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("recd-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn run_command(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let name = args
        .value("--workload")
        .ok_or("run needs --workload <name>")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seconds: f64 = args.parsed("--seconds", workloads::DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let opts = RunOptions {
        workload,
        seed: args.parsed("--seed", workloads::DEFAULT_SEED)?,
        seconds,
        trace,
        smoke: args.switch("--smoke"),
    };
    // Read before measuring, so a checkout without it fails fast.
    let benchmark = spec::Benchmark::load()?;

    if let Some((_, why)) = benchmark.workloads.iter().find(|(n, _)| n == name) {
        println!("workload {name}: {why}");
    }
    let result = run::run(opts, process_start);

    // End-to-end numbers come from untraced runs only, per-layer numbers
    // from traced ones.
    let (section, metrics) = if trace {
        ("per_layer", &result.per_layer)
    } else {
        ("end_to_end", &result.end_to_end)
    };
    for metric in metrics {
        println!("{}", metric_line(section, workload.name, metric));
    }
    for problem in &result.problems {
        println!("output check FAILED: {problem}");
    }
    if trace {
        write_trace(workload.name, &result)?;
    }

    // A smoke run checks outputs only; its single epoch supports no metric.
    let line = if opts.smoke {
        result_line(&result, &[])?
    } else if trace {
        result_line(&result, &benchmark.per_layer)?
    } else {
        result_line(&result, &benchmark.end_to_end_names())?
    };
    println!("{line}");
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `metric <section> <workload> <name> <value|null> <unit> [n=<samples>]`
fn metric_line(section: &str, workload: &str, metric: &Metric) -> String {
    let value = metric.value.map_or("null".to_string(), |v| v.to_string());
    let n = metric.n.map_or(String::new(), |n| format!(" n={n}"));
    format!(
        "metric {section} {workload} {} {value} {}{n}",
        metric.name, metric.unit
    )
}

/// The contract's result object, holding exactly the metrics in `wanted`.
fn result_line(result: &RunResult, wanted: &[(String, String)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let metric = result
            .end_to_end
            .iter()
            .chain(&result.per_layer)
            .find(|m| m.name == name)
            .ok_or_else(|| {
                format!("BENCHMARK.json names '{name}', which this run did not measure")
            })?;
        if metric.unit != unit {
            return Err(format!(
                "'{name}' is measured in {}, BENCHMARK.json says {unit}",
                metric.unit
            ));
        }
        let value = metric
            .value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("'{name}' has no value on this workload"))?;
        let entry = Json::object([
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::Str(unit.clone())),
        ]);
        metrics.push((name.clone(), entry));
    }
    Ok(Json::object([
        ("correct".to_string(), Json::Bool(result.correct)),
        ("attempted".to_string(), Json::Num(result.attempted as f64)),
        ("failed".to_string(), Json::Num(result.failed as f64)),
        ("metrics".to_string(), Json::object(metrics)),
    ])
    .render())
}

fn write_trace(workload: &str, result: &RunResult) -> Result<(), String> {
    let dir = spec::benchmark_dir().join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&result.spans)))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}
