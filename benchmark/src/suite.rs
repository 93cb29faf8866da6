//! `suite`: every workload, untraced then traced, each in a fresh process so
//! that set-up time and peak memory are clean; prints every metric and
//! writes `<out>/results.json`.

use crate::json::{self, Json};
use crate::procfs;
use crate::stats;
use crate::workloads;
use crate::Args;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The values one metric took over the runs of a set.
#[derive(Debug, Default, Clone, PartialEq)]
struct Series {
    unit: String,
    /// One entry per run; `None` where the run had no value.
    values: Vec<Option<f64>>,
    /// Samples behind each run's value, where it is an order statistic.
    samples: Vec<Option<usize>>,
}

type Section = BTreeMap<String, Series>;

#[derive(Debug, Default, Clone, PartialEq)]
struct WorkloadResults {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Section,
    per_layer: Section,
}

/// One `metric …` line of a child's output.
struct MetricLine {
    section: String,
    name: String,
    value: Option<f64>,
    unit: String,
    n: Option<usize>,
}

/// One child process's parsed output.
struct ChildRun {
    exit_ok: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<MetricLine>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe =
        std::env::current_exe().map_err(|err| format!("cannot find own executable: {err}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|err| format!("cannot start the {workload} run: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);

    let mut run = ChildRun {
        exit_ok: output.status.success(),
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", section, _workload, name, value, unit, rest @ ..] => {
                let n = rest
                    .first()
                    .and_then(|n| n.strip_prefix("n="))
                    .and_then(|n| n.parse().ok());
                run.metrics.push(MetricLine {
                    section: section.to_string(),
                    name: name.to_string(),
                    value: value.parse().ok(),
                    unit: unit.to_string(),
                    n,
                });
            }
            _ if line.starts_with("output check FAILED") => println!("{workload}: {line}"),
            _ => {}
        }
    }
    let result = stdout
        .lines()
        .last()
        .and_then(|line| json::parse(line).ok())
        .ok_or_else(|| format!("the {workload} run printed no result line"))?;
    run.correct = result.get("correct") == Some(&Json::Bool(true));
    run.attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    run.failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(run)
}

// ------------------------------------------------------------ results.json

fn section_to_json(section: &Section) -> Json {
    Json::object(section.iter().map(|(name, series)| {
        let values = series
            .values
            .iter()
            .map(|v| v.map_or(Json::Null, Json::num));
        let samples = series
            .samples
            .iter()
            .map(|n| n.map_or(Json::Null, |n| Json::Num(n as f64)));
        let entry = Json::object([
            ("unit".to_string(), Json::Str(series.unit.clone())),
            ("values".to_string(), Json::Arr(values.collect())),
            ("samples".to_string(), Json::Arr(samples.collect())),
        ]);
        (name.clone(), entry)
    }))
}

fn section_from_json(doc: Option<&Json>) -> Section {
    let mut section = Section::new();
    for (name, entry) in doc.and_then(Json::as_object).into_iter().flatten() {
        let list = |key| entry.get(key).map(Json::as_array).unwrap_or_default();
        section.insert(
            name.clone(),
            Series {
                unit: entry
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                values: list("values").iter().map(Json::as_f64).collect(),
                samples: list("samples")
                    .iter()
                    .map(|n| n.as_f64().map(|n| n as usize))
                    .collect(),
            },
        );
    }
    section
}

fn load_results(path: &Path) -> Result<BTreeMap<String, WorkloadResults>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let doc = json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    let mut results = BTreeMap::new();
    for (name, entry) in doc
        .get("workloads")
        .and_then(Json::as_object)
        .into_iter()
        .flatten()
    {
        let count = |key| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        results.insert(
            name.clone(),
            WorkloadResults {
                correct: entry.get("correct") == Some(&Json::Bool(true)),
                attempted: count("attempted"),
                failed: count("failed"),
                end_to_end: section_from_json(entry.get("end_to_end")),
                per_layer: section_from_json(entry.get("per_layer")),
            },
        );
    }
    Ok(results)
}

fn results_to_json(results: &BTreeMap<String, WorkloadResults>, seed: u64, seconds: f64) -> Json {
    let workloads = results.iter().map(|(name, w)| {
        let entry = Json::object([
            ("correct".to_string(), Json::Bool(w.correct)),
            ("attempted".to_string(), Json::Num(w.attempted as f64)),
            ("failed".to_string(), Json::Num(w.failed as f64)),
            ("end_to_end".to_string(), section_to_json(&w.end_to_end)),
            ("per_layer".to_string(), section_to_json(&w.per_layer)),
        ]);
        (name.clone(), entry)
    });
    Json::object([
        ("schema".to_string(), Json::Num(1.0)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("nproc".to_string(), Json::Num(procfs::nproc() as f64)),
        ("workloads".to_string(), Json::object(workloads)),
    ])
}

// ------------------------------------------------------------------- suite

fn record(results: &mut WorkloadResults, run: &ChildRun) {
    results.correct &= run.correct && run.exit_ok;
    results.attempted += run.attempted;
    results.failed += run.failed;
    for line in &run.metrics {
        let section = match line.section.as_str() {
            "end_to_end" => &mut results.end_to_end,
            _ => &mut results.per_layer,
        };
        let series = section.entry(line.name.clone()).or_default();
        series.unit = line.unit.clone();
        series.values.push(line.value);
        series.samples.push(line.n);
    }
}

fn print_summary(name: &str, results: &WorkloadResults) {
    for section in [&results.end_to_end, &results.per_layer] {
        for (metric, series) in section {
            let values: Vec<f64> = series.values.iter().flatten().copied().collect();
            let samples = series.samples.iter().flatten().last();
            let n = samples.map_or(String::new(), |n| format!(" n={n}"));
            if values.is_empty() {
                println!("{name} {metric} null {}{n}", series.unit);
            } else if values.len() == 1 {
                println!("{name} {metric} {} {}{n}", values[0], series.unit);
            } else {
                let q = stats::quartiles(&values);
                println!(
                    "{name} {metric} {} {}{n} runs={} q1={} q3={}",
                    q.median, series.unit, q.n, q.q1, q.q3
                );
            }
        }
    }
    let share = results.failed as f64 / results.attempted.max(1) as f64;
    println!(
        "{name} output_check {} attempted={} failed={} failed_ops_share={share}",
        if results.correct { "passed" } else { "FAILED" },
        results.attempted,
        results.failed
    );
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.switch("--smoke");
    let seed: u64 = args.parsed("--seed", workloads::DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", workloads::DEFAULT_SECONDS)?;
    let runs: usize = args.parsed("--runs", 1)?;
    let out_dir = args
        .value("--out")
        .map_or_else(|| crate::spec::benchmark_dir().join("out"), PathBuf::from);
    let results_path = out_dir.join("results.json");

    // `--append` adds this invocation's runs to an existing set, which is how
    // two sets are interleaved run by run: alternate invocations between two
    // `--out` directories.
    let mut results = if args.switch("--append") && results_path.is_file() {
        load_results(&results_path)?
    } else {
        BTreeMap::new()
    };

    println!(
        "recd-benchmark suite: {} workloads, seed {seed}, {seconds} s measured per run, {runs} run(s), nproc {}, load generator threads 2{}",
        workloads::ALL.len(),
        procfs::nproc(),
        if smoke { ", smoke" } else { "" }
    );
    for _ in 0..runs.max(1) {
        for workload in &workloads::ALL {
            let traces: &[bool] = if smoke { &[false] } else { &[false, true] };
            for &trace in traces {
                let run = run_child(workload.name, seed, seconds, trace, smoke)?;
                let entry =
                    results
                        .entry(workload.name.to_string())
                        .or_insert_with(|| WorkloadResults {
                            correct: true,
                            ..WorkloadResults::default()
                        });
                record(entry, &run);
            }
        }
    }

    for workload in &workloads::ALL {
        if let Some(results) = results.get(workload.name) {
            print_summary(workload.name, results);
        }
    }
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| {
            std::fs::write(
                &results_path,
                results_to_json(&results, seed, seconds).pretty(),
            )
        })
        .map_err(|err| format!("cannot write {}: {err}", results_path.display()))?;
    println!("wrote {}", results_path.display());

    let clean = results.values().all(|w| w.correct && w.failed == 0);
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
