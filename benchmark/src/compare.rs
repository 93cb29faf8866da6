//! `compare A.json B.json`: sets two suite result files (A the baseline, B
//! the candidate) against the bounds in `BENCHMARK.json`, one row per
//! workload × end-to-end metric, direction-aware, after one row per workload
//! for the output check and the failed operations.

use crate::json::{self, Json};
use crate::spec::{Benchmark, Better, EndToEnd};
use crate::stats;
use crate::Args;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound, either way.
    Unchanged,
    /// B's median is better than A's by more than the bound.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// Run-to-run spread exceeds the bound and the sets overlap: the runs
    /// cannot say whether the metric moved.
    Unresolved,
    /// B (or A) has no value for the metric.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Missing)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a_median: Option<f64>,
    pub b_median: Option<f64>,
    /// Signed share of A's median by which B is worse (negative: better).
    pub worse_by: Option<f64>,
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// A set's spread as a share of its median: inter-quartile distance, or the
/// full range where there are too few runs for quartiles to mean anything.
fn spread(values: &[f64]) -> f64 {
    let q = stats::quartiles(values);
    if q.median == 0.0 {
        return 0.0;
    }
    if values.len() >= 4 {
        q.spread()
    } else {
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / q.median.abs()
    }
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, Option<f64>, Option<f64>) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, None, None);
    }
    let (a_med, b_med) = (stats::median(a), stats::median(b));
    let worse_by = match metric.better {
        Better::Lower => (b_med - a_med) / a_med.abs(),
        Better::Higher => (a_med - b_med) / a_med.abs(),
    };
    let spread = spread(a).max(spread(b));
    let every_b_beats_every_a = match metric.better {
        Better::Lower => b.iter().all(|b| a.iter().all(|a| b < a)),
        Better::Higher => b.iter().all(|b| a.iter().all(|a| b > a)),
    };
    let verdict = if spread > metric.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regression
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, Some(worse_by), Some(spread))
}

/// The finite values a result file holds for one workload's metric.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// The metric name of the row [`judge_check`] fills.
pub const OUTPUT_CHECK: &str = "output_check";

/// `(output check passed, failed ÷ attempted operations)` over a set's runs
/// of one workload, or `None` where the file does not say.
fn output_check(doc: &Json, workload: &str) -> Option<(bool, f64)> {
    let entry = doc.get("workloads")?.get(workload)?;
    let correct = entry.get("correct")? == &Json::Bool(true);
    let attempted = entry.get("attempted")?.as_f64()?;
    let failed = entry.get("failed")?.as_f64()?;
    Some((correct, failed / attempted.max(1.0)))
}

/// A gain does not count when the outputs are wrong or more operations fail:
/// the candidate's output check must have passed on every run, and its share
/// of failed operations must not exceed the baseline's.
fn judge_check(workload: &str, a: &Json, b: &Json) -> Row {
    let (a, b) = (output_check(a, workload), output_check(b, workload));
    let verdict = match (a, b) {
        (Some((_, a_share)), Some((b_correct, b_share))) => {
            if b_correct && b_share <= a_share {
                Verdict::Unchanged
            } else {
                Verdict::Regression
            }
        }
        _ => Verdict::Missing,
    };
    Row {
        workload: workload.to_string(),
        metric: OUTPUT_CHECK.to_string(),
        a_median: a.map(|(_, share)| share),
        b_median: b.map(|(_, share)| share),
        worse_by: None,
        spread: None,
        bound: 0.0,
        verdict,
    }
}

pub fn compare(benchmark: &Benchmark, a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, _) in &benchmark.workloads {
        rows.push(judge_check(workload, a, b));
        for metric in &benchmark.end_to_end {
            let (a_values, b_values) = (
                values(a, workload, &metric.name),
                values(b, workload, &metric.name),
            );
            let (verdict, worse_by, spread) = judge(metric, &a_values, &b_values);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                a_median: (!a_values.is_empty()).then(|| stats::median(&a_values)),
                b_median: (!b_values.is_empty()).then(|| stats::median(&b_values)),
                worse_by,
                spread,
                bound: metric.bound,
                verdict,
            });
        }
    }
    rows
}

fn print(rows: &[Row]) {
    let number = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    let percent = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:+.2}%", v * 100.0));
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for row in rows {
        println!(
            "{:<16} {:<26} {:>14} {:>14} {:>9} {:>8} {:>8}  {}",
            row.workload,
            row.metric,
            number(row.a_median),
            number(row.b_median),
            percent(row.worse_by),
            percent(row.spread),
            percent(Some(row.bound)),
            row.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} unchanged, {} improved, {} unresolved, {} regression, {} missing",
        rows.len(),
        count(Verdict::Unchanged),
        count(Verdict::Improved),
        count(Verdict::Unresolved),
        count(Verdict::Regression),
        count(Verdict::Missing)
    );
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    if args.switch("--self-test") {
        return self_test();
    }
    let files = args.positional();
    let [a, b] = files.as_slice() else {
        return Err("usage: compare A.json B.json | compare --self-test".to_string());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        json::parse(&text).map_err(|err| format!("{path}: {err}"))
    };
    let rows = compare(&Benchmark::load()?, &load(a)?, &load(b)?);
    print(&rows);
    Ok(if rows.iter().any(|r| r.verdict.fails()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

// --------------------------------------------------------------- self-test

/// A result file holding `values` for each `(metric, values)` of one
/// workload `w`, whose runs passed the output check (or not) and failed
/// `failed` operations of 1000.
fn synthetic_checked(correct: bool, failed: f64, metrics: &[(&str, &[f64])]) -> Json {
    let entries = metrics.iter().map(|(name, values)| {
        let values = Json::Arr(values.iter().map(|v| Json::Num(*v)).collect());
        (
            name.to_string(),
            Json::object([("values".to_string(), values)]),
        )
    });
    let workload = Json::object([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(1000.0)),
        ("failed".to_string(), Json::Num(failed)),
        ("end_to_end".to_string(), Json::object(entries)),
    ]);
    Json::object([(
        "workloads".to_string(),
        Json::object([("w".to_string(), workload)]),
    )])
}

/// [`synthetic_checked`] with a passed output check and no failed operation.
fn synthetic(metrics: &[(&str, &[f64])]) -> Json {
    synthetic_checked(true, 0.0, metrics)
}

/// Feeds the comparison synthetic sets with a known answer each.
fn self_test_cases() -> Vec<(&'static str, Verdict, Verdict)> {
    let benchmark = Benchmark::parse(
        r#"{"workloads":[{"name":"w","why":"synthetic"}],
            "per_layer":[{"name":"p","unit":"s"}],
            "end_to_end":[
              {"name":"rate","unit":"1/s","better":"higher","bound":0.1},
              {"name":"cost","unit":"ms","better":"lower","bound":0.1},
              {"name":"bytes","unit":"B","better":"lower","bound":0.005}]}"#,
    )
    .expect("the synthetic spec parses");
    let verdict = |a: &Json, b: &Json, metric: &str| {
        compare(&benchmark, a, b)
            .into_iter()
            .find(|r| r.metric == metric)
            .map(|r| r.verdict)
            .expect("every spec metric has a row")
    };
    let tight = |centre: f64| {
        [
            centre * 0.99,
            centre,
            centre * 1.01,
            centre * 1.005,
            centre * 0.995,
        ]
    };
    let base = synthetic(&[
        ("rate", &tight(1000.0)),
        ("cost", &tight(10.0)),
        ("bytes", &[512.0; 5]),
    ]);
    let mut cases = Vec::new();
    let mut check = |what, b: &Json, metric, expected| {
        cases.push((what, expected, verdict(&base, b, metric)));
    };

    let same = base.clone();
    check(
        "identical sets are unchanged",
        &same,
        "rate",
        Verdict::Unchanged,
    );
    check(
        "identical exact counts are unchanged",
        &same,
        "bytes",
        Verdict::Unchanged,
    );
    let slower = synthetic(&[
        ("rate", &tight(800.0)),
        ("cost", &tight(12.5)),
        ("bytes", &[516.0; 5]),
    ]);
    check(
        "a higher-is-better metric that drops 20% regresses",
        &slower,
        "rate",
        Verdict::Regression,
    );
    check(
        "a lower-is-better metric that rises 25% regresses",
        &slower,
        "cost",
        Verdict::Regression,
    );
    check(
        "an exact count that moves 0.8% regresses",
        &slower,
        "bytes",
        Verdict::Regression,
    );
    let faster = synthetic(&[
        ("rate", &tight(1300.0)),
        ("cost", &tight(7.0)),
        ("bytes", &[512.0; 5]),
    ]);
    check(
        "a higher-is-better metric that rises 30% improves",
        &faster,
        "rate",
        Verdict::Improved,
    );
    check(
        "a lower-is-better metric that drops 30% improves",
        &faster,
        "cost",
        Verdict::Improved,
    );
    let nudged = synthetic(&[
        ("rate", &tight(960.0)),
        ("cost", &tight(10.4)),
        ("bytes", &[512.0; 5]),
    ]);
    check(
        "a 4% drop inside a 10% bound is unchanged",
        &nudged,
        "rate",
        Verdict::Unchanged,
    );
    check(
        "a 4% rise inside a 10% bound is unchanged",
        &nudged,
        "cost",
        Verdict::Unchanged,
    );
    let noisy = synthetic(&[
        ("rate", &[700.0, 900.0, 1000.0, 1100.0, 1300.0]),
        ("cost", &[4.0, 5.0, 6.0, 7.0, 8.0]),
        ("bytes", &[512.0; 5]),
    ]);
    check(
        "overlapping sets wider than the bound are unresolved, not unchanged",
        &noisy,
        "rate",
        Verdict::Unresolved,
    );
    check(
        "a wide set whose every run beats every baseline run still improves",
        &noisy,
        "cost",
        Verdict::Improved,
    );
    check(
        "a clean candidate passes the output-check row",
        &faster,
        OUTPUT_CHECK,
        Verdict::Unchanged,
    );
    let gain: [(&str, &[f64]); 3] = [
        ("rate", &tight(1300.0)),
        ("cost", &tight(7.0)),
        ("bytes", &[512.0; 5]),
    ];
    check(
        "a faster candidate whose output check failed regresses",
        &synthetic_checked(false, 0.0, &gain),
        OUTPUT_CHECK,
        Verdict::Regression,
    );
    check(
        "a faster candidate that fails more operations regresses",
        &synthetic_checked(true, 3.0, &gain),
        OUTPUT_CHECK,
        Verdict::Regression,
    );
    let partial = synthetic(&[("rate", &tight(1000.0)), ("bytes", &[512.0; 5])]);
    check(
        "a metric the candidate does not report is missing",
        &partial,
        "cost",
        Verdict::Missing,
    );
    cases
}

fn self_test() -> Result<ExitCode, String> {
    let cases = self_test_cases();
    let mut failures = 0;
    for (what, expected, got) in &cases {
        let ok = expected == got;
        failures += usize::from(!ok);
        println!(
            "{} {what}: expected {}, got {}",
            if ok { "ok  " } else { "FAIL" },
            expected.label(),
            got.label()
        );
    }
    println!(
        "compare self-test: {}/{} checks passed",
        cases.len() - failures,
        cases.len()
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_cases_all_hold() {
        for (what, expected, got) in self_test_cases() {
            assert_eq!(expected, got, "{what}");
        }
    }

    #[test]
    fn range_stands_in_for_quartiles_on_small_sets() {
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
