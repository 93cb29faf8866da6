//! `BENCHMARK.json`, the one place metric names, units, directions and bounds
//! are recorded. The harness reads it rather than repeating it.

use crate::json::{self, Json};
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric and the share of the baseline's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

/// The directory this package lives in: `benchmark/` under the current
/// directory when run from a checkout's root, else where it was built.
pub fn benchmark_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

impl Benchmark {
    pub fn load() -> Result<Self, String> {
        let path = benchmark_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        Self::parse(&text).map_err(|err| format!("{}: {err}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let field = |entry: &Json, key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks the string \"{key}\""))
        };
        let list = |key: &str| -> Result<&[Json], String> {
            let items = doc.get(key).map(Json::as_array).unwrap_or_default();
            if items.is_empty() {
                Err(format!("\"{key}\" is missing or empty"))
            } else {
                Ok(items)
            }
        };

        let mut end_to_end = Vec::new();
        for entry in list("end_to_end")? {
            let better = match field(entry, "better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("\"better\" is '{other}', not higher or lower")),
            };
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| *b > 0.0)
                .ok_or("an end-to-end entry lacks a positive \"bound\"")?;
            end_to_end.push(EndToEnd {
                name: field(entry, "name")?,
                unit: field(entry, "unit")?,
                better,
                bound,
            });
        }
        let per_layer = list("per_layer")?
            .iter()
            .map(|entry| Ok((field(entry, "name")?, field(entry, "unit")?)))
            .collect::<Result<_, String>>()?;
        let workloads = list("workloads")?
            .iter()
            .map(|entry| Ok((field(entry, "name")?, field(entry, "why")?)))
            .collect::<Result<_, String>>()?;
        Ok(Self {
            workloads,
            end_to_end,
            per_layer,
        })
    }

    pub fn end_to_end_names(&self) -> Vec<(String, String)> {
        self.end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// The committed file and the harness must describe the same benchmark.
    #[test]
    fn benchmark_json_names_the_workloads_this_harness_runs() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let benchmark = Benchmark::parse(&text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        let listed: Vec<&str> = benchmark
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(listed, names);
        assert!(benchmark
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(benchmark.end_to_end.iter().all(|m| m.bound <= 0.25));
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(workloads::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_a_reason() {
        assert!(Benchmark::parse("{}").unwrap_err().contains("end_to_end"));
        let bad_direction = r#"{"workloads":[{"name":"w","why":"y"}],"per_layer":[{"name":"p","unit":"s"}],
            "end_to_end":[{"name":"m","unit":"s","better":"sideways","bound":0.1}]}"#;
        assert!(Benchmark::parse(bad_direction)
            .unwrap_err()
            .contains("sideways"));
    }
}
