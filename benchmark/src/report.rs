//! Metrics, their printing, the result files, and the final JSON line.

use crate::measure::Pass;
use crate::stats;
use crate::workloads::{BenchWorkload, Cell};
use avatar_bench::json::Json;
use avatar_bench::obj;
use std::path::Path;

/// Spread of a metric measured over several passes.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value (the median, for a metric measured over passes).
    pub value: f64,
    /// Spread over passes, when the metric has several samples.
    pub spread: Option<Spread>,
}

impl Metric {
    /// A single-valued metric.
    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            spread: None,
        }
    }

    /// The median of `samples`, with their spread.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, q3) = stats::quartiles(samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            name: name.into(),
            unit,
            value: stats::median(samples),
            spread: Some(Spread {
                min,
                max,
                q1,
                q3,
                n: samples.len(),
            }),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::from(self.value)),
            ("unit".to_string(), Json::from(self.unit)),
        ];
        if let Some(s) = self.spread {
            fields.extend([
                ("min".to_string(), Json::from(s.min)),
                ("max".to_string(), Json::from(s.max)),
                ("q1".to_string(), Json::from(s.q1)),
                ("q3".to_string(), Json::from(s.q3)),
                ("n".to_string(), Json::from(s.n)),
            ]);
        }
        Json::Obj(fields)
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed.
    pub failed: u64,
    /// One line per failed cell run or failed run-level check.
    pub failures: Vec<String>,
    /// Informational lines printed under the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every cell run and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The final output line: `correct`, `attempted`, `failed` and each
    /// metric's value and unit, on one line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), obj! { "value": m.value, "unit": m.unit }))
            .collect();
        let doc = obj! {
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Json::Obj(metrics),
        };
        compact(&doc)
    }

    /// The metrics as a JSON object for the result files.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.name.clone(), m.to_json()))
                .collect(),
        )
    }
}

/// `Json::pretty` on one line. Raw newlines only ever separate tokens (a
/// string's newlines are escaped), so joining the trimmed lines is exact.
pub fn compact(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim_start).collect()
}

/// Prints the metric table, notes and failures, then the result line.
pub fn print(w: &BenchWorkload, o: &Outcome) {
    println!(
        "workload {} ({} SMs x {} warps, scale {}): {}",
        w.name, w.sms, w.warps, w.scale, w.why
    );
    let rows: Vec<Vec<String>> = o.metrics.iter().map(row).collect();
    avatar_bench::print_table(
        &["metric", "value", "unit", "min", "max", "IQR", "n"],
        &rows,
    );
    for n in &o.notes {
        println!("  {n}");
    }
    for f in &o.failures {
        eprintln!("FAILED {f}");
    }
    println!(
        "cells: {} attempted, {} failed (fail_frac {:.4})",
        o.attempted,
        o.failed,
        if o.attempted == 0 {
            0.0
        } else {
            o.failed as f64 / o.attempted as f64
        }
    );
    println!("{}", o.result_line());
}

fn row(m: &Metric) -> Vec<String> {
    let mut r = vec![m.name.clone(), fmt(m.value), m.unit.to_string()];
    match m.spread {
        Some(s) => r.extend([fmt(s.min), fmt(s.max), fmt(s.q3 - s.q1), s.n.to_string()]),
        None => r.extend(["-".into(), "-".into(), "-".into(), "1".into()]),
    }
    r
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Host facts recorded with every result: CPU count, build, and every
/// `AVATAR_*` environment knob the simulator might read.
pub fn host_json() -> Json {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("AVATAR_"))
        .collect();
    env.sort();
    obj! {
        "cpus": cpus,
        "build": if cfg!(feature = "probes") { "traced (probes on)" } else { "untraced (probes compiled out)" },
        "env": Json::Obj(env.into_iter().map(|(k, v)| (k, Json::from(v))).collect()),
    }
}

/// Writes `doc` to `path`.
pub fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced run a traced run is compared against.
#[derive(Debug)]
pub struct Reference {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Median untraced pass wall time, as measured (not at nominal host
    /// speed, since the traced passes it is compared with are not).
    pub wall_s: f64,
    /// Per-cell digests of the untraced build; `None` where the cell
    /// never completed there.
    pub digests: Vec<Option<u64>>,
}

impl Reference {
    /// Loads an untraced result file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = |what: &str| format!("{}: missing or bad {what}", path.display());
        let digests = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("cells"))?
            .iter()
            .map(|c| {
                c.get("digest")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
            })
            .collect();
        Ok(Self {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("workload"))?
                .to_string(),
            seed: doc
                .get("seed")
                .and_then(Json::as_i64)
                .and_then(|s| u64::try_from(s).ok())
                .ok_or_else(|| bad("seed"))?,
            wall_s: doc
                .get("pass_wall_s")
                .and_then(Json::as_arr)
                .and_then(|walls| walls.iter().map(Json::as_f64).collect::<Option<Vec<_>>>())
                .map(|walls| stats::median(&walls))
                .ok_or_else(|| bad("pass_wall_s"))?,
            digests,
        })
    }
}

/// One row per cell: label, digest (hex: JSON integers are signed
/// 64-bit), and the cold pass's wall time and event count.
pub fn cells_json(cells: &[Cell], cold: &Pass, digests: &[Option<u64>]) -> Json {
    let rows = cells
        .iter()
        .zip(&cold.cells)
        .zip(digests)
        .map(|((c, run), d)| {
            let run = run.as_ref().ok();
            obj! {
                "label": c.label(),
                "digest": d.map(|d| format!("{d:016x}")),
                "cold_wall_s": run.map(|r| r.wall_s),
                "events": run.map(|r| r.stats.events_processed),
            }
        })
        .collect();
    Json::Arr(rows)
}

/// Combines the untraced and traced result files of each listed workload
/// into `result.json` and prints one table, metrics by workload.
pub fn summarize(list: &str, out: &Path) -> Result<bool, String> {
    let names: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let mut docs = Vec::new();
    for name in &names {
        let mut parts = Vec::new();
        for kind in ["untraced", "traced"] {
            let path = out.join(format!("{name}.{kind}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            parts.push((
                kind.to_string(),
                Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            ));
        }
        docs.push((name.to_string(), Json::Obj(parts)));
    }
    let mut metric_names: Vec<(String, String)> = Vec::new();
    for (_, doc) in &docs {
        for kind in ["untraced", "traced"] {
            if let Some(Json::Obj(ms)) = doc.get(kind).and_then(|d| d.get("metrics")) {
                for (k, v) in ms {
                    let unit = v
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    if !metric_names.iter().any(|(n, _)| n == k) {
                        metric_names.push((k.clone(), unit));
                    }
                }
            }
        }
    }
    let mut all_correct = true;
    let rows: Vec<Vec<String>> = metric_names
        .iter()
        .map(|(name, unit)| {
            let mut r = vec![name.clone(), unit.clone()];
            for (_, doc) in &docs {
                let v = ["untraced", "traced"].iter().find_map(|k| {
                    doc.get(k)?
                        .get("metrics")?
                        .get(name)?
                        .get("value")?
                        .as_f64()
                });
                r.push(v.map_or("-".to_string(), fmt));
            }
            r
        })
        .collect();
    let mut footer = vec!["correct".to_string(), String::new()];
    for (_, doc) in &docs {
        let ok = ["untraced", "traced"].iter().all(|k| {
            doc.get(k)
                .and_then(|d| d.get("correct"))
                .and_then(Json::as_bool)
                == Some(true)
        });
        all_correct &= ok;
        footer.push(ok.to_string());
    }
    let mut headers = vec!["metric", "unit"];
    headers.extend(names.iter().copied());
    let mut rows = rows;
    rows.push(footer);
    avatar_bench::print_table(&headers, &rows);
    let path = out.join("result.json");
    write(&path, &Json::Obj(docs))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_line_of_json_with_exactly_four_keys() {
        let o = Outcome {
            metrics: vec![
                Metric::median_of("wall_s", "s", &[1.5, 1.25, 1.75]),
                Metric::one("x.y", "count", 3.0),
            ],
            attempted: 6,
            failed: 0,
            ..Outcome::default()
        };
        let line = o.result_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        let Json::Obj(keys) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn a_reference_with_a_failed_cell_loads_with_that_digest_missing() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/avatar-benchmark-ref-test");
        std::fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join("w.untraced.json");
        let doc = obj! {
            "workload": "w",
            "seed": 7,
            "cells": Json::Arr(vec![
                obj! { "label": "A/baseline", "digest": "00000000000000ff" },
                obj! { "label": "A/avatar", "digest": Json::Null },
            ]),
            "pass_wall_s": vec![1.25, 1.5, 2.0],
        };
        write(&path, &doc).expect("write");
        let r = Reference::load(&path).expect("a failed cell does not make the file unreadable");
        assert_eq!(r.digests, [Some(0xff), None]);
        assert_eq!((r.workload.as_str(), r.seed, r.wall_s), ("w", 7, 1.5));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let o = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        assert!(!o.correct());
        let o = Outcome {
            attempted: 4,
            failures: vec!["span coverage".into()],
            ..Outcome::default()
        };
        assert!(!o.correct());
    }
}
