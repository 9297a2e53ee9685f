//! `avatar_benchmark`: the repository benchmark.
//!
//! Runs one named workload (see [`workloads`]) and prints every metric by
//! name with its unit, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! * `--trace 0` (the untraced build, probes compiled out) measures the
//!   end-to-end metrics: one cold pass, then measured passes until
//!   `--seconds` have been spent.
//! * `--trace 1` (the traced build) records spans around every call into
//!   the simulator, replays each layer's public API on the workload's own
//!   address stream, and reports the per-layer metrics.
//!
//! `benchmark/run.sh` builds both variants and runs them; see
//! `benchmark/README.md`.

mod calib;
mod e2e;
mod layers;
mod measure;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: avatar_benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--reference FILE] [--out DIR]\n       \
                     avatar_benchmark --report NAME[,NAME...] [--out DIR]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
    out: PathBuf,
    report: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        reference: None,
        out: PathBuf::from("target/avatar-benchmark"),
        report: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--reference" => a.reference = Some(PathBuf::from(value()?)),
            "--out" => a.out = PathBuf::from(value()?),
            "--report" => a.report = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_none() == a.report.is_none() {
        return Err("give exactly one of --workload and --report".into());
    }
    if a.trace != cfg!(feature = "probes") && a.report.is_none() {
        return Err(format!(
            "--trace {} needs the {} build (run through benchmark/run.sh)",
            u8::from(a.trace),
            if a.trace {
                "default (probes on)"
            } else {
                "--no-default-features"
            }
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("avatar_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.report, &args.workload) {
        (Some(list), _) => report::summarize(list, &args.out),
        (None, Some(name)) => run(name, &args),
        (None, None) => unreachable!("parse_args requires one of them"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("avatar_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` when a correctness check failed.
fn run(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::find(name)
        .ok_or_else(|| format!("unknown workload {name} (known: {})", workloads::names()))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let cells = w.cells(args.seed);
    let outcome = if args.trace {
        let reference = args
            .reference
            .as_deref()
            .map(report::Reference::load)
            .transpose()?;
        layers::measure(
            w,
            &cells,
            args.seed,
            args.seconds,
            reference.as_ref(),
            &args.out,
        )?
    } else {
        e2e::measure(w, &cells, args.seed, args.seconds, &args.out)?
    };
    report::print(w, &outcome);
    Ok(outcome.correct())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let trace = u8::from(cfg!(feature = "probes"));
        let a = parse_args(&argv(&format!(
            "--workload quick_grid --seed 99 --seconds 12 --trace {trace}"
        )))
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("quick_grid"));
        assert_eq!(a.seed, 99);
        assert_eq!(a.seconds, 12.0);
    }

    /// `(name, second field)` of every entry `BENCHMARK.json` lists under
    /// `key`: a metric's unit, or a workload's why.
    fn declared(key: &str) -> Vec<(String, String)> {
        use avatar_bench::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let second = if key == "workloads" { "why" } else { "unit" };
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("entry list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field(second))
            })
            .collect()
    }

    #[test]
    fn the_declared_workloads_are_the_binary_s() {
        let mine: Vec<(String, String)> = workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared("workloads"), mine);
    }

    fn emitted(o: &report::Outcome) -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A miniature run of every workload (its first Table III workload's
    /// baseline and avatar cells, at a toy geometry) through both modes:
    /// each emits exactly the metrics `BENCHMARK.json` declares, with the
    /// declared units, and passes its correctness checks.
    #[test]
    fn a_miniature_run_emits_exactly_the_declared_metrics() {
        let e2e_decl = declared("end_to_end");
        let layer_decl = declared("per_layer");
        for (n, _) in e2e_decl.iter().chain(&layer_decl) {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../target/avatar-benchmark-test");
        std::fs::create_dir_all(&out).expect("test output dir");
        for w in workloads::WORKLOADS {
            let mini = workloads::BenchWorkload {
                sms: 2,
                warps: 4,
                scale: 0.01,
                ..w.clone()
            };
            let cells: Vec<_> = mini
                .cells(7)
                .into_iter()
                .filter(|c| {
                    c.workload.abbr == w.abbrs[0]
                        && ["baseline", "avatar"].contains(&c.policy.name().as_str())
                })
                .collect();
            assert_eq!(cells.len(), 2, "{}", w.name);
            let untraced = e2e::measure(&mini, &cells, 7, 0.01, &out).expect("untraced run");
            assert_eq!(
                emitted(&untraced),
                e2e_decl,
                "{}: end-to-end metrics",
                w.name
            );
            assert!(untraced.correct(), "{}: {:?}", w.name, untraced.failures);
            let reference = report::Reference::load(&out.join(format!("{}.untraced.json", w.name)))
                .expect("reference");
            let traced = layers::measure(&mini, &cells, 7, 0.01, Some(&reference), &out)
                .expect("traced run");
            assert_eq!(
                emitted(&traced),
                layer_decl,
                "{}: per-layer metrics",
                w.name
            );
            assert!(traced.correct(), "{}: {:?}", w.name, traced.failures);
        }
        std::fs::remove_dir_all(&out).expect("clean up");
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload",
            "--workload a --report b",
            "--workload a --trace 2",
            "--workload a --seconds 0",
            "--workload a --bogus 1",
            "--workload a --seed x",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
