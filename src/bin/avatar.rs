//! `avatar` — command-line front end for the reproduction.
//!
//! ```text
//! avatar list                          show workloads and policies
//! avatar run <ABBR> [flags]            run one workload on one policy
//! avatar compare <ABBR> [flags]        run the Fig 15 policy set
//! avatar trace <ABBR> [--out FILE]     dump the workload's warp trace
//! avatar replay <FILE> [flags]         run a trace file through the system
//!
//! flags: --config <policy>  registry name (`avatar list` prints them;
//!                           default avatar)
//!        --scale <f> --sms <n> --warps <n> --oversub <f>
//!        --compress <f>   (replay only: sector compressibility 0..1)
//!        --out <file>     (trace only)
//! ```
//!
//! Each subcommand accepts only the flags it reads ([`flags_of`]) and its
//! one positional argument. Anything else — an unknown or unread flag, a
//! surplus argument, a zero SM or warp count, a scale or
//! oversubscription factor that is not a positive number, a
//! compressibility outside 0..=1 — is a usage error: one line on stderr
//! and exit status 2, as in the harness binaries.

use avatar_gpu::core::policy::{PolicySelection, AVATAR, BASELINE, FIG15, REGISTRY};
use avatar_gpu::core::system::{run_policy, speedup, RunOptions};
use avatar_gpu::sim::config::GpuConfig;
use avatar_gpu::sim::engine::Engine;
use avatar_gpu::sim::hooks::UniformCompression;
use avatar_gpu::workloads::{FileProgram, Workload};
use std::process::ExitCode;

/// Exit status of a usage error, shared with the harness binaries.
const USAGE_ERROR: u8 = 2;

struct Flags {
    config: PolicySelection,
    opts: RunOptions,
    out: Option<String>,
    compress: f64,
    /// The subcommand's positional argument (workload or trace file).
    target: Option<String>,
}

/// The flags `cmd` reads.
fn flags_of(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "run" => &["--config", "--scale", "--sms", "--warps", "--oversub"],
        "compare" => &["--scale", "--sms", "--warps", "--oversub"],
        "trace" => &["--scale", "--sms", "--warps", "--out"],
        "replay" => &["--config", "--sms", "--warps", "--compress"],
        _ => &[],
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag} {v}: {e}"))
}

/// A geometry count (`--sms`, `--warps`): at least 1.
fn parse_count(flag: &str, v: &str) -> Result<usize, String> {
    match parse_value(flag, v)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// A scale or oversubscription factor (`--scale`, `--oversub`): finite
/// and above zero.
fn parse_factor(flag: &str, v: &str) -> Result<f64, String> {
    match parse_value(flag, v)? {
        x if f64::is_finite(x) && x > 0.0 => Ok(x),
        _ => Err(format!("{flag} must be a positive number, got {v}")),
    }
}

/// Parses `cmd`'s arguments: the flags it reads and at most one
/// positional.
fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        config: AVATAR.into(),
        opts: RunOptions { scale: 0.25, sms: Some(16), warps: Some(32), ..RunOptions::default() },
        out: None,
        compress: 0.675,
        target: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if f.target.is_some() || cmd == "list" {
                return Err(format!("unexpected argument '{a}' for '{cmd}'"));
            }
            f.target = Some(a.clone());
            continue;
        }
        if !flags_of(cmd).contains(&a.as_str()) {
            return Err(format!("'{cmd}' does not take {a}"));
        }
        let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        match a.as_str() {
            "--config" => f.config = PolicySelection::parse(v)?,
            "--scale" => f.opts.scale = parse_factor(a, v)?,
            "--sms" => f.opts.sms = Some(parse_count(a, v)?),
            "--warps" => f.opts.warps = Some(parse_count(a, v)?),
            "--oversub" => f.opts.oversubscription = Some(parse_factor(a, v)?),
            "--out" => f.out = Some(v.clone()),
            // `--compress`: `flags_of` admits no other flag.
            _ => {
                f.compress = parse_value(a, v)?;
                if !(0.0..=1.0).contains(&f.compress) {
                    return Err(format!("--compress must lie in 0..=1, got {v}"));
                }
            }
        }
    }
    Ok(f)
}

fn summarize(label: &str, s: &avatar_gpu::sim::Stats) {
    println!(
        "{label}: {} cycles | {} loads, {} stores | L1 TLB miss {:.1}% | {} walks | \
         spec acc {:.1}% cov {:.1}% | DRAM {:.1}MB",
        s.cycles,
        s.loads,
        s.stores,
        s.l1_tlb_miss_rate() * 100.0,
        s.page_walks,
        s.spec_accuracy() * 100.0,
        s.spec_coverage() * 100.0,
        s.dram_bytes() as f64 / (1 << 20) as f64,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    if !matches!(cmd, "list" | "run" | "compare" | "trace" | "replay") {
        eprintln!("usage: avatar <list|run|compare|trace|replay> ...");
        return ExitCode::from(USAGE_ERROR);
    }
    let flags = match parse_flags(cmd, &args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("avatar: error: {e}");
            return ExitCode::from(USAGE_ERROR);
        }
    };

    match cmd {
        "list" => {
            println!("workloads (Table III):");
            for w in Workload::all() {
                println!(
                    "  {:<5} {:<12} class {:?} {:?} {:?} {}MB",
                    w.abbr,
                    w.name,
                    w.class,
                    w.data_type,
                    w.pattern,
                    w.working_set >> 20
                );
            }
            println!("ML workloads (Fig 23):");
            for w in Workload::ml_suite() {
                println!("  {:<6} {}", w.abbr, w.name);
            }
            println!("policies (--config NAME):");
            for def in REGISTRY {
                println!("  {:<13} {}", def.name, def.summary);
            }
            ExitCode::SUCCESS
        }
        "run" | "compare" | "trace" => {
            let Some(abbr) = &flags.target else {
                eprintln!("usage: avatar {cmd} <ABBR> [flags]");
                return ExitCode::from(USAGE_ERROR);
            };
            let Some(w) = Workload::by_abbr(abbr) else {
                eprintln!("unknown workload '{abbr}' (try `avatar list`)");
                return ExitCode::from(USAGE_ERROR);
            };
            match cmd {
                "run" => {
                    let s = run_policy(&w, flags.config, &flags.opts);
                    summarize(&flags.config.label(), &s);
                }
                "compare" => {
                    let base = run_policy(&w, BASELINE, &flags.opts);
                    summarize(BASELINE.label, &base);
                    for def in FIG15 {
                        let s = run_policy(&w, def, &flags.opts);
                        println!("{:<18} speedup {:.3}x", def.label, speedup(&base, &s));
                    }
                }
                _ => {
                    let sms = flags.opts.sms.unwrap_or(16);
                    let warps = flags.opts.warps.unwrap_or(32);
                    let mut program = w.program(sms, warps, flags.opts.scale);
                    let result = match &flags.out {
                        Some(path) => {
                            let file = match std::fs::File::create(path) {
                                Ok(f) => f,
                                Err(e) => {
                                    eprintln!("cannot create {path}: {e}");
                                    return ExitCode::FAILURE;
                                }
                            };
                            avatar_gpu::workloads::write_trace(&mut program, sms, warps, file)
                        }
                        None => avatar_gpu::workloads::write_trace(
                            &mut program,
                            sms,
                            warps,
                            std::io::stdout().lock(),
                        ),
                    };
                    if let Err(e) = result {
                        eprintln!("trace write failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        _ => {
            let Some(path) = &flags.target else {
                eprintln!("usage: avatar replay <FILE> [flags]");
                return ExitCode::from(USAGE_ERROR);
            };
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match FileProgram::from_reader(file) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            // Replay assembles the selected system like `run` does, but
            // drives it with the trace file and a uniform content model.
            let sel = flags.config;
            let mut cfg = GpuConfig::rtx3070();
            cfg.num_sms = flags.opts.sms.unwrap_or(16);
            cfg.warps_per_sm = flags.opts.warps.unwrap_or(32);
            let (sms, warps) = program.extent();
            if sms > cfg.num_sms || warps > cfg.warps_per_sm {
                eprintln!(
                    "{path} spans {sms} SMs x {warps} warps, but the replay geometry is \
                     {} SMs x {} warps; pass --sms and --warps at least that large",
                    cfg.num_sms, cfg.warps_per_sm
                );
                return ExitCode::FAILURE;
            }
            sel.configure(&mut cfg);
            let (l1s, l2) = sel.build_tlbs(&cfg);
            let policy = sel.build_policy(&cfg);
            let stats = Engine::new(
                cfg,
                l1s,
                l2,
                policy,
                Box::new(UniformCompression { fraction: flags.compress }),
                Box::new(program),
            )
            .run();
            summarize(&sel.label(), &stats);
            ExitCode::SUCCESS
        }
    }
}
