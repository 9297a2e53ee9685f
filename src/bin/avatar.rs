//! `avatar` — command-line front end for the reproduction.
//!
//! ```text
//! avatar list                          show workloads and policies
//! avatar run <ABBR> [flags]            run one workload on one policy
//! avatar compare <ABBR> [flags]        run the Fig 15 policy set
//! avatar trace <ABBR> [--out FILE]     dump the workload's warp trace
//! avatar replay <FILE> [flags]         run a trace file through the system
//!
//! flags: --config <policy>  registry name, optionally with +dead
//!                           (`avatar list` prints them; default avatar)
//!        --scale <f> --sms <n> --warps <n> --oversub <f>
//!        --compress <f>   (replay only: sector compressibility 0..1)
//! ```

use avatar_gpu::core::policy::{PolicySelection, AVATAR, BASELINE, FIG15, REGISTRY};
use avatar_gpu::core::system::{run_policy, speedup, RunOptions};
use avatar_gpu::sim::config::GpuConfig;
use avatar_gpu::sim::engine::Engine;
use avatar_gpu::sim::hooks::UniformCompression;
use avatar_gpu::workloads::{FileProgram, Workload};
use std::process::ExitCode;

struct Flags {
    config: PolicySelection,
    opts: RunOptions,
    out: Option<String>,
    compress: f64,
    rest: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        config: AVATAR.into(),
        opts: RunOptions { scale: 0.25, sms: Some(16), warps: Some(32), ..RunOptions::default() },
        out: None,
        compress: 0.675,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next().cloned().ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--config" => f.config = PolicySelection::parse(&next("--config")?)?,
            "--scale" => f.opts.scale = next("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--sms" => f.opts.sms = Some(next("--sms")?.parse().map_err(|e| format!("{e}"))?),
            "--warps" => f.opts.warps = Some(next("--warps")?.parse().map_err(|e| format!("{e}"))?),
            "--oversub" => {
                f.opts.oversubscription =
                    Some(next("--oversub")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out" => f.out = Some(next("--out")?),
            "--compress" => f.compress = next("--compress")?.parse().map_err(|e| format!("{e}"))?,
            other => f.rest.push(other.to_string()),
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
    let Some(cmd) = args.first() else {
        eprintln!("usage: avatar <list|run|compare|trace|replay> ...");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
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
            println!("policies (--config NAME, optionally NAME+dead):");
            for def in REGISTRY {
                println!("  {:<13} {}", def.name, def.summary);
            }
            ExitCode::SUCCESS
        }
        "run" | "compare" | "trace" => {
            let Some(abbr) = flags.rest.first() else {
                eprintln!("usage: avatar {cmd} <ABBR> [flags]");
                return ExitCode::FAILURE;
            };
            let Some(w) = Workload::by_abbr(abbr) else {
                eprintln!("unknown workload '{abbr}' (try `avatar list`)");
                return ExitCode::FAILURE;
            };
            match cmd.as_str() {
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
        "replay" => {
            let Some(path) = flags.rest.first() else {
                eprintln!("usage: avatar replay <FILE> [flags]");
                return ExitCode::FAILURE;
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
        other => {
            eprintln!("unknown command '{other}'");
            ExitCode::FAILURE
        }
    }
}
