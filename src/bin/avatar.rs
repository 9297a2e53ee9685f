//! `avatar` — command-line front end for the reproduction.
//!
//! ```text
//! avatar list                          show workloads and configurations
//! avatar run <ABBR> [flags]            run one workload on one config
//! avatar compare <ABBR> [flags]        run the Fig 15 configuration set
//! avatar trace <ABBR> [--out FILE]     dump the workload's warp trace
//! avatar replay <FILE> [flags]         run a trace file through the system
//!
//! flags: --config <name>  (baseline|ideal|promotion|colt|snakebyte|
//!                          cast|avatar|avatar-noeaf|ideal-valid|vpnt)
//!        --scale <f> --sms <n> --warps <n> --oversub <f>
//!        --compress <f>   (replay only: sector compressibility 0..1)
//! ```

use avatar_gpu::core::system::{run, speedup, RunOptions, SystemConfig};
use avatar_gpu::core::AvatarPolicy;
use avatar_gpu::sim::config::GpuConfig;
use avatar_gpu::sim::engine::Engine;
use avatar_gpu::sim::hooks::UniformCompression;
use avatar_gpu::sim::tlb::{BaseTlb, TlbModel};
use avatar_gpu::workloads::{FileProgram, Workload};
use std::process::ExitCode;

fn parse_config(name: &str) -> Option<SystemConfig> {
    Some(match name {
        "baseline" => SystemConfig::Baseline,
        "ideal" => SystemConfig::IdealTlb,
        "promotion" => SystemConfig::Promotion,
        "colt" => SystemConfig::Colt,
        "snakebyte" => SystemConfig::SnakeByte,
        "cast" => SystemConfig::CastOnly,
        "avatar" => SystemConfig::Avatar,
        "avatar-noeaf" => SystemConfig::AvatarNoEaf,
        "ideal-valid" => SystemConfig::CastIdealValid,
        "vpnt" => SystemConfig::AvatarVpnT,
        _ => return None,
    })
}

struct Flags {
    config: SystemConfig,
    opts: RunOptions,
    out: Option<String>,
    compress: f64,
    rest: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        config: SystemConfig::Avatar,
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
            "--config" => {
                let v = next("--config")?;
                f.config = parse_config(&v).ok_or_else(|| format!("unknown config '{v}'"))?;
            }
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
            println!("configs: baseline ideal promotion colt snakebyte cast avatar avatar-noeaf ideal-valid vpnt");
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
                    let s = run(&w, flags.config, &flags.opts);
                    summarize(flags.config.label(), &s);
                }
                "compare" => {
                    let base = run(&w, SystemConfig::Baseline, &flags.opts);
                    summarize("Baseline", &base);
                    for cfg in SystemConfig::FIG15 {
                        let s = run(&w, cfg, &flags.opts);
                        println!("{:<18} speedup {:.3}x", cfg.label(), speedup(&base, &s));
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
            let mut cfg = GpuConfig::rtx3070();
            cfg.num_sms = flags.opts.sms.unwrap_or(16);
            cfg.warps_per_sm = flags.opts.warps.unwrap_or(32);
            let avatar_mode = matches!(
                flags.config,
                SystemConfig::Avatar | SystemConfig::AvatarNoEaf | SystemConfig::AvatarVpnT
            );
            cfg.uvm.promotion = flags.config.uses_promotion();
            cfg.uvm.embed_page_info = avatar_mode;
            cfg.ideal_tlb = flags.config == SystemConfig::IdealTlb;
            let l1s: Vec<Box<dyn TlbModel>> = (0..cfg.num_sms)
                .map(|_| {
                    Box::new(BaseTlb::new(
                        cfg.l1_tlb.base_entries,
                        cfg.l1_tlb.large_entries,
                        0,
                        1,
                    )) as Box<dyn TlbModel>
                })
                .collect();
            let l2 = Box::new(BaseTlb::new(cfg.l2_tlb.base_entries, cfg.l2_tlb.large_entries, 8, 1));
            let policy: Box<dyn avatar_gpu::sim::hooks::TranslationPolicy> = if avatar_mode {
                Box::new(AvatarPolicy::avatar(cfg.num_sms, 32, 2))
            } else {
                Box::new(avatar_gpu::sim::hooks::NoSpeculation)
            };
            let stats = Engine::new(
                cfg,
                l1s,
                l2,
                policy,
                Box::new(UniformCompression { fraction: flags.compress }),
                Box::new(program),
            )
            .run();
            summarize(flags.config.label(), &stats);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'");
            ExitCode::FAILURE
        }
    }
}
