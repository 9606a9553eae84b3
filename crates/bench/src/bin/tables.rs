//! Regenerates every table and figure of the paper from the `pi3d`
//! platform and prints them in the paper's shape.
//!
//! Usage:
//!
//! ```text
//! tables [--quick] [--threads N] [--log-level LEVEL] [--metrics-out FILE] [NAME ...]
//! ```
//!
//! With no names, all experiments run (Table 9 co-optimization last — it
//! is by far the most expensive). `--quick` switches to the coarse mesh
//! and reduced workloads. `--threads` sets the solver/characterization
//! worker count (default: available parallelism); results are
//! bit-identical for every value. Valid names are those of
//! [`EXPERIMENTS`]. An unknown flag or name, or a missing or invalid
//! flag value, exits 2 with the usage on stderr. A closed stdout (say,
//! `tables | head`) stops the run quietly.

#![warn(clippy::unwrap_used)]

use pi3d_core::experiments;
use pi3d_layout::units::MilliVolts;
use pi3d_memsim::WorkloadSpec;
use pi3d_mesh::MeshOptions;
use std::fmt::Display;
use std::io::{ErrorKind, Write};
use std::time::Instant;

const USAGE: &str =
    "usage: tables [--quick] [--threads N] [--log-level LEVEL] [--metrics-out FILE] [NAME ...]";

/// Settings every experiment reads.
struct Run {
    quick: bool,
    threads: usize,
    /// Coarse mesh under `--quick`, the default mesh otherwise.
    mesh: MeshOptions,
}

type Experiment = fn(&Run) -> Result<String, String>;

/// Every experiment, in the order a full run prints them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("calibration", |r| {
        show(experiments::calibration::run(&r.mesh))
    }),
    ("fig4", |r| show(experiments::fig4::run(&r.mesh))),
    ("metal", |r| show(experiments::metal_usage::run(&r.mesh))),
    ("mounting", |r| show(experiments::mounting::run(&r.mesh))),
    ("fig5", |r| show(experiments::fig5::run(&r.mesh))),
    ("table2", |r| show(experiments::table2::run(&r.mesh))),
    ("table3", |r| show(experiments::table3::run(&r.mesh))),
    ("table4", |r| show(experiments::table4::run(&r.mesh))),
    ("table5", |r| show(experiments::table5::run(&r.mesh))),
    ("table6", |r| {
        let workload = paper_workload(r.quick, 3_000);
        show(experiments::table6::run_with(
            &r.mesh,
            workload,
            MilliVolts(24.0),
        ))
    }),
    ("table7", |r| show(experiments::table7::run(&r.mesh))),
    ("fig9", |r| {
        let workload = paper_workload(r.quick, 2_000);
        let constraints: Vec<f64> = (7..=17).map(|c| 2.0 * c as f64).collect();
        show(experiments::fig9::run_with(&r.mesh, workload, &constraints))
    }),
    ("convergence", |r| {
        let grids: &[usize] = if r.quick {
            &[10, 16, 24]
        } else {
            &[10, 16, 24, 32, 40]
        };
        show(experiments::convergence::run(grids))
    }),
    ("ablation", |r| show(experiments::ablation::run(&r.mesh))),
    ("policies-x", |r| {
        let reads = if r.quick { 2_000 } else { 5_000 };
        // Coarse mesh regardless of --quick, but honor --threads so the
        // per-benchmark policy fan-out uses the requested worker count.
        let o = MeshOptions {
            threads: r.threads,
            ..MeshOptions::coarse()
        };
        show(experiments::policy_cross::run(&o, reads))
    }),
    ("ac", |_| show(experiments::ac::run(&MeshOptions::coarse()))),
    ("table9", |r| {
        // Co-optimization characterizes thousands of meshes; always use the
        // coarse mesh here (the regression averages out discretization).
        show(experiments::table9::run(&MeshOptions::coarse(), r.threads))
    }),
];

fn show<T: Display, E: Display>(result: Result<T, E>) -> Result<String, String> {
    result.map(|r| r.to_string()).map_err(|e| e.to_string())
}

/// The paper's DDR3 workload, cut to `quick_count` reads under `--quick`.
fn paper_workload(quick: bool, quick_count: usize) -> WorkloadSpec {
    let mut w = WorkloadSpec::paper_ddr3();
    if quick {
        w.count = quick_count;
    }
    w
}

/// The parsed command line.
#[derive(Default)]
struct Cli {
    quick: bool,
    threads: Option<usize>,
    log_level: Option<pi3d_telemetry::Level>,
    metrics_out: Option<String>,
    names: Vec<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--threads" => {
                let value = flag_value(&mut args, &arg)?;
                match value.parse::<usize>() {
                    Ok(n) if (1..=256).contains(&n) => cli.threads = Some(n),
                    _ => return Err(format!("bad --threads: expected 1..=256, got {value}")),
                }
            }
            "--log-level" => {
                let value = flag_value(&mut args, &arg)?;
                let level = value.parse().map_err(|e| format!("bad --log-level: {e}"))?;
                cli.log_level = Some(level);
            }
            "--metrics-out" => cli.metrics_out = Some(flag_value(&mut args, &arg)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if EXPERIMENTS.iter().any(|(known, _)| *known == name) => cli.names.push(arg),
            name => return Err(format!("unknown experiment {name:?}")),
        }
    }
    Ok(cli)
}

/// The value after `flag`; another flag in its place counts as missing.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("tables: {e}\n{USAGE}\nexperiments: {}", names.join(" "));
        std::process::exit(2);
    });
    if let Some(level) = cli.log_level {
        pi3d_telemetry::log::set_level(level);
    }
    pi3d_telemetry::report::reset_run();
    let threads = cli.threads.unwrap_or_else(default_threads);
    let mut mesh = if cli.quick {
        MeshOptions::coarse()
    } else {
        MeshOptions::default()
    };
    mesh.threads = threads;
    let run = Run {
        quick: cli.quick,
        threads,
        mesh,
    };

    let mut out = std::io::stdout().lock();
    let mut failures = 0usize;
    for &(name, experiment) in EXPERIMENTS {
        if !cli.names.is_empty() && !cli.names.iter().any(|n| n == name) {
            continue;
        }
        match section(&mut out, name, experiment, &run) {
            Ok(true) => {}
            Ok(false) => failures += 1,
            // The reader went away (`tables | head`): nobody sees the
            // rest, so stop without a word.
            Err(e) if e.kind() == ErrorKind::BrokenPipe => break,
            Err(e) => {
                eprintln!("cannot write to stdout: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &cli.metrics_out {
        match pi3d_telemetry::RunReport::collect().write_json(std::path::Path::new(path)) {
            Ok(()) => eprintln!("wrote run report to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}

/// Runs one experiment and prints its section; `Ok(false)` when the
/// experiment failed.
fn section(
    out: &mut impl Write,
    name: &str,
    experiment: Experiment,
    run: &Run,
) -> std::io::Result<bool> {
    writeln!(
        out,
        "================================================================"
    )?;
    writeln!(out, "[{name}]")?;
    let t0 = Instant::now();
    let result = experiment(run);
    let ok = result.is_ok();
    pi3d_telemetry::report::record_experiment(name, t0.elapsed().as_secs_f64(), ok);
    match result {
        Ok(text) => {
            writeln!(out, "{text}")?;
            writeln!(out, "({name} finished in {:.1?})\n", t0.elapsed())?;
        }
        Err(e) => writeln!(out, "{name} FAILED: {e}\n")?,
    }
    Ok(ok)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
