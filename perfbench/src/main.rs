//! End-to-end benchmark for pi3d.
//!
//! ```text
//! perfbench --workload <coopt-sweep|policy-sim|serve-mix> --seed N
//!           --seconds S --trace <0|1> [--pi3d PATH] [--run-dir DIR]
//!           [--revision TEXT]
//! ```
//!
//! Each invocation runs one workload in its own process and prints, as
//! the last line of stdout, `{"correct","attempted","failed","metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with no
//! spans recorded; with `--trace 1` a separate traced run times the same
//! public calls inside per-layer spans and reports the per-layer metrics.
//! The line before it carries the run's metadata. See `README.md`.

mod coopt;
mod measure;
mod placement;
mod policy;
mod serve;
mod spans;

use measure::LoopResult;
use pi3d_telemetry::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pi3d: PathBuf,
    pub run_dir: PathBuf,
    pub revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        pi3d: PathBuf::from("pi3d"),
        run_dir: PathBuf::from(".bench_run"),
        revision: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => args.seconds = v,
                _ => return Err(bad("a positive number")),
            },
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--pi3d" => args.pi3d = PathBuf::from(value),
            "--run-dir" => args.run_dir = PathBuf::from(value),
            "--revision" => args.revision = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The program's own counters that mesh builds and CG solves move.
pub const SOLVE_COUNTERS: [&str; 3] = ["mesh.builds", "solver.cg.iterations", "solver.cg.solves"];

/// Current values of some of the program's own telemetry counters.
pub fn counters(names: &[&str]) -> Vec<u64> {
    names
        .iter()
        .map(|n| pi3d_telemetry::metrics::counter(n).get())
        .collect()
}

/// How far each counter moved between two snapshots.
pub fn moved(before: &[u64], after: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

/// A counter snapshot as a JSON object.
pub fn counts_json(names: &[&str], counts: &[u64]) -> Json {
    Json::obj(
        names
            .iter()
            .zip(counts)
            .map(|(n, v)| (*n, Json::num(*v as f64))),
    )
}

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// The per-layer metrics every traced run reports. A layer that the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("layout.design_ms", "ms"),
    ("mesh.build_ms", "ms"),
    ("mesh.builds", "count"),
    ("solver.solve_ms", "ms"),
    ("solver.cg_iterations", "count"),
    ("solver.iterations_per_solve", "count"),
    ("core.fit_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.lut_build_ms", "ms"),
    ("memsim.run_ms.dense", "ms"),
    ("memsim.run_ms.sparse", "ms"),
    ("memsim.simulated_cycles", "count"),
    ("memsim.skipped_cycles", "count"),
    ("memsim.admission_cache_hit_ratio", "frac"),
    ("memsim.host_ns_per_cycle", "ns"),
    ("serve.engine_ms.warm_solve", "ms"),
    ("serve.engine_ms.warm_simulate", "ms"),
    ("serve.engine_ms.cold_solve", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.shed", "count"),
    ("cli.transport_ms.warm_solve", "ms"),
    ("cli.transport_ms.warm_simulate", "ms"),
    ("cli.transport_ms.cold_solve", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// A named metric set in the order of its table.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn end_to_end() -> Metrics {
        Metrics {
            table: &END_TO_END,
            values: vec![0.0; END_TO_END.len()],
        }
    }

    pub fn per_layer() -> Metrics {
        Metrics {
            table: &PER_LAYER,
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    /// Sets a metric of this set; panics on a name not in its table,
    /// which is a bug in the workload code.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values[i] = value;
    }

    fn to_json(&self) -> Json {
        Json::obj(
            self.table
                .iter()
                .zip(&self.values)
                .map(|(&(name, unit), &v)| {
                    (
                        name,
                        Json::obj([("value", Json::num(v)), ("unit", Json::str(unit))]),
                    )
                }),
        )
    }
}

/// What one run prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub meta: Vec<(&'static str, Json)>,
    /// Per-op records of the timed loop, written to the run directory.
    pub records: Vec<measure::OpRecord>,
}

impl Report {
    /// End-to-end report of a timed closed loop. `counts_ok` is the
    /// workload's exact-count check; `classes` names the op classes for
    /// the percentile placement check.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        setup_s: f64,
        result: &LoopResult,
        cpu_s: f64,
        peak_rss_mb: f64,
        counts_ok: bool,
        classes: &[&str],
        claims_p99: bool,
        mut meta: Vec<(&'static str, Json)>,
    ) -> Report {
        let attempted = result.records.len() as u64;
        let failed = result.failed();
        let lat = result.latencies_ms();
        let mut m = Metrics::end_to_end();
        m.set("setup_s", setup_s);
        m.set("ops_per_s", attempted as f64 / result.wall_s);
        m.set("cpu_ms_per_op", cpu_s * 1e3 / attempted.max(1) as f64);
        let mut issued = result.records.clone();
        issued.sort_by_key(|r| r.index);
        let issued: Vec<f64> = issued.iter().map(|r| r.latency_s * 1e3).collect();
        m.set(
            "latency_p50_ms",
            measure::windowed_median(&issued, measure::P50_WINDOW_OPS),
        );
        m.set("latency_p99_ms", measure::quantile(&lat, 0.99));
        m.set("peak_rss_mb", peak_rss_mb);
        m.set(
            "ok_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );

        let mut per_class = Vec::new();
        for (c, name) in classes.iter().enumerate() {
            let l: Vec<f64> = result
                .records
                .iter()
                .filter(|r| r.class == c)
                .map(|r| r.latency_s * 1e3)
                .collect();
            per_class.push((
                *name,
                Json::obj([
                    ("ops", Json::num(l.len() as f64)),
                    ("p50_ms", Json::num(measure::median(&l))),
                    ("p99_ms", Json::num(measure::quantile(&l, 0.99))),
                ]),
            ));
        }
        let placement = placement::check(&result.records, classes, claims_p99);
        for p in &placement {
            eprintln!("perfbench: placement: {p}");
        }
        meta.push(("ops", Json::num(attempted as f64)));
        meta.push(("p50_window_ops", Json::num(measure::P50_WINDOW_OPS as f64)));
        meta.push(("latency_p50_whole_run_ms", Json::num(measure::median(&lat))));
        meta.push((
            "p99_basis",
            Json::str(if claims_p99 {
                "p99 of at least 1000 ops"
            } else {
                "slowest op (too few ops for a tail percentile)"
            }),
        ));
        meta.push(("per_class", Json::obj(per_class)));
        if lat.len() <= 64 {
            meta.push(("latencies_ms", Json::arr(lat.iter().map(|&l| Json::num(l)))));
        }
        meta.push((
            "placement_problems",
            Json::arr(placement.into_iter().map(Json::str)),
        ));
        Report {
            correct: counts_ok && failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics: m,
            meta,
            records: result.records.clone(),
        }
    }

    /// Per-layer report of a traced run; writes the spans to the run
    /// directory for `pi3d trace`.
    pub fn traced(
        args: &Args,
        attempted: u64,
        failed: u64,
        counts_ok: bool,
        metrics: Metrics,
        recorded: &[spans::Span],
        mut meta: Vec<(&'static str, Json)>,
    ) -> Report {
        let path = args
            .run_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::write(&path, spans::to_chrome_json(recorded).to_compact_string());
        if let Err(e) = &written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        meta.push(("trace_file", Json::str(path.display().to_string())));
        meta.push(("spans", Json::num(recorded.len() as f64)));
        Report {
            correct: counts_ok && failed == 0 && attempted > 0 && written.is_ok(),
            attempted,
            failed,
            metrics,
            meta,
            records: Vec::new(),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::from(1);
    }
    let load_at_start = measure::load_average();
    let report = match args.workload.as_str() {
        "coopt-sweep" => coopt::run(&args),
        "policy-sim" => policy::run(&args),
        "serve-mix" => match serve::run(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: serve-mix: {e}");
                return ExitCode::from(1);
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other:?} (coopt-sweep, policy-sim, serve-mix)");
            return ExitCode::from(2);
        }
    };

    let mut meta = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("revision", Json::str(&args.revision)),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpus_allowed", Json::str(measure::cpus_allowed())),
        ("load_average_at_start", Json::num(load_at_start)),
        (
            "spmv_cutover_rows",
            Json::num(pi3d_solver::calibrated_spmv_min_dim() as f64),
        ),
    ];
    meta.extend(report.meta);
    if !report.records.is_empty() {
        let path = args
            .run_dir
            .join(format!("ops-{}-seed{}.csv", args.workload, args.seed));
        let mut csv = String::from("index,class,latency_ms,ok\n");
        for r in &report.records {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                r.index,
                r.class,
                r.latency_s * 1e3,
                r.ok
            ));
        }
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        Json::obj([("perfbench_run", Json::obj(meta))]).to_compact_string()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.correct)),
            ("attempted", Json::num(report.attempted as f64)),
            ("failed", Json::num(report.failed as f64)),
            ("metrics", report.metrics.to_json()),
        ])
        .to_compact_string()
    );
    ExitCode::SUCCESS
}
