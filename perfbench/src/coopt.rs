//! `coopt-sweep`: the Section 6 co-optimization of `ddr3-off`, run the
//! way `pi3d optimize` runs it. One op is `characterize` over the 768
//! sample points on two threads, then `Characterization::optimize` at
//! each of Table 9's alpha values.

use crate::measure::{
    closed_loop, cpu_seconds, median, median_time, peak_rss_mb, reset_peak_rss, Stop,
};
use crate::spans::{self, timed};
use crate::{counters, counts_json, moved, Args, Metrics, Report, SOLVE_COUNTERS};
use pi3d_core::{characterize, Characterization, DesignPoint, DesignSpace, LogIrModel, Platform};
use pi3d_layout::Benchmark;
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BENCHMARK: Benchmark = Benchmark::StackedDdr3OffChip;
const THREADS: usize = 2;
const SETUP_REPS: usize = 101;

/// Table 9's alpha values and what `pi3d optimize ddr3-off --alpha A`
/// prints for each: the best design and its verified IR drop (mV).
const EXPECTED: [(f64, &str, &str); 3] = [
    (
        0.0,
        "M2=10% M3=10% TC=15 TL=C TD=N BD=F2B RL=N WB=N",
        "89.68",
    ),
    (
        0.3,
        "M2=10% M3=33% TC=15 TL=C TD=N BD=F2F RL=N WB=Y",
        "11.17",
    ),
    (
        1.0,
        "M2=20% M3=40% TC=480 TL=C TD=N BD=F2F RL=Y WB=Y",
        "8.22",
    ),
];

/// What a user pays before the first sweep: the SpMV cutover probe the
/// CLI runs when it has no calibration file, the platform, and the
/// design-space enumeration.
fn setup() -> Platform {
    pi3d_solver::recalibrate_spmv();
    let space = DesignSpace::new(BENCHMARK);
    std::hint::black_box((space.sample_points(), space.categorical_combos()));
    Platform::new(MeshOptions::coarse())
}

/// Runs the alpha sweep on a characterization and checks every row
/// against the reference output.
fn optimize_and_check(characterization: &Characterization, platform: &Platform) -> bool {
    EXPECTED.iter().all(|&(alpha, design, verified)| {
        let best = timed("core.optimize", || {
            characterization.optimize(alpha, platform)
        });
        best.is_ok_and(|best| {
            let label = format!(
                "M2={:.0}% M3={:.0}% TC={} {}",
                best.point.m2 * 100.0,
                best.point.m3 * 100.0,
                best.point.tc,
                best.point.combo.label()
            );
            label == design && format!("{:.2}", best.measured_ir_mv) == verified
        })
    })
}

/// One op: characterize, then the alpha sweep.
fn op(platform: &Platform) -> Option<Characterization> {
    let characterization = characterize(platform, BENCHMARK, THREADS).ok()?;
    optimize_and_check(&characterization, platform).then_some(characterization)
}

/// The traced replay of `characterize`: the same per-point calls on the
/// same two threads, each wrapped in its layer's span. Returns whether
/// every refitted model equals the one `characterize` produced.
fn replay(platform: &Platform, reference: &Characterization) -> bool {
    let space = DesignSpace::new(BENCHMARK);
    let state = space.default_state();
    let combos = space.categorical_combos();
    let fitted: Mutex<Vec<Option<LogIrModel>>> = Mutex::new(vec![None; combos.len()]);
    closed_loop(THREADS, Stop::Count(combos.len() as u64), |_, i| {
        let combo = combos[i as usize];
        let (mut samples, mut targets) = (Vec::new(), Vec::new());
        for &m2 in &space.m2_samples() {
            for &m3 in &space.m3_samples() {
                for &tc in &space.tc_samples() {
                    let point = DesignPoint { m2, m3, tc, combo };
                    let Ok(design) = timed("layout.to_design", || point.to_design(BENCHMARK))
                    else {
                        return (0, false);
                    };
                    let Ok(mut eval) = timed("mesh.evaluate", || platform.evaluate(&design)) else {
                        return (0, false);
                    };
                    let Ok(ir) = timed("solver.max_ir", || eval.max_ir(&state, 1.0)) else {
                        return (0, false);
                    };
                    samples.push((m2, m3, tc as f64));
                    targets.push(ir.value());
                }
            }
        }
        let model = timed("core.fit", || LogIrModel::fit(&samples, &targets));
        let ok = model.is_ok();
        fitted.lock().expect("replay result lock")[i as usize] = model.ok();
        (0, ok)
    });
    let fitted = fitted.into_inner().expect("replay result lock");
    fitted.len() == reference.combos().len()
        && fitted.iter().zip(reference.combos()).all(|(f, r)| {
            f.as_ref()
                .is_some_and(|f| f.model().coefficients() == r.model.model().coefficients())
        })
}

pub fn run(args: &Args) -> Report {
    let mut meta = vec![("threads", Json::num(THREADS as f64))];
    let (setup_s, platform) = median_time(SETUP_REPS, setup);
    if args.trace {
        return traced(args, platform, meta);
    }

    meta.push(("peak_rss_reset", Json::Bool(reset_peak_rss("self"))));
    let cpu0 = cpu_seconds("self");
    let per_op_counts = Mutex::new(Vec::new());
    let result = closed_loop(
        1,
        Stop::After(Duration::from_secs_f64(args.seconds)),
        |_, _| {
            let before = counters(&SOLVE_COUNTERS);
            let ok = op(&platform).is_some();
            per_op_counts
                .lock()
                .expect("counts lock")
                .push(moved(&before, &counters(&SOLVE_COUNTERS)));
            (0, ok)
        },
    );
    let cpu_s = cpu_seconds("self") - cpu0;
    let per_op_counts = per_op_counts.into_inner().expect("counts lock");
    // Every op does identical work, so its counters must move identically.
    let counts_repeat = per_op_counts.windows(2).all(|w| w[0] == w[1]);
    meta.push(("counts_repeat", Json::Bool(counts_repeat)));
    meta.push((
        "per_op_counts",
        counts_json(
            &SOLVE_COUNTERS,
            per_op_counts.first().map_or(&[], Vec::as_slice),
        ),
    ));
    Report::end_to_end(
        setup_s,
        &result,
        cpu_s,
        peak_rss_mb("self"),
        counts_repeat,
        &["op"],
        false,
        meta,
    )
}

/// Traced run: alternate an untraced op with its traced replay until the
/// time is up; both must move the counters by the same amounts.
fn traced(args: &Args, platform: Platform, mut meta: Vec<(&'static str, Json)>) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut first_counts, mut counts_repeat) = (0, 0, None, true);
    while untraced_walls.is_empty() || Instant::now() < deadline {
        attempted += 1;
        let before = counters(&SOLVE_COUNTERS);
        let t0 = Instant::now();
        let characterization = op(&platform);
        untraced_walls.push(t0.elapsed().as_secs_f64());
        let plain = moved(&before, &counters(&SOLVE_COUNTERS));

        spans::set_enabled(true);
        let before = counters(&SOLVE_COUNTERS);
        let t0 = Instant::now();
        let ok = timed("op.coopt", || {
            characterization
                .as_ref()
                .is_some_and(|c| replay(&platform, c) && optimize_and_check(c, &platform))
        });
        traced_walls.push(t0.elapsed().as_secs_f64());
        spans::set_enabled(false);
        let replayed = moved(&before, &counters(&SOLVE_COUNTERS));

        if !ok {
            failed += 1;
        }
        counts_repeat &=
            plain == replayed && first_counts.get_or_insert_with(|| plain.clone()) == &plain;
    }
    let recorded = spans::recorded();
    let first = first_counts.unwrap_or_default();
    let mut m = Metrics::per_layer();
    m.set(
        "layout.design_ms",
        spans::median_ms(&recorded, "layout.to_design"),
    );
    m.set(
        "mesh.build_ms",
        spans::median_ms(&recorded, "mesh.evaluate"),
    );
    m.set("mesh.builds", first[0] as f64);
    m.set(
        "solver.solve_ms",
        spans::median_ms(&recorded, "solver.max_ir"),
    );
    m.set("solver.cg_iterations", first[1] as f64);
    m.set(
        "solver.iterations_per_solve",
        first[1] as f64 / first[2].max(1) as f64,
    );
    m.set("core.fit_ms", spans::median_ms(&recorded, "core.fit"));
    m.set(
        "core.optimize_ms",
        spans::median_ms(&recorded, "core.optimize"),
    );
    m.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
    m.set(
        "trace.unattributed_frac",
        spans::unattributed_frac(&recorded),
    );
    meta.push(("counts_repeat", Json::Bool(counts_repeat)));
    meta.push(("per_op_counts", counts_json(&SOLVE_COUNTERS, &first)));
    Report::traced(args, attempted, failed, counts_repeat, m, &recorded, meta)
}
