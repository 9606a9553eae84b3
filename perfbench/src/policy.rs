//! `policy-sim`: the Section 5 read-policy study. Setup builds the
//! default-grid `ddr3-off` mesh and its superposition LUT; one op is one
//! `MemorySimulator::run` over a pre-generated read stream, on one
//! thread.

use crate::measure::{
    closed_loop, cpu_seconds, median, median_time, peak_rss_mb, reset_peak_rss, Stop,
};
use crate::spans::{self, timed};
use crate::{counters, counts_json, moved, Args, Metrics, Report, SOLVE_COUNTERS};
use pi3d_core::{build_ir_lut, Platform};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_memsim::{
    MemorySimulator, ReadPolicy, ReadRequest, SimConfig, SimStats, TimingParams, WorkloadSpec,
};
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::rng::SplitMix64;
use pi3d_telemetry::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One thread leaves the second core of a 2-vCPU host to the rest of the
/// host, so other load there does not queue behind the ops.
const THREADS: usize = 1;
const SETUP_REPS: usize = 9;
/// Reads per stream: the paper's 10,000-read workload.
const READS: usize = 10_000;
/// Streams generated per arrival interval from the seed. A dense stream's
/// cost depends on its queueing, so each seed's ops average over several.
const STREAMS: u64 = 8;
/// The paper's arrival interval, and a sparse one at which the event
/// scheduler skips most cycles.
const INTERVALS: [u64; 2] = [5, 60];
/// Two IR constraints (mV) whose LUT on the default-grid baseline admits
/// forward progress.
const CONSTRAINTS: [f64; 2] = [24.0, 27.0];
/// Ops in one schedule; the op sequence cycles through it.
const SCHEDULE_LEN: usize = 240;

/// The op classes, one per arrival interval: a dense op takes about
/// three times as long as a sparse one, whatever the policy. Dense ops
/// hold 65% of the schedule, so the median (rank 0.50) and the p99 both
/// fall inside the dense band, 0.15 of the ranks away from its lower edge.
pub const CLASS_NAMES: [&str; 2] = ["dense", "sparse"];
const RUN_SPANS: [&str; 2] = ["memsim.run.dense", "memsim.run.sparse"];
pub const CLASS_SHARES: [f64; 2] = [0.65, 0.35];

/// One simulator configuration of the study.
struct Config {
    interval: usize,
    sim: MemorySimulator,
}

/// Everything the ops share.
struct Study {
    configs: Vec<Config>,
    /// `streams[interval][k]`.
    streams: Vec<Vec<Vec<ReadRequest>>>,
    /// `reference[config][k]`: the frozen per-cycle stepper's statistics.
    reference: Vec<Vec<SimStats>>,
    /// Op `i` runs `(config, stream) = schedule[i % SCHEDULE_LEN]`.
    schedule: Vec<(usize, usize)>,
}

fn policies() -> Vec<ReadPolicy> {
    let mut p = vec![ReadPolicy::standard()];
    for &c in &CONSTRAINTS {
        p.push(ReadPolicy::ir_aware_fcfs(MilliVolts(c)));
        p.push(ReadPolicy::ir_aware_distr(MilliVolts(c)));
    }
    p
}

/// The user's one-time cost: the default-grid mesh, its LUT, and one
/// simulator per policy sharing it.
fn setup() -> Vec<Config> {
    let design = timed("layout.baseline", || {
        StackDesign::baseline(Benchmark::StackedDdr3OffChip)
    });
    let platform = Platform::new(MeshOptions::default());
    let mut eval =
        timed("mesh.evaluate", || platform.evaluate(&design)).expect("baseline design evaluates");
    let sim_config = SimConfig::paper_ddr3();
    let lut = timed("core.lut_build", || {
        build_ir_lut(&mut eval, sim_config.max_powered_per_die)
    })
    .expect("baseline LUT builds");
    let mut configs = Vec::new();
    for interval in 0..INTERVALS.len() {
        for policy in policies() {
            configs.push(Config {
                interval,
                sim: MemorySimulator::new(
                    TimingParams::ddr3_1600(),
                    sim_config.clone(),
                    policy,
                    lut.clone(),
                ),
            });
        }
    }
    configs
}

/// Input generation, excluded from setup: the read streams, the
/// reference statistics, and the op schedule, all from the seed.
fn study(seed: u64, configs: Vec<Config>) -> Study {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_0000_9011_c7a5);
    let streams: Vec<Vec<Vec<ReadRequest>>> = INTERVALS
        .iter()
        .map(|&interval| {
            (0..STREAMS)
                .map(|_| {
                    let mut spec = WorkloadSpec::paper_ddr3();
                    spec.count = READS;
                    spec.arrival_interval = interval;
                    spec.seed = rng.next_u64();
                    spec.generate()
                })
                .collect()
        })
        .collect();
    let reference = configs
        .iter()
        .map(|c| {
            streams[c.interval]
                .iter()
                .map(|s| {
                    c.sim
                        .run_reference(s)
                        .expect("reference stepper drains the stream")
                })
                .collect()
        })
        .collect();
    // Weighted by class share, then shuffled.
    let mut schedule = Vec::with_capacity(SCHEDULE_LEN);
    for (i, c) in configs.iter().enumerate() {
        let per_class = configs.iter().filter(|o| o.interval == c.interval).count() as f64;
        let n = (CLASS_SHARES[c.interval] * SCHEDULE_LEN as f64 / per_class).round() as usize;
        for j in 0..n {
            schedule.push((i, j % STREAMS as usize));
        }
    }
    for i in (1..schedule.len()).rev() {
        schedule.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    Study {
        configs,
        streams,
        reference,
        schedule,
    }
}

impl Study {
    /// Runs op `index`; returns its class (the interval), whether its
    /// statistics equal the reference, and the cycles it simulated.
    fn op(&self, index: u64) -> (usize, bool, u64) {
        let (c, k) = self.schedule[index as usize % self.schedule.len()];
        let config = &self.configs[c];
        let stats = timed(RUN_SPANS[config.interval], || {
            config.sim.run(&self.streams[config.interval][k])
        });
        let cycles = stats.as_ref().map_or(0, |s| s.cycles);
        (
            config.interval,
            stats.is_ok_and(|s| s == self.reference[c][k]),
            cycles,
        )
    }
}

const COUNTERS: [&str; 5] = [
    "memsim.runs",
    "memsim.events.simulated_cycles",
    "memsim.events.skipped_cycles",
    "memsim.admission_cache.hits",
    "memsim.admission_cache.misses",
];

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let (setup_s, configs) = median_time(SETUP_REPS, setup);
    let t0 = Instant::now();
    let study = study(args.seed, configs);
    eprintln!(
        "perfbench: policy-sim inputs and references in {:.2} s",
        t0.elapsed().as_secs_f64()
    );

    let before = counters(&COUNTERS);
    let rss_reset = reset_peak_rss("self");
    let cpu0 = cpu_seconds("self");
    let result = closed_loop(
        THREADS,
        Stop::After(Duration::from_secs_f64(args.seconds)),
        |_, i| {
            let (class, ok, _) = study.op(i);
            (class, ok)
        },
    );
    let cpu_s = cpu_seconds("self") - cpu0;
    let moved = moved(&before, &counters(&COUNTERS));
    // Exactly one memsim run per op.
    let counts_ok = moved[0] == result.records.len() as u64;
    let meta = vec![
        ("threads", Json::num(THREADS as f64)),
        ("peak_rss_reset", Json::Bool(rss_reset)),
        ("counts", counts_json(&COUNTERS, &moved)),
        ("counts_match_ops", Json::Bool(counts_ok)),
    ];
    Report::end_to_end(
        setup_s,
        &result,
        cpu_s,
        peak_rss_mb("self"),
        counts_ok,
        &CLASS_NAMES,
        true,
        meta,
    )
}

/// Traced run: setup with spans, then alternate untraced and traced
/// passes over one schedule until the time is up. Every pass must move
/// the memsim counters by exactly the same amounts.
fn traced(args: &Args) -> Report {
    spans::set_enabled(true);
    let setup_before = counters(&SOLVE_COUNTERS);
    let configs = setup();
    let setup_moved = moved(&setup_before, &counters(&SOLVE_COUNTERS));
    spans::set_enabled(false);
    let study = study(args.seed, configs);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let pass_len = study.schedule.len() as u64;
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut first, mut counts_repeat) = (0u64, 0u64, None, true);
    // Simulated cycles and host time of the untraced passes.
    let (cycles, mut host_ns) = (Mutex::new(0u64), 0.0);
    while untraced_walls.is_empty() || Instant::now() < deadline {
        for traced in [false, true] {
            spans::set_enabled(traced);
            let before = counters(&COUNTERS);
            let r = closed_loop(THREADS, Stop::Count(pass_len), |_, i| {
                let _op = spans::span("op.policy");
                let (class, ok, c) = study.op(i);
                if !traced {
                    *cycles.lock().expect("cycle total lock") += c;
                }
                (class, ok)
            });
            spans::set_enabled(false);
            if !traced {
                host_ns += r.records.iter().map(|x| x.latency_s).sum::<f64>() * 1e9;
            }
            let moved = moved(&before, &counters(&COUNTERS));
            counts_repeat &= first.get_or_insert_with(|| moved.clone()) == &moved;
            attempted += r.records.len() as u64;
            failed += r.failed();
            if traced {
                &mut traced_walls
            } else {
                &mut untraced_walls
            }
            .push(r.wall_s);
        }
    }
    let recorded = spans::recorded();
    let first = first.unwrap_or_default();
    let run_ms = |name| spans::median_ms(&recorded, name);
    let mut m = Metrics::per_layer();
    m.set("layout.design_ms", run_ms("layout.baseline"));
    m.set("mesh.build_ms", run_ms("mesh.evaluate"));
    m.set("mesh.builds", setup_moved[0] as f64);
    m.set("solver.cg_iterations", setup_moved[1] as f64);
    m.set(
        "solver.iterations_per_solve",
        setup_moved[1] as f64 / setup_moved[2].max(1) as f64,
    );
    m.set("core.lut_build_ms", run_ms("core.lut_build"));
    m.set("memsim.run_ms.dense", run_ms(RUN_SPANS[0]));
    m.set("memsim.run_ms.sparse", run_ms(RUN_SPANS[1]));
    m.set("memsim.simulated_cycles", first[1] as f64);
    m.set("memsim.skipped_cycles", first[2] as f64);
    m.set(
        "memsim.admission_cache_hit_ratio",
        first[3] as f64 / (first[3] + first[4]).max(1) as f64,
    );
    m.set(
        "memsim.host_ns_per_cycle",
        host_ns / cycles.into_inner().expect("cycle total lock").max(1) as f64,
    );
    m.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
    m.set(
        "trace.unattributed_frac",
        spans::unattributed_frac(&recorded),
    );
    let meta = vec![
        ("threads", Json::num(THREADS as f64)),
        ("pass_ops", Json::num(pass_len as f64)),
        ("per_pass_counts", counts_json(&COUNTERS, &first)),
        ("counts_repeat", Json::Bool(counts_repeat)),
    ];
    Report::traced(args, attempted, failed, counts_repeat, m, &recorded, meta)
}
