//! `serve-mix`: the release `pi3d serve --workers 2` daemon at its default
//! `--threads 1`, driven over a unix socket by one closed-loop connection.
//! Setup covers spawn, `health` ready, and priming the warm design's mesh
//! and LUT. The mix is warm `solve`, warm `simulate` and `solve` of designs
//! the daemon has never seen (cold).

use crate::measure::{
    closed_loop, cpu_seconds, median, median_time, peak_rss_mb, reset_peak_rss, OpRecord, Stop,
};
use crate::spans::{self, timed};
use crate::{counters, moved, Args, Metrics, Report, SOLVE_COUNTERS};
use pi3d_core::config;
use pi3d_core::serve::{ServeOptions, ServeState};
use pi3d_layout::{MemoryState, OpKind};
use pi3d_mesh::{IrAnalysis, MeshOptions};
use pi3d_telemetry::json::{write_json_line, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use pi3d_telemetry::rng::SplitMix64;
use pi3d_telemetry::Json;
use std::collections::HashMap;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const CLASS_NAMES: [&str; 3] = ["warm_solve", "warm_simulate", "cold_solve"];
/// Span names, by class, of a request timed over the socket and of the
/// same request replayed through the in-process engine.
const SOCKET_SPANS: [&str; 3] = [
    "cli.request.warm_solve",
    "cli.request.warm_simulate",
    "cli.request.cold_solve",
];
const ENGINE_SPANS: [&str; 3] = [
    "serve.engine.warm_solve",
    "serve.engine.warm_simulate",
    "serve.engine.cold_solve",
];
/// Shares of the request mix. Sorted by latency the classes run warm
/// simulate (~5 ms), warm solve (~11 ms), cold solve (~15 ms), so the
/// median falls in the middle of the warm-solve band (ranks 0.25-0.80)
/// and the p99 in the top fifth of the cold band.
pub const CLASS_SHARES: [f64; 3] = [0.55, 0.25, 0.20];
/// One connection: one request in flight, so the run does not depend on
/// how the host places two busy vCPUs. `run.py` puts the client and the
/// daemon on one core.
const CONNECTIONS: usize = 1;
const SETUP_REPS: usize = 9;
const SIM_READS: f64 = 2000.0;
const WARM_CONFIG: &str = "benchmark = ddr3-off\n";
const SCHEDULE_LEN: usize = 100;
const WARM_STATES: usize = 16;
const SIM_POLICIES: [(&str, f64); 5] = [
    ("standard", 24.0),
    ("fcfs", 24.0),
    ("fcfs", 27.0),
    ("distr", 24.0),
    ("distr", 27.0),
];
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Ops per pass of the traced run.
const PASS_OPS: u64 = 2 * SCHEDULE_LEN as u64;

/// The seeded request plan: op `i` is a pure function of `(seed, i)`.
struct Plan {
    seed: u64,
    /// Class of each schedule position.
    schedule: Vec<usize>,
    /// For cold positions, their rank among the cold positions.
    cold_rank: Vec<usize>,
    cold_per_schedule: usize,
    states: Vec<String>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let mut rng = SplitMix64::new(seed ^ 0x5e4e_0000_0000_0001);
        let mut schedule = Vec::with_capacity(SCHEDULE_LEN);
        for (class, share) in CLASS_SHARES.iter().enumerate() {
            let n = (share * SCHEDULE_LEN as f64).round() as usize;
            schedule.extend(std::iter::repeat_n(class, n));
        }
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut cold_rank = vec![0; schedule.len()];
        let mut cold = 0;
        for (pos, &class) in schedule.iter().enumerate() {
            if class == 2 {
                cold_rank[pos] = cold;
                cold += 1;
            }
        }
        let states = (0..WARM_STATES)
            .map(|_| {
                let dies: Vec<String> = (0..4).map(|_| rng.next_below(3).to_string()).collect();
                dies.join("-")
            })
            .collect();
        Plan {
            seed,
            schedule,
            cold_rank,
            cold_per_schedule: cold,
            states,
        }
    }

    fn class(&self, index: u64) -> usize {
        self.schedule[index as usize % self.schedule.len()]
    }

    /// Request of op `index` (its `id` is the index).
    fn request(&self, index: u64) -> Json {
        let pos = index as usize % self.schedule.len();
        let mut pick = SplitMix64::new(self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let id = ("id", Json::num(index as f64));
        match self.schedule[pos] {
            0 => Json::obj([
                id,
                ("cmd", Json::str("solve")),
                ("config", Json::str(WARM_CONFIG)),
                (
                    "state",
                    Json::str(&self.states[pick.next_below(WARM_STATES as u64) as usize]),
                ),
                (
                    "activity",
                    Json::num([0.5, 1.0][pick.next_below(2) as usize]),
                ),
            ]),
            1 => {
                let (policy, constraint) =
                    SIM_POLICIES[pick.next_below(SIM_POLICIES.len() as u64) as usize];
                Json::obj([
                    id,
                    ("cmd", Json::str("simulate")),
                    ("config", Json::str(WARM_CONFIG)),
                    ("policy", Json::str(policy)),
                    ("constraint", Json::num(constraint)),
                    ("reads", Json::num(SIM_READS)),
                ])
            }
            _ => {
                let ordinal = (index as usize / self.schedule.len()) * self.cold_per_schedule
                    + self.cold_rank[pos];
                Json::obj([
                    id,
                    ("cmd", Json::str("solve")),
                    ("config", Json::str(cold_config(self.seed, ordinal))),
                ])
            }
        }
    }
}

/// The `ordinal`-th never-seen design of a run. Even ordinals change only
/// conductances (M2/M3 usage), odd ones the topology (TSV count, never
/// the baseline's 33). Distinct ordinals give distinct configs.
fn cold_config(seed: u64, ordinal: usize) -> String {
    let q = ordinal / 2;
    let jitter = (seed % 97) as f64 * 1e-5;
    let m2 = 0.10 + 0.0005 * ((q * 151) % 400) as f64 + jitter;
    if ordinal.is_multiple_of(2) {
        let m3 = 0.21 + 0.0005 * ((q / 400) % 400) as f64;
        format!("benchmark = ddr3-off\nm2_usage = {m2:.5}\nm3_usage = {m3:.5}\n")
    } else {
        let tsv = 34 + (q * 151) % 400;
        let m2 = 0.10 + 0.0005 * ((q / 400) % 400) as f64 + jitter;
        format!("benchmark = ddr3-off\ntsv_count = {tsv}\nm2_usage = {m2:.5}\n")
    }
}

fn is_topology_change(request: &Json) -> bool {
    request
        .get("config")
        .and_then(Json::as_str)
        .is_some_and(|c| c.contains("tsv_count"))
}

/// One client connection to the daemon.
struct Conn {
    reader: FrameReader<BufReader<UnixStream>>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &PathBuf) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        let reader = FrameReader::new(BufReader::new(writer.try_clone()?));
        Ok(Conn { reader, writer })
    }

    fn call(&mut self, request: &Json) -> Result<Json, String> {
        write_json_line(&mut self.writer, request).map_err(|e| format!("send: {e}"))?;
        self.reader
            .read_frame(DEFAULT_MAX_FRAME_BYTES)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "daemon closed the connection".to_owned())
    }
}

/// The `result` of an ok response as compact JSON, or why there is none.
fn ok_result(response: &Json) -> Result<String, String> {
    let status = response
        .get("outcome")
        .and_then(|o| o.get("status"))
        .and_then(Json::as_str);
    match (status, response.get("result")) {
        (Some("ok"), Some(result)) => Ok(result.to_compact_string()),
        _ => Err(response.to_compact_string()),
    }
}

/// A running daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
    calibration: PathBuf,
}

impl Daemon {
    /// Spawns the daemon with a fresh calibration file and waits until a
    /// `health` request reports ready.
    fn start(args: &Args, tag: usize) -> Result<Daemon, String> {
        let stem = args.run_dir.join(format!("serve-{}-{tag}", args.seed));
        let socket = stem.with_extension("sock");
        let calibration = stem.with_extension("calibration.json");
        for stale in [&socket, &calibration] {
            let _ = std::fs::remove_file(stale);
        }
        let log = std::fs::File::create(stem.with_extension("log")).map_err(|e| e.to_string())?;
        let child = Command::new(&args.pi3d)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--workers", "2", "--calibration-file"])
            .arg(&calibration)
            .env("TMPDIR", &args.run_dir)
            .env("PI3D_REPORT_DIR", &args.run_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.pi3d.display()))?;
        let mut daemon = Daemon {
            child,
            socket,
            calibration,
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early ({status})"));
            }
            if let Ok(mut conn) = Conn::open(&daemon.socket) {
                let health = conn.call(&Json::obj([("cmd", Json::str("health"))]))?;
                let state = health
                    .get("result")
                    .and_then(|r| r.get("state"))
                    .and_then(Json::as_str);
                if state == Some("ready") {
                    return Ok(daemon);
                }
            }
            if Instant::now() > deadline {
                return Err("daemon not ready in time".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// The SpMV cutover the daemon probed and stored.
    fn spmv_cutover(&self) -> f64 {
        std::fs::read_to_string(&self.calibration)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|d| d.get("spmv_min_dim").and_then(Json::as_num))
            .unwrap_or(0.0)
    }

    /// Cache hits, misses, evictions and shed requests from `stats`.
    fn counts(&self) -> Result<[u64; 4], String> {
        let stats = self
            .connect()?
            .call(&Json::obj([("cmd", Json::str("stats"))]))?;
        let r = stats.get("result").ok_or("stats without result")?;
        let num = |a: &str, b: &str| {
            r.get(a)
                .and_then(|o| o.get(b))
                .and_then(pi3d_core::serve::u64_from_json)
                .ok_or_else(|| format!("stats without {a}.{b}"))
        };
        Ok([
            num("cache", "hits")?,
            num("cache", "misses")?,
            num("cache", "evictions")?,
            num("shed", "count")?,
        ])
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Primes the warm design's mesh (a `solve`) and LUT (a `simulate`).
fn prime(call: &mut dyn FnMut(&Json) -> Result<Json, String>) -> Result<(), String> {
    for request in [
        Json::obj([
            ("cmd", Json::str("solve")),
            ("config", Json::str(WARM_CONFIG)),
        ]),
        Json::obj([
            ("cmd", Json::str("simulate")),
            ("config", Json::str(WARM_CONFIG)),
            ("reads", Json::num(SIM_READS)),
        ]),
    ] {
        ok_result(&call(&request)?).map_err(|e| format!("priming failed: {e}"))?;
    }
    Ok(())
}

/// The user's one-time cost: spawn, ready, primed.
fn setup(args: &Args, tag: usize) -> Result<Daemon, String> {
    let daemon = timed("cli.spawn_ready", || Daemon::start(args, tag))?;
    let mut conn = daemon.connect()?;
    timed("serve.prime", || prime(&mut |r| conn.call(r)))?;
    Ok(daemon)
}

/// Sets up `SETUP_REPS` daemons one after another and keeps the last;
/// any failed set-up fails the run.
fn setups(args: &Args) -> Result<(f64, Daemon), String> {
    let (mut tag, mut failure) = (0, None);
    let (setup_s, daemon) = median_time(SETUP_REPS, || {
        tag += 1;
        setup(args, tag).map_err(|e| failure.get_or_insert(e).clone())
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((setup_s, daemon?)),
    }
}

/// Cache hits and misses the plan implies for `records`, counted after
/// priming: a warm solve hits once, a warm simulate twice (mesh, LUT),
/// a cold solve misses once.
fn planned(records: &[OpRecord]) -> [u64; 2] {
    let n = |c| records.iter().filter(|r| r.class == c).count() as u64;
    [n(0) + 2 * n(1), n(2)]
}

/// An in-process engine configured like the daemon (its cache budget
/// only decides what stays warm, never what a request returns).
fn engine() -> ServeState {
    ServeState::new(ServeOptions {
        mesh: MeshOptions::default(),
        cache_bytes: 64 * 1024 * 1024,
        ..ServeOptions::default()
    })
}

/// Socket phase of one closed loop: every op's request and result.
type Results = Mutex<HashMap<u64, Result<String, String>>>;

fn socket_loop(
    daemon: &Daemon,
    plan: &Plan,
    stop: Stop,
    first_index: u64,
    traced: bool,
) -> Result<(crate::measure::LoopResult, Results), String> {
    let conns: Vec<Mutex<Conn>> = (0..CONNECTIONS)
        .map(|_| daemon.connect().map(Mutex::new))
        .collect::<Result<_, _>>()?;
    let results: Results = Mutex::new(HashMap::new());
    let mut r = closed_loop(CONNECTIONS, stop, |t, i| {
        let index = first_index + i;
        let class = plan.class(index);
        let request = plan.request(index);
        let _span = traced.then(|| spans::span(SOCKET_SPANS[class]));
        let response = conns[t].lock().expect("connection lock").call(&request);
        let result = response.and_then(|r| ok_result(&r));
        let ok = result.is_ok();
        results.lock().expect("results lock").insert(index, result);
        (class, ok)
    });
    // Records count from 0 within the loop; key them by plan index.
    for record in &mut r.records {
        record.index += first_index;
    }
    Ok((r, results))
}

/// Replays the distinct requests of `records` in-process and marks every
/// record whose socket result differs from the engine's. Returns the
/// number of mismatches.
fn check_against_engine(plan: &Plan, records: &mut [OpRecord], results: &Results) -> u64 {
    let results = results.lock().expect("results lock");
    let mut distinct: Vec<(String, u64)> = Vec::new();
    let mut key_of: HashMap<u64, usize> = HashMap::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    for r in records.iter() {
        let mut request = plan.request(r.index);
        if let Json::Obj(pairs) = &mut request {
            pairs.retain(|(k, _)| k != "id");
        }
        let key = request.to_compact_string();
        let slot = *seen.entry(key.clone()).or_insert_with(|| {
            distinct.push((key, r.index));
            distinct.len() - 1
        });
        key_of.insert(r.index, slot);
    }
    let state = engine();
    let expected: Vec<Mutex<Option<String>>> = distinct.iter().map(|_| Mutex::new(None)).collect();
    closed_loop(CONNECTIONS, Stop::Count(distinct.len() as u64), |_, i| {
        let request = plan.request(distinct[i as usize].1);
        let result = ok_result(&state.handle_request(&request)).ok();
        *expected[i as usize].lock().expect("replay lock") = result;
        (0, true)
    });
    let expected: Vec<Option<String>> = expected
        .into_iter()
        .map(|m| m.into_inner().expect("replay lock"))
        .collect();
    let mut mismatches = 0;
    for r in records.iter_mut() {
        let socket = results.get(&r.index).and_then(|x| x.as_ref().ok());
        let engine = expected[key_of[&r.index]].as_ref();
        if r.ok && (socket.is_none() || socket != engine) {
            r.ok = false;
            mismatches += 1;
        }
    }
    mismatches
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return traced(args);
    }
    let plan = Plan::new(args.seed);
    let (setup_s, daemon) = setups(args)?;
    let pid = daemon.pid();
    // Warm-up: one untimed schedule. The timed loop goes on from the next
    // index, so its cold designs are still new to the daemon.
    let (warmup, _) = socket_loop(&daemon, &plan, Stop::Count(SCHEDULE_LEN as u64), 0, false)?;
    if warmup.failed() > 0 {
        return Err(format!("{} warm-up requests failed", warmup.failed()));
    }
    let before = daemon.counts()?;
    let rss_reset = reset_peak_rss(&pid);
    let cpu0 = cpu_seconds(&pid);
    let (mut result, results) = socket_loop(
        &daemon,
        &plan,
        Stop::After(Duration::from_secs_f64(args.seconds)),
        SCHEDULE_LEN as u64,
        false,
    )?;
    let cpu_s = cpu_seconds(&pid) - cpu0;
    let rss = peak_rss_mb(&pid);
    let after = daemon.counts()?;
    let cutover = daemon.spmv_cutover();
    drop(daemon);

    let moved = moved(&before, &after);
    let [hits, misses] = planned(&result.records);
    let counts_ok = moved[0] == hits && moved[1] == misses && moved[3] == 0;
    let mismatches = check_against_engine(&plan, &mut result.records, &results);
    let cold: Vec<&OpRecord> = result.records.iter().filter(|r| r.class == 2).collect();
    let topology = cold
        .iter()
        .filter(|r| is_topology_change(&plan.request(r.index)))
        .count();
    let meta = vec![
        ("connections", Json::num(CONNECTIONS as f64)),
        ("peak_rss_reset", Json::Bool(rss_reset)),
        ("daemon_spmv_cutover_rows", Json::num(cutover)),
        (
            "cache",
            Json::obj([
                ("hits", Json::num(moved[0] as f64)),
                ("misses", Json::num(moved[1] as f64)),
                ("evictions", Json::num(moved[2] as f64)),
                ("shed", Json::num(moved[3] as f64)),
                ("planned_hits", Json::num(hits as f64)),
                ("planned_misses", Json::num(misses as f64)),
            ]),
        ),
        ("counts_match_plan", Json::Bool(counts_ok)),
        ("engine_mismatches", Json::num(mismatches as f64)),
        (
            "cold_topology_share",
            Json::num(topology as f64 / cold.len().max(1) as f64),
        ),
    ];
    Ok(Report::end_to_end(
        setup_s,
        &result,
        cpu_s,
        rss,
        counts_ok,
        &CLASS_NAMES,
        true,
        meta,
    ))
}

/// Traced run: one traced setup; untraced and traced socket passes over
/// the same schedule (fresh cold designs each pass); then the first
/// pass's requests replayed in-process through `handle_request` for the
/// engine's share, and the layer calls beneath it timed directly.
fn traced(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    spans::set_enabled(true);
    let daemon = setup(args, 0)?;
    spans::set_enabled(false);

    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut first, mut counts_repeat) = (0, 0, None, true);
    let mut first_pass = None;
    let mut pass = 0u64;
    while untraced_walls.is_empty() || Instant::now() < deadline {
        for traced in [false, true] {
            spans::set_enabled(traced);
            let before = daemon.counts()?;
            let (r, results) = socket_loop(
                &daemon,
                &plan,
                Stop::Count(PASS_OPS),
                pass * PASS_OPS,
                traced,
            )?;
            spans::set_enabled(false);
            let moved = moved(&before, &daemon.counts()?);
            // Hits, misses and shed repeat pass by pass; evictions start
            // once the cold designs fill the cache, so they are not
            // compared (a warm entry evicted would show as a miss).
            let first = first.get_or_insert_with(|| moved.clone());
            counts_repeat &= [0, 1, 3].iter().all(|&i| first[i] == moved[i]);
            attempted += r.records.len() as u64;
            failed += r.failed();
            if traced {
                &mut traced_walls
            } else {
                &mut untraced_walls
            }
            .push(r.wall_s);
            first_pass.get_or_insert((r, results));
            pass += 1;
        }
    }
    drop(daemon);
    let first = first.unwrap_or_default();
    let (mut first_records, first_results) = first_pass.ok_or("no socket pass ran")?;
    counts_repeat &= first[..2] == planned(&first_records.records)[..] && first[3] == 0;
    failed += check_against_engine(&plan, &mut first_records.records, &first_results);

    // The engine's share: the first pass replayed through handle_request
    // on a primed in-process engine.
    let state = engine();
    prime(&mut |r| Ok(state.handle_request(r)))?;
    let before = counters(&SOLVE_COUNTERS);
    spans::set_enabled(true);
    let replay = closed_loop(CONNECTIONS, Stop::Count(PASS_OPS), |_, i| {
        let request = plan.request(i);
        let _op = spans::span("op.replay");
        let ok = timed(ENGINE_SPANS[plan.class(i)], || {
            ok_result(&state.handle_request(&request)).is_ok()
        });
        (plan.class(i), ok)
    });
    spans::set_enabled(false);
    attempted += replay.records.len() as u64;
    failed += replay.failed();
    let moved = moved(&before, &counters(&SOLVE_COUNTERS));

    // Beneath the engine: the layer calls it makes, timed directly.
    let warm = config::parse_design(WARM_CONFIG).map_err(|e| e.to_string())?;
    let warm_eval = IrAnalysis::new(&warm, MeshOptions::default()).map_err(|e| e.to_string())?;
    spans::set_enabled(true);
    for i in 0..PASS_OPS {
        let request = plan.request(i);
        let text = request
            .get("config")
            .and_then(Json::as_str)
            .unwrap_or_default();
        match plan.class(i) {
            0 => {
                let state: MemoryState = request
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let activity = request
                    .get("activity")
                    .and_then(Json::as_num)
                    .unwrap_or(1.0);
                timed("solver.run_batch", || {
                    warm_eval.run_batch(&[(state, activity)], OpKind::Read)
                })
                .map_err(|e| e.to_string())?;
            }
            2 => {
                let (design, _, _) =
                    timed("layout.parse_design", || config::parse_design_full(text))
                        .map_err(|e| e.to_string())?;
                timed("mesh.build", || {
                    IrAnalysis::new(&design, MeshOptions::default())
                })
                .map_err(|e| e.to_string())?;
            }
            _ => {}
        }
    }
    spans::set_enabled(false);

    let recorded = spans::recorded();
    let ms = |name| spans::median_ms(&recorded, name);
    let mut m = Metrics::per_layer();
    m.set("layout.design_ms", ms("layout.parse_design"));
    m.set("mesh.build_ms", ms("mesh.build"));
    m.set("mesh.builds", moved[0] as f64);
    m.set("solver.solve_ms", ms("solver.run_batch"));
    m.set("solver.cg_iterations", moved[1] as f64);
    m.set(
        "solver.iterations_per_solve",
        moved[1] as f64 / moved[2].max(1) as f64,
    );
    for (c, class) in CLASS_NAMES.iter().enumerate() {
        let engine = ms(ENGINE_SPANS[c]);
        let socket = ms(SOCKET_SPANS[c]);
        m.set(&format!("serve.engine_ms.{class}"), engine);
        m.set(&format!("cli.transport_ms.{class}"), socket - engine);
    }
    m.set("serve.cache_hits", first[0] as f64);
    m.set("serve.cache_misses", first[1] as f64);
    m.set("serve.cache_evictions", first[2] as f64);
    m.set("serve.shed", first[3] as f64);
    m.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
    m.set(
        "trace.unattributed_frac",
        spans::unattributed_frac(&recorded),
    );
    let meta = vec![
        ("connections", Json::num(CONNECTIONS as f64)),
        ("pass_ops", Json::num(PASS_OPS as f64)),
        ("socket_passes", Json::num(pass as f64)),
        ("counts_repeat", Json::Bool(counts_repeat)),
    ];
    Ok(Report::traced(
        args,
        attempted,
        failed,
        counts_repeat,
        m,
        &recorded,
        meta,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_designs_are_new_valid_and_half_topology_changes() {
        let plan = Plan::new(7);
        let mut seen = std::collections::HashSet::new();
        let (mut cold, mut topology) = (0, 0);
        for i in 0..2000 {
            if plan.class(i) != 2 {
                continue;
            }
            let request = plan.request(i);
            let text = request
                .get("config")
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(config::parse_design(text).is_ok(), "{text}");
            assert_ne!(text, WARM_CONFIG);
            assert!(seen.insert(text.to_owned()), "repeated cold design {text}");
            cold += 1;
            topology += usize::from(is_topology_change(&request));
        }
        assert_eq!(cold, 400);
        assert_eq!(2 * topology, cold);
    }

    #[test]
    fn the_plan_is_a_function_of_seed_and_index() {
        let (a, b) = (Plan::new(3), Plan::new(3));
        for i in 0..500 {
            assert_eq!(a.request(i), b.request(i));
        }
        let shares: Vec<usize> = (0..3)
            .map(|c| a.schedule.iter().filter(|&&x| x == c).count())
            .collect();
        assert_eq!(shares, [55, 25, 20]);
        assert_ne!(Plan::new(4).schedule, a.schedule);
    }
}
