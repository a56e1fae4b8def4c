//! `wire_snapshot`: NDJSON over TCP through `server::run_with`, served
//! from a lazily opened f32 snapshot of a streamed 200k-user universe
//! with a 64-item catalog, so protocol, server threads, engine
//! queueing and snapshot reads dominate and the tower barely runs.
//!
//! One connection, two load-generator threads (this one sends, one
//! receives), then the service phase:
//! * `saturate`: a pipelined closed loop with `WINDOW` requests in
//!   flight; gives the server's CPU per request (`ref_cpu_us_per_req`)
//!   and the wall-clock throughput.
//! * `paced`: an open loop at `PACED_RATE` requests per second with
//!   deadlines; gives the wall-clock latency, timed from each
//!   request's scheduled send time. When the generator fell behind its
//!   schedule, the paced figures are marked invalid instead of being
//!   reported.
//! * service: the requests' NDJSON lines decoded, recommended and
//!   encoded on this thread, one at a time; gives each request's
//!   service time (detail line).

use crate::mix::{candidates, check, Mix, Props};
use crate::replay::{replay_all, Replay};
use crate::scan::{
    check_samples, engine_config, gap_pct, report_replay, RATE_SLICES, SAMPLE_EVERY,
};
use crate::service::{self, line_of};
use crate::spans::Tracer;
use crate::speed;
use crate::util::{
    median, now, num, num_array, program_cpu_s, sliced_rate, timed_setup, window_cpu_us, CpuMark,
    Outcome, Summary,
};
use crate::world::{drained, engine_layers, Size};
use crate::Args;
use groupsa_core::{DataContext, GroupSa, GroupSaConfig, Recommendation};
use groupsa_data::StreamConfig;
use groupsa_obs::TelemetryConfig;
use groupsa_serve::server::run_with;
use groupsa_serve::{
    Engine, FrozenModel, RecommendRequest, Request, Response, ServerConfig, StatsSnapshot,
};
use std::collections::HashMap;
use groupsa_snapshot::{Quant, Snapshot, SnapshotMeta, SnapshotTables, SnapshotWriter};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 200_000;
const GROUPS: usize = 5_000;
/// Under one `SCAN_CHUNK`, so each request scores a single chunk.
const ITEMS: usize = 64;
const DIM: usize = 16;
const SHARDS: u32 = 4;
const UNIVERSE_SEED: u64 = 77;
/// Requests in flight during `saturate`. With 8, the loop is bound by
/// the pipeline's per-request cost (parse, queue, score, write, the
/// thread hand-offs), which is what this workload measures. With 32 or
/// 128 in flight both vCPUs saturate, and throughput then follows
/// whatever else the host runs: it swung 40% between runs, against 6%
/// at 8.
const WINDOW: usize = 8;
/// The `paced` open-loop rate: about 30% of the `saturate` throughput
/// of a 2-vCPU host. At about half, a slow phase of a shared host made
/// the queue shed requests. At 500 req/s the threads idle between
/// requests, and the median became the host's 2 ms wake-up latency
/// instead of the pipeline's 0.6 ms.
pub const PACED_RATE: f64 = 2_000.0;
/// Deadline carried by every `paced` request.
const PACED_DEADLINE_MS: u64 = 250;
/// Shares of `--seconds` given to `saturate`, `paced` and the service
/// phase.
const SATURATE_SHARE: f64 = 0.5;
const PACED_SHARE: f64 = 0.3;
const SERVICE_SHARE: f64 = 0.2;
/// The load generator's receiving thread; the sending one is the main
/// thread. Neither counts as the program's CPU.
const RECEIVER: &str = "bench-receiver";
/// `paced` figures are invalid when the generator's median lateness
/// exceeds this, or when more than `MAX_BACKLOG` requests (5 ms of
/// schedule) were due but unsent when the phase ended.
const MAX_MEDIAN_LATENESS_MS: f64 = 1.0;
const MAX_BACKLOG: u64 = 10;
const REPLAYED: u64 = 96;

/// A universe streamed into a snapshot on disk and opened lazily.
struct Opened {
    frozen: Arc<FrozenModel>,
    write_s: f64,
    open_ms: f64,
}

fn sizes(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (USERS, GROUPS),
        Size::Tiny => (2_000, 200),
    }
}

fn build(seed: u64, size: Size, dir: &Path) -> Result<Opened, String> {
    let (users, groups) = sizes(size);
    let mut cfg = GroupSaConfig::paper();
    cfg.embed_dim = DIM;
    cfg.d_k = DIM;
    cfg.d_ff = DIM;
    cfg.seed = seed;
    let model = GroupSa::new(cfg, users, ITEMS);
    // A fixed universe, like the yelp-sim world: `--seed` draws the
    // weights and the request stream.
    let stream = StreamConfig::serving(UNIVERSE_SEED, users, ITEMS, groups);
    let _ = std::fs::remove_dir_all(dir);
    let started = now();
    let meta = SnapshotMeta {
        num_users: users,
        num_items: ITEMS,
        num_groups: groups,
        dim: DIM,
        shards: SHARDS,
        quant: Quant::F32,
    };
    let mut writer = SnapshotWriter::create(dir, meta).map_err(|e| e.to_string())?;
    for chunk in stream.user_chunks(16_384) {
        for p in &chunk {
            let latent = model.user_latent_from_lists(p.user, &p.top_items, &p.top_friends);
            writer
                .push_user(latent.as_ref().map(|m| m.as_slice()))
                .map_err(|e| e.to_string())?;
        }
    }
    let members = stream.all_group_members();
    for m in &members {
        let reps = model.member_reps_from_parts(m, None, |u| {
            let p = stream.user_profile(u);
            model.user_latent_from_lists(u, &p.top_items, &p.top_friends)
        });
        writer.push_group(&reps).map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;
    let write_s = started.elapsed().as_secs_f64();
    let opened = now();
    let ctx = DataContext::serving_stub(users, ITEMS, members);
    let frozen = Arc::new(FrozenModel::from_snapshot(model, ctx, dir)?);
    let open_ms = opened.elapsed().as_secs_f64() * 1e3;
    Ok(Opened {
        frozen,
        write_s,
        open_ms,
    })
}

/// A request the sender put on the wire, and when it was due.
struct Sent {
    id: u64,
    due: Instant,
}

/// Replies one run can record without the receiver's vectors growing:
/// their memory is reserved up front and becomes resident only as it
/// is written, so `peak_rss_mb` does not step with the run's
/// throughput.
const MAX_REPLIES: usize = 1 << 22;

/// What the receiver thread saw.
struct Received {
    attempted: u64,
    errors: Vec<String>,
    failed: u64,
    samples: Vec<(RecommendRequest, Vec<Recommendation>)>,
    /// When the load started; the timings count µs from here.
    base: Instant,
    /// `(id, due, received)` of every checked reply, due and received
    /// in µs since `base`.
    timings: Vec<(u64, u32, u32)>,
}

impl Received {
    fn new(base: Instant) -> Self {
        Received {
            attempted: 0,
            errors: Vec::new(),
            failed: 0,
            samples: Vec::with_capacity(MAX_REPLIES / SAMPLE_EVERY as usize),
            base,
            timings: Vec::with_capacity(MAX_REPLIES),
        }
    }

    fn micros(&self, t: Instant) -> u32 {
        t.saturating_duration_since(self.base).as_micros() as u32
    }

    fn instant(&self, us: u32) -> Instant {
        self.base + Duration::from_micros(us as u64)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir: PathBuf = args.work.join(format!("snapshot-{}", std::process::id()));
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut write_times = Vec::new();
    let mut open_times = Vec::new();
    let (opened, build) = timed_setup(|| {
        let o = build(args.seed, args.size, dir)?;
        write_times.push(o.write_s);
        open_times.push(o.open_ms);
        Ok(o)
    })?;
    let frozen = opened.frozen;

    let serve_started = now();
    let telemetry = TelemetryConfig::sampling(64);
    let engine = Engine::start(Arc::clone(&frozen), engine_config(telemetry));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || run_with(listener, engine, ServerConfig::default()))
            .map_err(|e| format!("spawn server: {e}"))?
    };
    let serve_s = serve_started.elapsed().as_secs_f64();
    let raw_setup_s = build.raw_s + serve_s;
    let setup_s = build.scaled_s + serve_s * speed::scale(serve_started, now());

    let ctx = frozen.context();
    let (users, groups) = (ctx.num_users, ctx.num_groups());
    let mix_of = |deadline_ms| Mix {
        seed: args.seed,
        users,
        groups,
        deadline_ms,
    };
    let mut out = Outcome::default();
    let loaded = drive(args, &engine, &frozen, addr);
    if loaded.is_err() {
        // The load may have failed before it could ask the server to
        // stop; ask on a fresh connection so the join below returns.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(shutdown_line().as_bytes());
        }
    }
    let served = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    let (phases, mut received) = loaded?;
    served.map_err(|e| format!("server: {e}"))?;
    let stats = engine.stats();

    out.attempted += phases.sent;
    out.failed += received.failed + phases.sent.saturating_sub(received.attempted);
    out.errors.append(&mut received.errors);
    let latent_hits = frozen.cache_stats().latent_hits;
    check_samples(&frozen, &received.samples, &mut out);
    // The sample above is the bit-exact check; the service phase only
    // times and checks its own responses.
    let direct = service::run(
        &frozen,
        &mix_of(0),
        true,
        Duration::from_secs_f64(args.seconds as f64 * SERVICE_SHARE),
        &HashMap::new(),
        &mut out,
    );

    // Saturate: throughput over its window; paced: latency from due.
    let (sat_from, sat_end) = phases.saturate;
    let (pace_from, pace_end) = phases.paced;
    let mut sat_done_s = Vec::new();
    let mut sat_ms = Vec::new();
    let mut sat_scored = 0u64;
    let mut paced_ms = Vec::new();
    let mut tracer = args.trace.then(Tracer::new);
    for &(id, due, got) in &received.timings {
        let (due, got) = (received.instant(due), received.instant(got));
        if id < phases.paced_first {
            if got >= sat_from && got <= sat_end {
                sat_done_s.push((got - sat_from).as_secs_f64());
                if due >= sat_from {
                    sat_ms.push((got - due).as_secs_f64() * 1e3);
                }
                sat_scored += candidates(&mix_of(0).request(id), ctx) as u64;
            }
        } else if due >= pace_from && due <= pace_end {
            paced_ms.push((got - due).as_secs_f64() * 1e3);
        }
        if let Some(t) = tracer.as_mut() {
            t.record("request", id, None, due, got);
        }
    }
    let sat_s = (sat_end - sat_from).as_secs_f64();
    let (req_per_s, slice_rates) = sliced_rate(&sat_done_s, sat_s, RATE_SLICES);
    let cpu = window_cpu_us(&phases.cpu_marks);
    let lat = Summary::of(&paced_ms);
    let sat_lat = Summary::of(&sat_ms);
    let service = Summary::of(&direct.cpu_us);
    let lateness = Summary::of(&phases.lateness_ms);
    let paced_valid = lateness.p50 <= MAX_MEDIAN_LATENESS_MS && phases.backlog <= MAX_BACKLOG;
    if !paced_valid {
        eprintln!(
            "perfbench: wire_snapshot: paced generator fell behind (median lateness {:.3} ms, \
             backlog {} at the end); its latencies are not reported",
            lateness.p50, phases.backlog
        );
    }
    let mut props = Props::new(ctx);
    let snap = Snapshot::open(dir).map_err(|e| e.to_string())?;
    for id in 0..phases.paced_first {
        props.note(&mix_of(0).request(id), ctx, DIM, |u| snap.has_latent(u));
    }
    for id in phases.paced_first..phases.paced_first + phases.paced_sent {
        props.note(&mix_of(PACED_DEADLINE_MS).request(id), ctx, DIM, |u| {
            snap.has_latent(u)
        });
    }

    out.detail("service_cpu_us", service.json());
    out.detail("service_cpu_us_by_kind", direct.by_kind_json());
    out.detail("raw_cpu_us_per_req", num(cpu.raw));
    out.detail("slice_cpu_us_per_req", num_array(&cpu.slices_scaled));
    out.detail("slice_raw_cpu_us_per_req", num_array(&cpu.slices_raw));
    out.detail("slice_probe_us", num_array(&cpu.slices_probe_us));
    out.detail("raw_setup_s", num(raw_setup_s));
    out.detail("setup_builds_s", num_array(&build.builds_s));
    out.detail("paced_valid", paced_valid.to_string());
    if paced_valid {
        out.detail("wall_latency_ms", lat.json());
    }
    out.detail("wall_saturate_latency_ms", sat_lat.json());
    out.detail("wall_req_per_s", num(req_per_s));
    out.detail(
        "wall_examples_per_s",
        num(req_per_s * sat_scored as f64 / sat_done_s.len().max(1) as f64),
    );
    out.detail("generator_lateness_ms", lateness.json());
    out.detail("paced_backlog_at_end", phases.backlog.to_string());
    out.detail(
        "paced_in_flight_at_end",
        phases.in_flight_at_end.to_string(),
    );
    out.detail("paced_rate", num(PACED_RATE));
    out.detail("saturate_window", WINDOW.to_string());
    out.detail("properties", props.json());
    out.detail("engine_drained", drained(&stats).to_string());
    out.detail("slice_req_per_s", num_array(&slice_rates));
    out.metric("ref_cpu_us_per_req", cpu.scaled, "us");
    out.metric("setup_s", setup_s, "s");

    if let Some(mut tracer) = tracer {
        engine_layers(&mut out, &stats);
        let hit_ratio = latent_hits as f64 / props.latent_lookups.max(1) as f64;
        out.metric("frozen.latent_hit_ratio", hit_ratio, "ratio");
        out.metric("server.write_us_mean", stats.mean_write_us, "us");
        out.metric(
            "obs.ring_pushed",
            engine.telemetry().ring_pushed() as f64,
            "count",
        );
        out.metric(
            "obs.ring_dropped",
            engine.telemetry().ring_dropped() as f64,
            "count",
        );
        out.metric("snapshot.write_s", median(&write_times), "s");
        out.metric("snapshot.open_ms", median(&open_times), "ms");
        let tables = SnapshotTables::new(snap);
        let mut replay = Replay::new(&frozen, &tables, true);
        let paced = mix_of(PACED_DEADLINE_MS);
        let first = phases.paced_first;
        let failed = replay_all(
            &mut replay,
            (first..first + REPLAYED).map(|i| paced.request(i)),
            &mut tracer,
            &mut out.errors,
        );
        out.failed += failed;
        out.attempted += replay.requests() + failed;
        report_replay(&mut out, &replay, &props, DIM);
        out.metric("protocol.decode_ns", replay.decode_ns(), "ns");
        // Paced-phase end to end = decode + queue wait + recommend +
        // encode + the connection writer's serialize-and-write.
        let queue_us = phase_mean_queue_wait(&phases.stats_before_paced, &stats);
        let layer_sum = queue_us + replay.layer_sum_us() + stats.mean_write_us;
        out.metric(
            "trace.reconcile_gap_pct",
            gap_pct(lat.mean * 1e3, layer_sum),
            "%",
        );
        out.detail("replay", replay.json());
        out.detail("paced_queue_wait_us", num(queue_us));
        out.detail("layer_sum_us", num(layer_sum));
        out.detail("e2e_mean_us", num(lat.mean * 1e3));
        let path = args
            .work
            .join(format!("spans-wire_snapshot-{}.jsonl", args.seed));
        tracer.write_jsonl(&path)?;
        out.detail("spans", format!("\"{}\"", path.display()));
    }
    Ok(out)
}

/// Mean queue wait (µs) of the requests drained between two stats
/// snapshots.
fn phase_mean_queue_wait(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let (n0, n1) = (drained(before) as f64, drained(after) as f64);
    let sum = after.mean_queue_wait_us * n1 - before.mean_queue_wait_us * n0;
    sum / (n1 - n0).max(1.0)
}

/// Bounds and counts of the two load phases.
struct Phases {
    sent: u64,
    saturate: (Instant, Instant),
    paced: (Instant, Instant),
    paced_first: u64,
    paced_sent: u64,
    lateness_ms: Vec<f64>,
    backlog: u64,
    in_flight_at_end: u64,
    stats_before_paced: StatsSnapshot,
    /// `(program CPU seconds, replies so far)` at each `saturate`
    /// slice boundary.
    cpu_marks: Vec<CpuMark>,
}

fn shutdown_line() -> String {
    groupsa_json::to_string(&Request::Shutdown { id: u64::MAX }) + "\n"
}

/// Runs both phases over one connection, then shuts the server down.
fn drive(
    args: &Args,
    engine: &Engine,
    frozen: &Arc<FrozenModel>,
    addr: std::net::SocketAddr,
) -> Result<(Phases, Received), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let base = now();
    let receiver = {
        let frozen = Arc::clone(frozen);
        let seed = args.seed;
        std::thread::Builder::new()
            .name(RECEIVER.into())
            .spawn(move || receive(stream, sent_rx, done_tx, &frozen, seed, base))
            .map_err(|e| format!("spawn receiver: {e}"))?
    };
    let result = send_phases(args, engine, frozen, &mut writer, &sent_tx, &done_rx);
    // Whatever happened, ask the server to stop so it and the receiver
    // finish; the reply ends the receiver's stream.
    let _ = writer.write_all(shutdown_line().as_bytes());
    drop(sent_tx);
    let received = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_string())?;
    let _ = writer.shutdown(std::net::Shutdown::Both);
    Ok((result?, received?))
}

fn send_phases(
    args: &Args,
    engine: &Engine,
    frozen: &FrozenModel,
    writer: &mut TcpStream,
    sent_tx: &Sender<Sent>,
    done_rx: &Receiver<()>,
) -> Result<Phases, String> {
    let ctx = frozen.context();
    let (users, groups) = (ctx.num_users, ctx.num_groups());
    let saturate_for = Duration::from_secs_f64(args.seconds as f64 * SATURATE_SHARE);
    let paced_for = Duration::from_secs_f64(args.seconds as f64 * PACED_SHARE);
    let warmup = Duration::from_secs_f64((args.seconds as f64 * 0.05).clamp(0.2, 1.0));
    let send =
        |writer: &mut TcpStream, req: &RecommendRequest, due: Instant| -> Result<(), String> {
            sent_tx
                .send(Sent { id: req.id, due })
                .map_err(|_| "receiver stopped".to_string())?;
            writer
                .write_all(line_of(req).as_bytes())
                .map_err(|e| format!("send: {e}"))
        };
    let wait_done = |n: u64| -> Result<(), String> {
        for _ in 0..n {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .map_err(|_| "server stopped answering".to_string())?;
        }
        Ok(())
    };
    let program_cpu = || program_cpu_s(&[RECEIVER]);

    // Saturate: keep WINDOW requests in flight. The requests that
    // returned replies free are sent again at once, in one write.
    let sat = Mix {
        seed: args.seed,
        users,
        groups,
        deadline_ms: 0,
    };
    let start = now();
    let from = start + warmup;
    let end = from + saturate_for;
    let slice = saturate_for / RATE_SLICES as u32;
    let mut cpu_marks = Vec::new();
    let mut next = 0u64;
    let mut outstanding = 0u64;
    let mut batch = String::new();
    loop {
        let t = now();
        // The server's CPU between slice boundaries, over the replies
        // that came back between them.
        if cpu_marks.len() <= RATE_SLICES && t >= from + slice * cpu_marks.len() as u32 {
            cpu_marks.push((t, program_cpu(), next - outstanding));
        }
        if t >= end {
            break;
        }
        if outstanding as usize >= WINDOW {
            wait_done(1)?;
            outstanding -= 1;
            while outstanding > 0 && done_rx.try_recv().is_ok() {
                outstanding -= 1;
            }
            continue;
        }
        batch.clear();
        let at = now();
        while (outstanding as usize) < WINDOW {
            let req = sat.request(next);
            sent_tx
                .send(Sent {
                    id: req.id,
                    due: at,
                })
                .map_err(|_| "receiver stopped".to_string())?;
            batch.push_str(&line_of(&req));
            next += 1;
            outstanding += 1;
        }
        writer
            .write_all(batch.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
    }
    wait_done(outstanding)?;
    let stats_before_paced = engine.stats();

    // Paced: request i is due at t0 + i / rate, whatever came back.
    let paced = Mix {
        seed: args.seed,
        users,
        groups,
        deadline_ms: PACED_DEADLINE_MS,
    };
    let paced_first = next;
    let t0 = now() + Duration::from_millis(20);
    let pace_from = t0 + warmup;
    let pace_end = pace_from + paced_for;
    let interval = 1.0 / PACED_RATE;
    let mut lateness_ms = Vec::new();
    let due_by_end = ((pace_end - t0).as_secs_f64() / interval).ceil() as u64;
    let mut backlog = 0;
    let mut i = 0u64;
    while i < due_by_end {
        let due = t0 + Duration::from_secs_f64(i as f64 * interval);
        let t = now();
        if t >= pace_end && backlog == 0 {
            // Requests already due when the phase ended, still unsent.
            backlog = due_by_end - i;
        }
        if due > t {
            std::thread::sleep(due - t);
        }
        let late = now().saturating_duration_since(due);
        if due >= pace_from {
            lateness_ms.push(late.as_secs_f64() * 1e3);
        }
        send(writer, &paced.request(paced_first + i), due)?;
        i += 1;
    }
    let mut in_flight_at_end = i;
    while done_rx.try_recv().is_ok() {
        in_flight_at_end -= 1;
    }
    wait_done(in_flight_at_end)?;
    Ok(Phases {
        sent: next + i,
        saturate: (from, end),
        paced: (pace_from, pace_end),
        paced_first,
        paced_sent: i,
        lateness_ms,
        backlog,
        in_flight_at_end,
        stats_before_paced,
        cpu_marks,
    })
}

/// The receiving thread: parses and checks every reply, notes its
/// timing, and signals one completion per reply.
fn receive(
    stream: TcpStream,
    sent_rx: Receiver<Sent>,
    done_tx: Sender<()>,
    frozen: &FrozenModel,
    seed: u64,
    base: Instant,
) -> Result<Received, String> {
    let ctx = frozen.context();
    let (users, groups) = (ctx.num_users, ctx.num_groups());
    let mut due: HashMap<u64, Instant> = HashMap::new();
    let mut got = Received::new(base);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Ok(got);
        }
        let at = now();
        let response: Response = match groupsa_json::from_str(line.trim_end()) {
            Ok(r) => r,
            Err(e) => {
                got.failed += 1;
                if got.errors.len() < 8 {
                    got.errors.push(format!("unparseable reply: {e}"));
                }
                let _ = done_tx.send(());
                continue;
            }
        };
        let id = match &response {
            Response::Bye { .. } => return Ok(got),
            Response::Recommend { id, .. } | Response::Error { id, .. } => *id,
            other => return Err(format!("unexpected reply {other:?}")),
        };
        while !due.contains_key(&id) {
            match sent_rx.recv() {
                Ok(s) => {
                    due.insert(s.id, s.due);
                }
                Err(_) => return Err(format!("reply for request {id}, which was never sent")),
            }
        }
        let sent_at = due.remove(&id).unwrap_or(at);
        got.attempted += 1;
        // The deadline does not change the ranking, so the request can
        // be regenerated from its id alone.
        let req = Mix {
            seed,
            users,
            groups,
            deadline_ms: 0,
        }
        .request(id);
        match check(&req, &response, ctx) {
            Ok(items) => {
                if id % SAMPLE_EVERY == seed % SAMPLE_EVERY {
                    got.samples.push((req.clone(), items.to_vec()));
                }
                let timing = (id, got.micros(sent_at), got.micros(at));
                got.timings.push(timing);
            }
            Err(e) => {
                got.failed += 1;
                if got.errors.len() < 8 {
                    got.errors.push(e);
                }
            }
        }
        let _ = done_tx.send(());
    }
}
