//! `scan_memory`: the prediction tower, item-conditioned voting and
//! top-k over a 4,000-item catalog held in memory, driven in-process
//! through `Engine::submit_streamed` with a fixed in-flight window
//! (giving the engine's CPU per request), then the service phase.

use crate::mix::{self, candidates, check, Kind, Mix, Props};
use crate::replay::{replay_all, Replay};
use crate::service;
use crate::spans::Tracer;
use crate::util::{
    median, now, num, num_array, program_cpu_s, sliced_rate, timed_setup, window_cpu_us,
    CpuMark, Outcome, Summary,
};
use crate::world::{drained, engine_layers, yelp_world};
use crate::Args;
use groupsa_core::{GroupSa, Recommendation};
use groupsa_obs::TelemetryConfig;
use groupsa_serve::{Engine, EngineConfig, FrozenModel, RecommendRequest, Response};
use groupsa_snapshot::MemoryTables;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Catalog size: large enough that scoring dominates every request.
const NUM_ITEMS: usize = 4_000;
/// Requests kept in flight: enough that each worker drains full
/// batches of 8 and neither waits for work, so catalog-user requests
/// can coalesce. With 8 in flight one worker could take them all
/// while the other idled, and throughput swung 25% between runs.
const WINDOW: usize = 32;
/// Every `SAMPLE_EVERY`-th response of the wire workload is kept for
/// the bit-exact check (this workload keeps every response).
pub const SAMPLE_EVERY: u64 = 16;
/// Requests replayed layer by layer in the traced run.
const REPLAYED: u64 = 96;

pub fn engine_config(telemetry: TelemetryConfig) -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 256,
        max_batch: 8,
        default_deadline_ms: 0,
        shed: true,
        telemetry: Some(telemetry),
    }
}

/// Throughput is the median over this many equal slices of the
/// window, so a burst from a neighbour on a shared host moves one
/// slice. CPU per request is also reported per slice (detail line).
pub const RATE_SLICES: usize = 10;

/// What a timed load phase saw.
pub struct Load {
    /// Latencies in completion order.
    pub latencies_ms: Vec<f64>,
    /// Completion times, seconds since the window opened.
    pub done_s: Vec<f64>,
    pub seconds: f64,
    /// Candidates scored by requests completed inside the window.
    pub scored: u64,
    /// Program CPU and replies so far at each slice boundary.
    pub cpu_marks: Vec<CpuMark>,
    /// Every checked reply, by request id.
    pub served: HashMap<u64, Vec<Recommendation>>,
}

impl Load {
    /// Median slice throughput, and every slice's.
    pub fn req_per_s(&self) -> (f64, Vec<f64>) {
        sliced_rate(&self.done_s, self.seconds, RATE_SLICES)
    }

    /// Candidates scored per second at the median slice throughput.
    pub fn examples_per_s(&self) -> f64 {
        self.req_per_s().0 * self.scored as f64 / self.done_s.len().max(1) as f64
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((frozen, has_latent), setup) = timed_setup(|| {
        let (ctx, cfg) = yelp_world(args.seed, Some(NUM_ITEMS), args.size);
        let model = GroupSa::new(cfg, ctx.num_users, ctx.num_items);
        let has_latent: Vec<bool> = (0..ctx.num_users)
            .map(|u| model.user_latent_frozen(&ctx, u).is_some())
            .collect();
        Ok((Arc::new(FrozenModel::freeze(model, ctx)), has_latent))
    })?;
    let mut out = Outcome::default();
    let ctx = frozen.context();
    let d = frozen.model().user_embedding_table().cols();
    let mix = Mix {
        seed: args.seed,
        users: ctx.num_users,
        groups: ctx.num_groups(),
        deadline_ms: 0,
    };
    let mut props = Props::new(ctx);
    let mut tracer = args.trace.then(Tracer::new);

    let engine = Engine::start(
        Arc::clone(&frozen),
        engine_config(TelemetryConfig::disabled()),
    );
    // Three quarters of the run are the engine loop, the rest the
    // service phase.
    let loop_for = Duration::from_secs_f64(args.seconds as f64 * 0.75);
    let service_for = Duration::from_secs_f64(args.seconds as f64 * 0.25);
    let warmup = Duration::from_secs_f64((args.seconds as f64 * 0.1).clamp(0.2, 1.0));
    let load = closed_loop(
        &engine,
        &frozen,
        &mix,
        warmup,
        loop_for,
        &mut out,
        &mut props,
        tracer.as_mut(),
        &has_latent,
        d,
    )?;
    let stats = engine.shutdown();
    let hit_ratio = {
        let cache = frozen.cache_stats();
        cache.latent_hits as f64 / props.latent_lookups.max(1) as f64
    };
    // The service phase replays the loop's first requests, so each one
    // is also checked bit for bit against the reply the engine gave.
    let direct = service::run(
        &frozen,
        &mix,
        false,
        service_for,
        &load.served,
        &mut out,
    );
    out.detail("bit_exact_checked", direct.cpu_us.len().to_string());

    let lat = Summary::of(&load.latencies_ms);
    let service = Summary::of(&direct.cpu_us);
    let cpu = window_cpu_us(&load.cpu_marks);
    let (req_per_s, slice_rates) = load.req_per_s();
    out.detail("service_cpu_us", service.json());
    out.detail("service_cpu_us_by_kind", direct.by_kind_json());
    out.detail("raw_cpu_us_per_req", num(cpu.raw));
    out.detail("slice_cpu_us_per_req", num_array(&cpu.slices_scaled));
    out.detail("slice_raw_cpu_us_per_req", num_array(&cpu.slices_raw));
    out.detail("slice_probe_us", num_array(&cpu.slices_probe_us));
    out.detail("raw_setup_s", num(setup.raw_s));
    out.detail("setup_builds_s", num_array(&setup.builds_s));
    out.detail("wall_latency_ms", lat.json());
    out.detail("wall_req_per_s", num(req_per_s));
    out.detail("wall_examples_per_s", num(load.examples_per_s()));
    out.detail("slice_req_per_s", num_array(&slice_rates));
    out.detail("properties", props.json());
    out.detail("engine_drained", drained(&stats).to_string());
    out.metric("ref_cpu_us_per_req", cpu.scaled, "us");
    out.metric("setup_s", setup.scaled_s, "s");

    if let Some(mut tracer) = tracer {
        engine_layers(&mut out, &stats);
        out.metric("frozen.latent_hit_ratio", hit_ratio, "ratio");
        let user_latents: Vec<_> = (0..ctx.num_users)
            .map(|u| frozen.model().user_latent_frozen(ctx, u))
            .collect();
        let group_reps: Vec<_> = (0..ctx.num_groups())
            .map(|g| frozen.model().member_reps_frozen(ctx, g, &user_latents))
            .collect();
        let tables = MemoryTables::new(user_latents, group_reps, d);
        let mut replay = Replay::new(&frozen, &tables, false);
        let failed = replay_all(
            &mut replay,
            (0..REPLAYED).map(|i| mix.request(i)),
            &mut tracer,
            &mut out.errors,
        );
        out.failed += failed;
        out.attempted += replay.requests() + failed;
        report_replay(&mut out, &replay, &props, d);
        // Per-request end to end = queue wait + the request's own path.
        let layer_sum = stats.mean_queue_wait_us + replay.layer_sum_us();
        out.metric(
            "trace.reconcile_gap_pct",
            gap_pct(lat.mean * 1e3, layer_sum),
            "%",
        );
        out.detail("replay", replay.json());
        out.detail("layer_sum_us", num(layer_sum));
        out.detail("e2e_mean_us", num(lat.mean * 1e3));
        let path = args
            .work
            .join(format!("spans-scan_memory-{}.jsonl", args.seed));
        tracer.write_jsonl(&path)?;
        out.detail("spans", format!("\"{}\"", path.display()));
    }
    Ok(out)
}

/// Signed share (%) of the end-to-end time that the layer sum leaves
/// unexplained.
pub fn gap_pct(e2e: f64, layers: f64) -> f64 {
    (e2e - layers) / e2e * 100.0
}

/// Per-layer metrics of a replayed request mix.
pub fn report_replay(out: &mut Outcome, replay: &Replay<'_>, props: &Props, d: usize) {
    let user = replay.kind(Kind::User);
    let voting = replay.kind(Kind::Voting);
    let fast = replay.kind(Kind::Fast);
    out.metric("freeze.user_ns_per_item", user.score_ns_per_row(), "ns");
    out.metric(
        "freeze.users_stacked_ns_per_item",
        fast.score_ns_per_row(),
        "ns",
    );
    out.metric("freeze.group_ns_per_item", voting.score_ns_per_row(), "ns");
    out.metric("freeze.tower_flops_per_item", mix::tower_flops(d), "flop");
    out.metric("topk.push_ns_per_item", replay.topk_ns_per_item(), "ns");
    out.metric(
        "frozen.recommend_us.user",
        median(&user.frozen_self_us),
        "us",
    );
    out.metric(
        "frozen.recommend_us.voting",
        median(&voting.frozen_self_us),
        "us",
    );
    out.metric(
        "frozen.recommend_us.fast",
        median(&fast.frozen_self_us),
        "us",
    );
    out.metric("protocol.encode_ns", replay.encode_ns(), "ns");
    out.metric(
        "protocol.bytes_per_response",
        replay.bytes_per_response(),
        "bytes",
    );
    out.metric("snapshot.user_latent_ns", user.fetch_ns_per_read(), "ns");
    out.metric("snapshot.group_rep_ns", voting.fetch_ns_per_read(), "ns");
    out.metric(
        "snapshot.reads_per_request",
        replay.reads_per_request(),
        "count",
    );
    out.metric(
        "snapshot.bytes_per_request",
        replay.read_bytes_per_request(),
        "bytes",
    );
    out.metric("mix.coalescible_share", props.coalescible_share(), "ratio");
    out.metric(
        "mix.exclude_seen_share",
        props.exclude_seen_share(),
        "ratio",
    );
    out.metric(
        "mix.members_per_group_request",
        props.members_per_group_request(),
        "count",
    );
    out.metric(
        "mix.users_touched_share",
        props.users_touched_share(),
        "ratio",
    );
    out.metric(
        "mix.groups_touched_share",
        props.groups_touched_share(),
        "ratio",
    );
    out.metric(
        "mix.tower_flops_per_request",
        props.flops_per_request(),
        "flop",
    );
}

/// Compares the kept responses bit for bit against direct
/// `FrozenModel::recommend` calls on the same model (the wire
/// workload's 1-in-`SAMPLE_EVERY` sample).
pub fn check_samples(
    frozen: &FrozenModel,
    samples: &[(RecommendRequest, Vec<Recommendation>)],
    out: &mut Outcome,
) {
    for (req, items) in samples {
        match frozen.recommend(req.target, req.k, req.exclude_seen, req.mode.group_mode()) {
            Ok(direct) if mix::same_bits(items, &direct) => {}
            Ok(_) => out.fail(format!(
                "request {}: served ranking differs from FrozenModel::recommend",
                req.id
            )),
            Err(e) => out.fail(format!("request {}: direct recommend failed: {e}", req.id)),
        }
    }
    out.detail("bit_exact_checked", samples.len().to_string());
}

/// The in-process closed loop: `WINDOW` requests in flight, each reply
/// checked and replaced by the next request until the window ends.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    engine: &Engine,
    frozen: &FrozenModel,
    mix: &Mix,
    warmup: Duration,
    measure: Duration,
    out: &mut Outcome,
    props: &mut Props,
    mut tracer: Option<&mut Tracer>,
    has_latent: &[bool],
    d: usize,
) -> Result<Load, String> {
    let ctx = frozen.context();
    let (tx, rx) = mpsc::channel();
    let mut inflight: HashMap<u64, (RecommendRequest, Instant, Option<usize>)> = HashMap::new();
    let start = now();
    let from = start + warmup;
    let end = from + measure;
    let mut next = 0u64;
    let mut load = Load {
        latencies_ms: Vec::new(),
        done_s: Vec::new(),
        seconds: measure.as_secs_f64(),
        scored: 0,
        cpu_marks: Vec::new(),
        served: HashMap::new(),
    };
    let slice = measure / RATE_SLICES as u32;
    let mut replies = 0u64;
    let submit = |next: &mut u64,
                  inflight: &mut HashMap<_, _>,
                  tracer: &mut Option<&mut Tracer>,
                  props: &mut Props| {
        let req = mix.request(*next);
        *next += 1;
        props.note(&req, ctx, d, |u| has_latent[u]);
        let span = tracer.as_mut().map(|t| t.open("request", req.id, None));
        inflight.insert(req.id, (req.clone(), now(), span));
        engine.submit_streamed(req, tx.clone());
    };
    for _ in 0..WINDOW {
        submit(&mut next, &mut inflight, &mut tracer, props);
    }
    while !inflight.is_empty() {
        let outbound = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|e| format!("engine stopped answering: {e}"))?;
        let at = now();
        let id = match &outbound.response {
            Response::Recommend { id, .. } | Response::Error { id, .. } => *id,
            other => return Err(format!("unexpected engine reply {other:?}")),
        };
        let Some((req, sent, span)) = inflight.remove(&id) else {
            out.fail(format!("reply for unknown request {id}"));
            continue;
        };
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
        replies += 1;
        // The engine's CPU between slice boundaries, over the replies
        // that came back between them.
        let boundary = from + slice * load.cpu_marks.len() as u32;
        if load.cpu_marks.len() <= RATE_SLICES && at >= boundary {
            load.cpu_marks.push((at, program_cpu_s(&[]), replies));
        }
        out.attempted += 1;
        match check(&req, &outbound.response, ctx) {
            Ok(items) => {
                load.served.insert(id, items.to_vec());
                if at >= from && at <= end {
                    load.done_s.push((at - from).as_secs_f64());
                    load.scored += candidates(&req, ctx) as u64;
                    if sent >= from {
                        load.latencies_ms.push((at - sent).as_secs_f64() * 1e3);
                    }
                }
            }
            Err(e) => out.fail(e),
        }
        if at < end {
            submit(&mut next, &mut inflight, &mut tracer, props);
        }
    }
    Ok(load)
}
