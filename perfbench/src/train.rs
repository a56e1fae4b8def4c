//! `train_epochs`: joint training on the yelp-sim world at paper
//! configuration — a fixed sequence of one user epoch and two group
//! epochs from the seed, on two trainer threads, repeated from fresh
//! parameters until the run's time is spent. It exercises the tensor
//! and nn kernels in backward and merge rather than the inference
//! scans.
//!
//! A request here is one training example. Its cost is the process CPU
//! time per example, over both trainer threads and the merging thread,
//! scaled to the reference host speed (see `speed`); the wall time of
//! each epoch call stays in the detail line.

use crate::spans::Tracer;
use crate::speed;
use crate::util::{
    mean, median, now, num, num_array, process_cpu_s, timed_setup, Outcome, Summary,
};
use crate::world::yelp_world;
use crate::Args;
use groupsa_core::{GroupSa, Trainer};
use groupsa_json::Json;
use std::path::PathBuf;

const THREADS: usize = 2;

/// CPU seconds of the process but the speed probe: the trainer's
/// threads (which exit after each call) and the calling thread.
fn program_cpu() -> f64 {
    process_cpu_s() - speed::probe_cpu_s()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    User,
    Group,
}

const SEQUENCE: [Stage; 3] = [Stage::User, Stage::Group, Stage::Group];

/// FNV-1a over every parameter's bits.
fn checksum(model: &GroupSa) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in model.store().snapshot_values() {
        for &v in m.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// The trace file of a traced run. The program reads `GROUPSA_TRACE`
/// once, on its first instrumentation point, so this must be set
/// before any training call.
pub fn trace_path(args: &Args) -> PathBuf {
    args.work.join(format!(
        "train-trace-{}-{}.jsonl",
        args.seed,
        std::process::id()
    ))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((ctx, cfg), setup) = timed_setup(|| {
        let (ctx, cfg) = yelp_world(args.seed, None, args.size);
        Ok((ctx, cfg))
    })?;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut user_s = Vec::new();
    let mut group_s = Vec::new();
    // Process CPU seconds of each call, by stage, scaled to the
    // reference speed by the probes taken during the call.
    let mut user_cpu = Vec::new();
    let mut group_cpu = Vec::new();
    let mut raw_cpu = Vec::new();
    let mut examples = 0u64;
    let mut first_checksum = None;
    let started = now();
    let mut sequences = 0u64;
    while sequences < 2 || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let mut model = GroupSa::new(cfg.clone(), ctx.num_users, ctx.num_items);
        let mut trainer = Trainer::new(cfg.clone()).with_threads(THREADS);
        let root = tracer.open("sequence", sequences, None);
        for stage in SEQUENCE {
            let (name, n) = match stage {
                Stage::User => ("user_epoch", ctx.train_user_item.len()),
                Stage::Group => ("group_epoch", ctx.train_group_item.len()),
            };
            let span = tracer.open(name, sequences, Some(root));
            let t = now();
            let cpu = program_cpu();
            let loss = match stage {
                Stage::User => trainer.user_epoch(&mut model, &ctx),
                Stage::Group => trainer.group_epoch(&mut model, &ctx),
            };
            let raw = program_cpu() - cpu;
            raw_cpu.push(raw * 1e6);
            let cpu = raw * speed::scale(t, now());
            let s = t.elapsed().as_secs_f64();
            tracer.close(span);
            out.attempted += 1;
            if !loss.is_finite() {
                out.fail(format!("sequence {sequences}: {name} loss {loss}"));
            }
            examples += n as u64;
            match stage {
                Stage::User => {
                    user_s.push(s);
                    user_cpu.push(cpu);
                }
                Stage::Group => {
                    group_s.push(s);
                    group_cpu.push(cpu);
                }
            }
        }
        tracer.close(root);
        let sum = checksum(&model);
        match first_checksum {
            None => first_checksum = Some(sum),
            Some(first) if first != sum => out.fail(format!(
                "sequence {sequences}: parameter checksum {sum:016x} != {first:016x}"
            )),
            Some(_) => {}
        }
        sequences += 1;
    }
    let epoch_s: Vec<f64> = user_s.iter().chain(&group_s).copied().collect();
    let total_s: f64 = epoch_s.iter().sum();
    let epoch_ms: Vec<f64> = epoch_s.iter().map(|s| s * 1e3).collect();
    let lat = Summary::of(&epoch_ms);
    let cpu_us: Vec<f64> = user_cpu.iter().chain(&group_cpu).map(|s| s * 1e6).collect();
    let calls = Summary::of(&cpu_us);
    // Per-stage medians, weighted as the sequence runs them, so one
    // call slowed by the host does not move the figure.
    let (n_user, n_group) = (ctx.train_user_item.len(), ctx.train_group_item.len());
    let sequence_cpu_us = (median(&user_cpu) + 2.0 * median(&group_cpu)) * 1e6;
    let sequence_s = median(&user_s) + 2.0 * median(&group_s);
    out.detail("sequences", sequences.to_string());
    out.detail("call_cpu_us", calls.json());
    out.detail("call_raw_cpu_us", Summary::of(&raw_cpu).json());
    out.detail("raw_setup_s", num(setup.raw_s));
    out.detail("setup_builds_s", num_array(&setup.builds_s));
    out.detail("user_epoch_cpu_s", num(median(&user_cpu)));
    out.detail("group_epoch_cpu_s", num(median(&group_cpu)));
    out.detail("wall_latency_ms", lat.json());
    out.detail("wall_req_per_s", num(epoch_s.len() as f64 / total_s));
    out.detail(
        "wall_examples_per_s",
        num((n_user + 2 * n_group) as f64 / sequence_s),
    );
    out.detail(
        "checksum",
        format!("\"{:016x}\"", first_checksum.unwrap_or(0)),
    );
    out.detail(
        "examples_per_user_epoch",
        ctx.train_user_item.len().to_string(),
    );
    out.detail(
        "examples_per_group_epoch",
        ctx.train_group_item.len().to_string(),
    );
    out.detail("threads", THREADS.to_string());
    out.detail("examples_trained", examples.to_string());
    out.metric(
        "ref_cpu_us_per_req",
        sequence_cpu_us / (n_user + 2 * n_group) as f64,
        "us",
    );
    out.metric("setup_s", setup.scaled_s, "s");

    if args.trace {
        out.metric("train.user_epoch_s", median(&user_s), "s");
        out.metric("train.group_epoch_s", median(&group_s), "s");
        let epochs = read_epoch_events(&trace_path(args))?;
        if epochs.is_empty() {
            return Err("the traced run recorded no epoch events".into());
        }
        let avg = |f: fn(&EpochEvent) -> f64| mean(&epochs.iter().map(f).collect::<Vec<_>>());
        let forward = avg(|e| e.forward_ms);
        let backward = avg(|e| e.backward_ms);
        let merge = avg(|e| e.merge_ms);
        let step = avg(|e| e.step_ms);
        let wall = avg(|e| e.seconds * 1e3);
        out.metric("train.forward_ms", forward, "ms");
        out.metric("train.backward_ms", backward, "ms");
        out.metric("train.merge_ms", merge, "ms");
        out.metric("train.step_ms", step, "ms");
        out.metric("train.sync_share", (merge + step) / wall, "ratio");
        // Forward and backward are summed over the worker threads;
        // divided by the thread count they approximate wall time.
        let layer_sum = (forward + backward) / THREADS as f64 + merge + step;
        out.metric(
            "trace.reconcile_gap_pct",
            (wall - layer_sum) / wall * 100.0,
            "%",
        );
        out.detail("epoch_wall_ms_mean", num(wall));
        out.detail("layer_sum_ms", num(layer_sum));
        out.detail("traced_epochs", epochs.len().to_string());
        let path = args
            .work
            .join(format!("spans-train_epochs-{}.jsonl", args.seed));
        tracer.write_jsonl(&path)?;
        out.detail("spans", format!("\"{}\"", path.display()));
    }
    Ok(out)
}

struct EpochEvent {
    seconds: f64,
    forward_ms: f64,
    backward_ms: f64,
    merge_ms: f64,
    step_ms: f64,
}

/// The trainer's `epoch` events (stage `user` and `group`; joint
/// mixing passes do not run in this workload).
fn read_epoch_events(path: &PathBuf) -> Result<Vec<EpochEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut events = Vec::new();
    for line in text.lines() {
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        if json.get("kind").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        let field = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("epoch event without {k}"))
        };
        events.push(EpochEvent {
            seconds: field("seconds")?,
            forward_ms: field("forward_us")? / 1e3,
            backward_ms: field("backward_us")? / 1e3,
            merge_ms: field("merge_us")? / 1e3,
            step_ms: field("step_us")? / 1e3,
        });
    }
    Ok(events)
}
