//! The repository benchmark. One command runs one workload under a
//! seed, checks every output, and prints as its last line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`:
//! the end-to-end metrics untraced (`--trace 0`), the per-layer
//! metrics from a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_memory --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Run it from the repository root: scratch files go to
//! `perfbench/.work/`. See `perfbench/README.md` for what each metric
//! means and which end-to-end metric each layer metric should move.

mod mix;
mod replay;
mod scan;
mod service;
mod spans;
mod speed;
mod train;
mod util;
mod wire;
mod world;

use groupsa_json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use util::{num, peak_rss_mb, Metric, Outcome, Summary};
use world::Size;

/// End-to-end metrics, printed by every untraced run. The program's
/// CPU time per request, scaled to a reference host speed (see
/// `speed`), is the one timing with a bound: on a shared 2-vCPU host,
/// wall-clock throughput and latency, and unscaled CPU times, moved by
/// more than any bound between runs of the same code. They are in the
/// detail line. `setup_s` is scaled the same way.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ref_cpu_us_per_req", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that does
/// not run on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("freeze.user_ns_per_item", "ns"),
    ("freeze.users_stacked_ns_per_item", "ns"),
    ("freeze.group_ns_per_item", "ns"),
    ("freeze.tower_flops_per_item", "flop"),
    ("topk.push_ns_per_item", "ns"),
    ("frozen.recommend_us.user", "us"),
    ("frozen.recommend_us.voting", "us"),
    ("frozen.recommend_us.fast", "us"),
    ("frozen.latent_hit_ratio", "ratio"),
    ("engine.queue_wait_us_mean", "us"),
    ("engine.queue_wait_us_p95", "us"),
    ("engine.score_us_mean", "us"),
    ("engine.batch_mean", "count"),
    ("admission.shed", "count"),
    ("admission.expired", "count"),
    ("admission.rejected", "count"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("protocol.bytes_per_response", "bytes"),
    ("server.write_us_mean", "us"),
    ("snapshot.user_latent_ns", "ns"),
    ("snapshot.group_rep_ns", "ns"),
    ("snapshot.reads_per_request", "count"),
    ("snapshot.bytes_per_request", "bytes"),
    ("snapshot.write_s", "s"),
    ("snapshot.open_ms", "ms"),
    ("obs.ring_pushed", "count"),
    ("obs.ring_dropped", "count"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.merge_ms", "ms"),
    ("train.step_ms", "ms"),
    ("train.sync_share", "ratio"),
    ("train.user_epoch_s", "s"),
    ("train.group_epoch_s", "s"),
    ("mix.coalescible_share", "ratio"),
    ("mix.exclude_seen_share", "ratio"),
    ("mix.members_per_group_request", "count"),
    ("mix.users_touched_share", "ratio"),
    ("mix.groups_touched_share", "ratio"),
    ("mix.tower_flops_per_request", "flop"),
    ("trace.reconcile_gap_pct", "%"),
    ("trace.overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for snapshots, traces and span files.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["scan_memory", "wire_snapshot", "train_epochs"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let bench_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join("perfbench");
    if !bench_dir.join("Cargo.toml").is_file() {
        return Err("run from the repository root (perfbench/Cargo.toml not found)".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
        work: bench_dir.join(".work"),
    })
}

/// Runs this workload again, untraced, in a child process (the
/// program's trace switch is read once per process), and returns the
/// wall-clock latency median from its detail line.
fn untraced_p50(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let size = if args.size == Size::Tiny {
        "tiny"
    } else {
        "full"
    };
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--size",
            size,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !output.status.success() {
        return Err(format!("untraced run failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or("untraced run printed no detail line")?;
    let json = Json::parse(detail).map_err(|e| format!("untraced detail: {e}"))?;
    json.get("detail")
        .and_then(|d| d.get(WALL_LATENCY))
        .and_then(|l| l.get("p50"))
        .and_then(Json::as_f64)
        .ok_or(format!("untraced run reported no {WALL_LATENCY} median"))
}

/// The detail-line key of a run's wall-clock latency summary, whose
/// median the tracing overhead compares.
const WALL_LATENCY: &str = "wall_latency_ms";

/// The median of this run's wall-clock latency summary.
fn wall_p50(out: &Outcome) -> f64 {
    out.detail
        .iter()
        .find(|(k, _)| k == WALL_LATENCY)
        .and_then(|(_, v)| Json::parse(v).ok())
        .and_then(|summary| summary.get("p50").and_then(Json::as_f64))
        .unwrap_or(f64::NAN)
}

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let untraced = if args.trace {
        Some(untraced_p50(args)?)
    } else {
        None
    };
    if args.trace && args.workload == "train_epochs" {
        std::env::set_var(groupsa_obs::TRACE_ENV, train::trace_path(args));
    }
    if let Err(e) = speed::start() {
        speed::stop();
        return Err(e);
    }
    let ran = match args.workload.as_str() {
        "scan_memory" => scan::run(args),
        "wire_snapshot" => wire::run(args),
        _ => train::run(args),
    };
    speed::stop();
    let mut out = ran?;
    out.detail("probe_us", Summary::of(&speed::all_probe_us()).json());
    if args.trace && args.workload == "train_epochs" {
        let _ = std::fs::remove_file(train::trace_path(args));
    }
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    if let Some(base) = untraced {
        let traced = wall_p50(&out);
        out.metric("trace.overhead_pct", (traced - base) / base * 100.0, "%");
        out.detail("untraced_latency_p50_ms", num(base));
        out.detail("traced_latency_p50_ms", num(traced));
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match out.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "{name} measured in {} but declared in {unit}",
                    m.unit
                ))
            }
            Some(m) => m.value,
            // A layer off this workload's path did no work here.
            None if args.trace => 0.0,
            None => return Err(format!("{} produced no {name}", args.workload)),
        };
        metrics.push(Metric { name, value, unit });
    }
    Ok((out, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("perfbench: {}: check failed: {e}", args.workload);
    }
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let errors = Json::Array(out.errors.iter().map(|e| Json::String(e.clone())).collect());
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"errors\":{},\"detail\":{{{}}}}}",
        args.workload,
        args.seed,
        args.trace as u8,
        errors.to_compact_string(),
        detail.join(",")
    );
    let correct = out.failed == 0 && out.errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
