//! Small helpers: a seeded generator, order statistics, process
//! memory, and the metric/result records every workload returns.

use std::time::Instant;

/// The benchmark's one clock read; every timing goes through here.
pub fn now() -> Instant {
    Instant::now() // lint: allow(clock-scope) — a benchmark exists to read the wall clock
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time this process has used, in seconds: every thread, live or
/// exited. The kernel leaves out time a thread waited for a CPU and
/// time the host stole from the vCPUs, so unlike wall time it does not
/// count waiting (a loaded host still stretches it, by slowing the
/// work itself).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time the calling thread has used, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// CPU time (seconds) of the program's threads: every live thread of
/// this process except the main thread, the speed probe and the named
/// load-generator threads, read from each thread's `schedstat`.
/// Threads that exited are not counted, so call it only while the
/// threads being measured are alive.
pub fn program_cpu_s(bench_threads: &[&str]) -> f64 {
    let main = std::process::id().to_string();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        if task.file_name().to_str() == Some(main.as_str()) {
            continue;
        }
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let comm = comm.trim_end();
        if comm == crate::speed::PROBE_THREAD || bench_threads.contains(&comm) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    ns as f64 * 1e-9
}

/// A mark taken as a slice boundary of a measured window passed:
/// when, the program's CPU seconds so far, and requests completed so
/// far.
pub type CpuMark = (Instant, f64, u64);

/// Program CPU per completed request (µs) over a measured window, from
/// the marks at its slice boundaries.
pub struct WindowCpu {
    /// The window's CPU over its requests, each slice's CPU scaled to
    /// the reference speed by the probes in that slice.
    pub scaled: f64,
    /// The same without scaling: CPU time as this host gave it.
    pub raw: f64,
    pub slices_scaled: Vec<f64>,
    pub slices_raw: Vec<f64>,
    /// Each slice's median probe CPU time (µs).
    pub slices_probe_us: Vec<f64>,
}

pub fn window_cpu_us(marks: &[CpuMark]) -> WindowCpu {
    let mut w = WindowCpu {
        scaled: f64::NAN,
        raw: f64::NAN,
        slices_scaled: Vec::new(),
        slices_raw: Vec::new(),
        slices_probe_us: Vec::new(),
    };
    let (mut cpu, mut scaled_cpu, mut done) = (0.0, 0.0, 0u64);
    for pair in marks.windows(2) {
        let (from, cpu0, done0) = pair[0];
        let (to, cpu1, done1) = pair[1];
        let n = done1.saturating_sub(done0);
        let probe_us = crate::speed::probe_us(from, to);
        let scale = crate::speed::REFERENCE_US / probe_us;
        w.slices_probe_us.push(probe_us);
        let us = (cpu1 - cpu0) * 1e6;
        cpu += us;
        scaled_cpu += us * scale;
        done += n;
        w.slices_raw.push(us / n.max(1) as f64);
        w.slices_scaled.push(us * scale / n.max(1) as f64);
    }
    if done > 0 {
        w.raw = cpu / done as f64;
        w.scaled = scaled_cpu / done as f64;
    }
    w
}

/// A JSON array of numbers.
pub fn num_array(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", parts.join(","))
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on `--seed` and never on the program's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for stream `index` of `seed`, independent of how
    /// many values other streams drew.
    pub fn stream(seed: u64, index: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ index);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A latency sample set: median, p99, and the highest percentile that
/// still has at least ten samples beyond it.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub mean: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_pct = [0.999, 0.99, 0.95, 0.9, 0.5]
            .into_iter()
            .find(|q| (n as f64) * (1.0 - q) >= 10.0)
            .unwrap_or(0.5);
        Summary {
            n,
            p50: percentile(&v, 0.5),
            p95: percentile(&v, 0.95),
            p99: percentile(&v, 0.99),
            mean: mean(&v),
            tail_pct: tail_pct * 100.0,
            tail: percentile(&v, tail_pct),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{},\"tail_pct\":{},\"tail\":{}}}",
            self.n,
            num(self.p50),
            num(self.p95),
            num(self.p99),
            num(self.mean),
            num(self.tail_pct),
            num(self.tail)
        )
    }
}

/// A JSON number with every digit; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Each workload builds its set-up at least `SETUP_REPS` times, and
/// again until `SETUP_MIN_S` seconds have gone into it (at most
/// `SETUP_MAX_REPS` times); `setup_s` is the median, so one slow build
/// (page cache, a neighbour's burst) does not move it, and a set-up of
/// a tenth of a second is timed often enough to be steady.
pub const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 3.0;
const SETUP_MAX_REPS: usize = 40;
/// Probes run on the building thread after each build, to scale it.
const SETUP_PROBES: usize = 3;

/// How long the set-up took: the median build, in wall seconds as this
/// host gave them, and the median of the builds each scaled to the
/// reference speed by the probes taken while it ran (see `speed`).
pub struct Setup {
    pub raw_s: f64,
    pub scaled_s: f64,
    /// Every build's wall seconds, in order.
    pub builds_s: Vec<f64>,
}

/// Builds the set-up as above, returning the last result and its
/// median build time.
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, Setup), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut scaled: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        // Drop the previous build first so peak memory holds one.
        drop(last.take());
        let t = now();
        let built = build()?;
        let end = now();
        let s = (end - t).as_secs_f64();
        times.push(s);
        scaled.push(s * crate::speed::REFERENCE_US / crate::speed::probe_here(SETUP_PROBES));
        last = Some(built);
    }
    let built = last.ok_or("no set-up ran")?;
    Ok((
        built,
        Setup {
            raw_s: median(&times),
            scaled_s: median(&scaled),
            builds_s: times,
        },
    ))
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (wrong id, unsorted scores, seen items,
    /// bit mismatches, non-finite losses, checksum drift).
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `"key":value` members of the detail line printed before the
    /// result.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Records a failed output check; the first few are kept for the
    /// report.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// Completions per second in each of `slices` equal parts of a
/// `window_s`-second window, from completion times (seconds since the
/// window opened). Returns the median slice rate and every slice's.
pub fn sliced_rate(done_s: &[f64], window_s: f64, slices: usize) -> (f64, Vec<f64>) {
    let width = window_s / slices as f64;
    let mut counts = vec![0u64; slices];
    for &t in done_s {
        if (0.0..window_s).contains(&t) {
            counts[((t / width) as usize).min(slices - 1)] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    (median(&rates), rates)
}
