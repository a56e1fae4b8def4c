//! The host's speed over the run. A thread of the benchmark times a
//! fixed piece of arithmetic by its own CPU clock every few
//! milliseconds, from start to end of the process. On a shared host
//! the same code takes a different CPU time from one minute to the
//! next (a neighbour on the sibling hyperthread, a busy shared cache),
//! and that moves the program's CPU time with it. Dividing the
//! program's CPU time in a window by the probe's median in the same
//! window, times [`REFERENCE_US`], gives CPU time at one fixed host
//! speed: a change to the program moves it, the probe's code never
//! changes with the program. Work that runs on one thread (a set-up
//! build) is scaled instead by probes run on that thread
//! ([`probe_here`]), since the two vCPUs need not run at one speed.

use crate::util::{median, now, thread_cpu_s};
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The probe thread's name, left out of the program's CPU time.
pub const PROBE_THREAD: &str = "speed-probe";
/// The probe's CPU time (µs) that defines the reference speed: scaled
/// figures are CPU times on a host where one probe takes this long
/// (about what this probe takes on an idle 2-vCPU Xeon host).
pub const REFERENCE_US: f64 = 1000.0;
/// Pause between probes; one probe takes about 1 ms, so the probe
/// thread uses about 4% of one vCPU.
const EVERY: Duration = Duration::from_millis(25);
/// Fewest probes one window's median is taken over; a shorter window
/// borrows the probes nearest its middle.
const MIN_PROBES: usize = 5;

#[derive(Default)]
struct Probe {
    /// `(end time, CPU µs)` of every probe so far.
    samples: Vec<(Instant, f64)>,
    /// The probe thread's CPU seconds so far.
    cpu_s: f64,
    stop: bool,
    handle: Option<JoinHandle<()>>,
}

static PROBE: OnceLock<Arc<Mutex<Probe>>> = OnceLock::new();

fn lock(probe: &Mutex<Probe>) -> MutexGuard<'_, Probe> {
    probe.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts the probe thread (once per process).
pub fn start() -> Result<(), String> {
    let probe = Arc::new(Mutex::new(Probe::default()));
    if PROBE.set(Arc::clone(&probe)).is_err() {
        return Ok(());
    }
    let inner = Arc::clone(&probe);
    let handle = std::thread::Builder::new()
        .name(PROBE_THREAD.into())
        .spawn(move || run(&inner))
        .map_err(|e| format!("spawn speed probe: {e}"))?;
    lock(&probe).handle = Some(handle);
    // The first window of a run should already have probes in it.
    for _ in 0..200 {
        if lock(&probe).samples.len() >= MIN_PROBES {
            return Ok(());
        }
        std::thread::sleep(EVERY);
    }
    Err("the speed probe took no samples".into())
}

/// Stops the probe thread and waits for it to end.
pub fn stop() {
    if let Some(probe) = PROBE.get() {
        let handle = {
            let mut p = lock(probe);
            p.stop = true;
            p.handle.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

fn weights() -> Vec<f32> {
    (0..ROWS * COLS)
        .map(|i| (i % 13) as f32 * 0.01 - 0.05)
        .collect()
}

fn run(probe: &Mutex<Probe>) {
    let weights = weights();
    loop {
        let t = thread_cpu_s();
        black_box(kernel(black_box(&weights)));
        let after = thread_cpu_s();
        {
            let mut p = lock(probe);
            if p.stop {
                return;
            }
            p.samples.push((now(), (after - t) * 1e6));
            p.cpu_s = thread_cpu_s();
        }
        std::thread::sleep(EVERY);
    }
}

const ROWS: usize = 32;
const COLS: usize = 96;
const PASSES: usize = 500;

/// The probe: `PASSES` dense 32×96 matrix-vector products with ReLU,
/// each on a freshly allocated input, as a prediction-tower layer
/// does. It never changes, so its CPU time measures only the host.
fn kernel(weights: &[f32]) -> f32 {
    let mut acc = 0f32;
    for p in 0..PASSES {
        let x: Vec<f32> = (0..COLS).map(|j| ((p + j) % 7) as f32 * 0.1).collect();
        let h: Vec<f32> = weights
            .chunks(COLS)
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum::<f32>().max(0.0))
            .collect();
        acc += h.iter().sum::<f32>();
    }
    acc
}

/// The median CPU time (µs) of `n` probes run on the calling thread:
/// the speed of the vCPU that thread is on, where the probe thread
/// may be on another.
pub fn probe_here(n: usize) -> f64 {
    let weights = weights();
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = thread_cpu_s();
            black_box(kernel(black_box(&weights)));
            (thread_cpu_s() - t) * 1e6
        })
        .collect();
    median(&times)
}

/// CPU seconds the probe thread has used so far (to take out of
/// process-wide CPU time).
pub fn probe_cpu_s() -> f64 {
    PROBE.get().map_or(0.0, |p| lock(p).cpu_s)
}

/// The median probe CPU time (µs) in `[from, to]`: over the probes
/// that ended in it, or, if fewer than [`MIN_PROBES`] did, over the
/// `MIN_PROBES` probes nearest its middle. NaN before [`start`].
pub fn probe_us(from: Instant, to: Instant) -> f64 {
    let Some(probe) = PROBE.get() else {
        return f64::NAN;
    };
    let p = lock(probe);
    let samples = &p.samples;
    let inside: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| *t >= from && *t <= to)
        .map(|&(_, us)| us)
        .collect();
    if inside.len() >= MIN_PROBES {
        return median(&inside);
    }
    let mid = from + (to.saturating_duration_since(from)) / 2;
    let mut by_distance: Vec<(Duration, f64)> = samples
        .iter()
        .map(|&(t, us)| (t.max(mid) - t.min(mid), us))
        .collect();
    by_distance.sort_by(|a, b| a.0.cmp(&b.0));
    let nearest: Vec<f64> = by_distance
        .iter()
        .take(MIN_PROBES)
        .map(|&(_, us)| us)
        .collect();
    median(&nearest)
}

/// Factor that turns a CPU time measured in `[from, to]` into CPU time
/// at the reference speed.
pub fn scale(from: Instant, to: Instant) -> f64 {
    REFERENCE_US / probe_us(from, to)
}

/// Every probe's CPU time (µs) so far, for the detail line.
pub fn all_probe_us() -> Vec<f64> {
    PROBE.get().map_or_else(Vec::new, |p| {
        lock(p).samples.iter().map(|&(_, us)| us).collect()
    })
}
