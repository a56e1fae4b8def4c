//! Workload inputs built from `--seed`: the yelp-sim world at paper
//! configuration, and the shared engine-side readings.

use crate::util::Outcome;
use groupsa_core::{DataContext, GroupSaConfig};
use groupsa_data::synthetic::{generate, yelp_sim};
use groupsa_serve::StatsSnapshot;

/// Full size for measurement, or a tiny world that runs every path in
/// seconds (the benchmark's self-test).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The yelp-sim world (the preset's own data seed, optionally with a
/// larger catalog) and the paper configuration seeded from `--seed`,
/// which draws the initial weights and every training stream. Keeping
/// the data fixed keeps group sizes and epoch lengths, and with them
/// the work per run, the same across seeds.
pub fn yelp_world(seed: u64, num_items: Option<usize>, size: Size) -> (DataContext, GroupSaConfig) {
    let mut sc = yelp_sim();
    if let Some(n) = num_items {
        sc.num_items = n;
    }
    if size == Size::Tiny {
        sc.num_users = 120;
        sc.num_items = sc.num_items.min(300);
        sc.num_groups = 240;
    }
    let mut cfg = GroupSaConfig::paper();
    cfg.seed = seed;
    let dataset = generate(&sc);
    let ctx = DataContext::from_train_view(&dataset, &cfg);
    (ctx, cfg)
}

/// Engine-owned counters read through `Engine::stats()`.
pub fn engine_layers(out: &mut Outcome, stats: &StatsSnapshot) {
    out.metric("engine.queue_wait_us_mean", stats.mean_queue_wait_us, "us");
    out.metric(
        "engine.queue_wait_us_p95",
        stats.p95_queue_wait_us as f64,
        "us",
    );
    out.metric("engine.score_us_mean", stats.mean_score_us, "us");
    out.metric("engine.batch_mean", stats.mean_batch, "count");
    out.metric("admission.shed", stats.shed as f64, "count");
    out.metric("admission.expired", stats.expired as f64, "count");
    out.metric("admission.rejected", stats.rejected as f64, "count");
}

/// Requests the engine drained (each noted one queue wait).
pub fn drained(stats: &StatsSnapshot) -> u64 {
    stats.completed + stats.errors + stats.expired
}
