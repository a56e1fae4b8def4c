//! Golden equivalence: `FrozenModel` must reproduce the graph eval
//! path **bit-for-bit** — same items, same score bits — for every
//! serving mode. A frozen snapshot is a speedup, never an
//! approximation.

use groupsa_core::{top_k, DataContext, GroupMode, GroupSa, GroupSaConfig, Recommendation, ScoreAggregation};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_data::Dataset;
use groupsa_serve::protocol::Target;
use groupsa_serve::FrozenModel;

fn tiny_world(seed: u64, num_items: usize) -> (Dataset, DataContext) {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-golden-{seed}"),
        seed,
        num_users: 60,
        num_items,
        num_groups: 25,
        num_topics: 4,
        latent_dim: 4,
        avg_items_per_user: 8.0,
        avg_friends_per_user: 5.0,
        avg_items_per_group: 1.5,
        mean_group_size: 3.5,
        zipf_exponent: 0.8,
        homophily: 0.8,
        social_influence: 0.3,
        expertise_sharpness: 2.0,
        taste_temperature: 0.3,
        consensus_blend: 0.5,
        connectedness_boost: 1.0,
    });
    let ctx = DataContext::from_train_view(&dataset, &GroupSaConfig::tiny());
    (dataset, ctx)
}

fn assert_identical(frozen: &[Recommendation], graph: &[Recommendation], what: &str) {
    assert_eq!(frozen.len(), graph.len(), "{what}: length");
    for (f, g) in frozen.iter().zip(graph) {
        assert_eq!(f.item, g.item, "{what}: item order");
        assert_eq!(f.score.to_bits(), g.score.to_bits(), "{what}: score bits for item {}", f.item);
    }
}

#[test]
fn frozen_user_recommendations_match_graph_path_bit_for_bit() {
    let (d, ctx) = tiny_world(71, 40);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    for user in 0..d.num_users {
        let got = frozen.recommend(Target::User { id: user }, 10, true, GroupMode::Voting).unwrap();
        let want = frozen.model().recommend_for_user(frozen.context(), user, 10);
        assert_identical(&got, &want, &format!("user {user}"));
    }
}

#[test]
fn frozen_group_recommendations_match_graph_path_in_every_mode() {
    let (d, ctx) = tiny_world(72, 40);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let num_groups = ctx.num_groups();
    let frozen = FrozenModel::freeze(model, ctx);
    let modes = [
        GroupMode::Voting,
        GroupMode::Fast(ScoreAggregation::Average),
        GroupMode::Fast(ScoreAggregation::LeastMisery),
        GroupMode::Fast(ScoreAggregation::MaxSatisfaction),
    ];
    for group in 0..num_groups {
        for mode in modes {
            let got = frozen.recommend(Target::Group { id: group }, 5, true, mode).unwrap();
            let want = frozen.model().recommend_for_group(frozen.context(), group, 5, mode);
            assert_identical(&got, &want, &format!("group {group} mode {mode:?}"));
        }
    }
}

/// The user, Voting, Fast and shared-catalog cases again on a catalog
/// that crosses the scan chunk boundary: 557 items is two full
/// 256-item chunks plus a prime-sized tail. Full-catalog `k` pins every
/// score's bits, in both group heads.
#[test]
fn frozen_paths_match_graph_path_across_scan_chunks() {
    const ITEMS: usize = 557;
    let modes = [
        GroupMode::Voting,
        GroupMode::Fast(ScoreAggregation::Average),
        GroupMode::Fast(ScoreAggregation::LeastMisery),
        GroupMode::Fast(ScoreAggregation::MaxSatisfaction),
    ];
    for lean_group_head in [true, false] {
        let (d, ctx) = tiny_world(79, ITEMS);
        let num_groups = ctx.num_groups();
        let mut cfg = GroupSaConfig::tiny();
        cfg.lean_group_head = lean_group_head;
        let frozen = FrozenModel::freeze(GroupSa::new(cfg, d.num_users, d.num_items), ctx);
        let (model, ctx) = (frozen.model(), frozen.context());
        let all: Vec<usize> = (0..ITEMS).collect();
        let users = [0, 1, d.num_users - 1];
        for user in users {
            let what = format!("lean {lean_group_head} user {user}");
            let got = frozen.recommend(Target::User { id: user }, ITEMS, true, GroupMode::Voting).unwrap();
            assert_identical(&got, &model.recommend_for_user(ctx, user, ITEMS), &what);
            let got = frozen.recommend(Target::User { id: user }, ITEMS, false, GroupMode::Voting).unwrap();
            let scored = all.iter().zip(model.score_user_items(ctx, user, &all));
            let want = top_k(scored.map(|(&item, score)| Recommendation { item, score }).collect(), ITEMS);
            assert_identical(&got, &want, &format!("{what} with seen items"));
        }
        let shared = frozen.recommend_users_shared(&users.map(|u| (u, ITEMS)));
        for (got, user) in shared.iter().zip(users) {
            let want = frozen.recommend(Target::User { id: user }, ITEMS, false, GroupMode::Voting).unwrap();
            let what = format!("lean {lean_group_head} shared user {user}");
            assert_identical(got.as_ref().unwrap(), &want, &what);
        }
        for group in [0, num_groups - 1] {
            for mode in modes {
                let got = frozen.recommend(Target::Group { id: group }, ITEMS, true, mode).unwrap();
                let want = model.recommend_for_group(ctx, group, ITEMS, mode);
                assert_identical(&got, &want, &format!("lean {lean_group_head} group {group} mode {mode:?}"));
            }
        }
    }
}

#[test]
fn include_seen_scores_every_item() {
    let (d, ctx) = tiny_world(73, 40);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    let got = frozen.recommend(Target::User { id: 0 }, d.num_items + 5, false, GroupMode::Voting).unwrap();
    assert_eq!(got.len(), d.num_items, "exclude_seen=false ranks the full catalogue");
}

#[test]
fn batched_shared_catalog_path_matches_per_request_recommendations() {
    let (d, ctx) = tiny_world(77, 40);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    // Mixed ks, duplicate users, and one out-of-range id: the batch
    // must reproduce each per-request result (and error) individually.
    let requests: Vec<(usize, usize)> =
        vec![(0, 5), (1, 10), (2, 3), (0, 7), (d.num_users, 5), (d.num_users - 1, 4)];
    let batched = frozen.recommend_users_shared(&requests);
    assert_eq!(batched.len(), requests.len());
    for (j, &(user, k)) in requests.iter().enumerate() {
        let solo = frozen.recommend(Target::User { id: user }, k, false, GroupMode::Voting);
        match (&batched[j], &solo) {
            (Ok(got), Ok(want)) => assert_identical(got, want, &format!("batch slot {j} (user {user})")),
            (Err(got), Err(want)) => assert_eq!(got, want, "batch slot {j}"),
            (got, want) => panic!("batch slot {j}: {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn batched_shared_catalog_cache_accounting_matches_per_request_path() {
    let (d, ctx) = tiny_world(78, 40);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    let requests: Vec<(usize, usize)> = vec![(0, 5), (1, 5), (2, 5)];
    let base = frozen.cache_stats().latent_hits;
    let _ = frozen.recommend_users_shared(&requests);
    let after_batch = frozen.cache_stats().latent_hits;
    for &(user, k) in &requests {
        frozen.recommend(Target::User { id: user }, k, false, GroupMode::Voting).unwrap();
    }
    let after_solo = frozen.cache_stats().latent_hits;
    assert_eq!(
        after_batch - base,
        after_solo - after_batch,
        "one latent hit per latent-bearing request, batched or not"
    );
}

#[test]
fn out_of_range_targets_error_instead_of_panicking() {
    let (d, ctx) = tiny_world(74, 40);
    let num_groups = ctx.num_groups();
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    assert!(frozen.recommend(Target::User { id: d.num_users }, 5, true, GroupMode::Voting).is_err());
    assert!(frozen.recommend(Target::Group { id: num_groups }, 5, true, GroupMode::Voting).is_err());
}

#[test]
fn rebuild_swaps_models_and_validates_the_universe() {
    let (d, ctx) = tiny_world(75, 40);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let mut frozen = FrozenModel::freeze(model, ctx);
    let before = frozen.recommend(Target::Group { id: 0 }, 5, true, GroupMode::Voting).unwrap();

    // A model with a different seed produces different parameters, so
    // the rebuilt snapshot must produce different recommendations —
    // proving the caches were actually recomputed.
    let mut other_cfg = GroupSaConfig::tiny();
    other_cfg.seed = 999;
    let other = GroupSa::new(other_cfg, d.num_users, d.num_items);
    frozen.rebuild(other).unwrap();
    assert_eq!(frozen.cache_stats().rebuilds, 1);
    let after = frozen.recommend(Target::Group { id: 0 }, 5, true, GroupMode::Voting).unwrap();
    let same = before.len() == after.len()
        && before.iter().zip(&after).all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits());
    assert!(!same, "rebuild must refresh the precomputed caches");

    // Wrong universe → rejected, snapshot untouched.
    let wrong = GroupSa::new(GroupSaConfig::tiny(), d.num_users + 1, d.num_items);
    assert!(frozen.rebuild(wrong).is_err());
    assert_eq!(frozen.cache_stats().rebuilds, 1);
}

#[test]
fn cache_hit_counters_advance() {
    let (d, ctx) = tiny_world(76, 40);
    let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
    let frozen = FrozenModel::freeze(model, ctx);
    frozen.recommend(Target::User { id: 0 }, 5, true, GroupMode::Voting).unwrap();
    frozen.recommend(Target::Group { id: 0 }, 5, true, GroupMode::Voting).unwrap();
    let stats = frozen.cache_stats();
    assert!(stats.latent_hits >= 1, "user scoring should consume the latent cache");
    assert_eq!(stats.group_rep_hits, 1);
    assert_eq!(stats.num_users, d.num_users);
    assert_eq!(stats.num_items, d.num_items);
}
