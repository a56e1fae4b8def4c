//! Tape-free frozen scoring: eval-path twins of the graph builders.
//!
//! The training code scores through [`groupsa_tensor::Graph`], which
//! allocates a node per op so gradients can flow. A serving process
//! never needs gradients, so this module re-expresses the exact same
//! op sequence (the compositions of [`crate::user_model`] and
//! [`crate::voting`]) through the gradient-free `forward_inference`
//! building blocks of `groupsa-nn`.
//!
//! **Equivalence contract**: every graph op computes its forward value
//! eagerly by delegating to the same `Matrix`/`ops` routines these
//! twins call, in the same order, so frozen scores are bit-identical
//! to [`GroupSa::score_user_items`] / [`GroupSa::score_group_items`]
//! (up to IEEE sign-of-zero, which `f32 ==` treats as equal). The
//! golden tests below and in `groupsa-serve` pin this down.
//!
//! **One scoring path**: every frozen score and γ weight is built here,
//! once. A single private builder (`tower_rows`) writes the
//! `[a | v | a⊙v]` rows that feed both prediction towers and the γ
//! attention, in cross mode (each user row against every item row; each
//! item against every member) or row-paired mode (each `x_G` against
//! its item). User scoring is [`GroupSa::score_users_items_frozen`] —
//! the one-user call is its `users.len() == 1` case — and group
//! scoring runs the tower once per item slice, not once per item.
//! Every tower op is row-independent, so how rows are stacked never
//! changes a score's bits. [`GroupSa::member_weights`] reads γ through
//! the same helper.
//!
//! The split into *latent* / *member-reps* producers and score
//! consumers is what makes serving cheap: a `FrozenModel` (in
//! `groupsa-serve`) computes each user's latent factor and each
//! group's post-voting member representations **once** at load, and
//! per-request work reduces to embedding lookups plus the prediction
//! tower — the paper's §II-F observation that voting-network inference
//! is the latency bottleneck, applied to the full path.

use crate::context::DataContext;
use crate::model::GroupSa;
use groupsa_tensor::{ops, Matrix};

/// Rows one stacked user-tower pass stacks users up to. The batching
/// win inverts once the 3d-wide input and intermediates fall out of
/// cache (measured crossover between 512 and 2048 rows at d = 32). A
/// user's item slice is never split, so a full 256-item scan chunk
/// scores one user per pass. Row independence makes the grouping
/// invisible in the output bits.
const STACK_ROWS: usize = 256;

impl GroupSa {
    /// Number of users the embedding tables were built for.
    pub fn num_users(&self) -> usize {
        self.emb_user.count()
    }

    /// Number of items the embedding tables were built for.
    pub fn num_items(&self) -> usize {
        self.emb_item.count()
    }

    /// The shared user embedding table `embᵁ` (`num_users×d`).
    pub fn user_embedding_table(&self) -> &Matrix {
        self.store.value(self.emb_user.slot())
    }

    /// The shared item embedding table `embⱽ` (`num_items×d`).
    pub fn item_embedding_table(&self) -> &Matrix {
        self.store.value(self.emb_item.slot())
    }

    /// Tape-free twin of the item-aggregation branch `hⱽ_j`
    /// (Eq. 11–14), driven by an explicit Top-H item list.
    fn item_aggregation_frozen(&self, items: &[usize], emb_u: &Matrix) -> Option<Matrix> {
        if !self.cfg.ablation.item_aggregation {
            return None;
        }
        if items.is_empty() {
            return None;
        }
        let xs = self.lat_item.lookup_inference(&self.store, items); // H×d
        let eu_rep = emb_u.repeat_rows(items.len());
        let rows = eu_rep.concat_cols(&xs); // H×2d
        let agg = self.item_att.aggregate_inference(&self.store, &rows, &xs); // 1×d
        let mut lin = self.item_agg_out.forward_inference(&self.store, &agg);
        lin.map_inplace(ops::relu);
        Some(lin)
    }

    /// Tape-free twin of the social-aggregation branch `hˢ_j`
    /// (Eq. 15–18), driven by an explicit Top-H friend list.
    fn social_aggregation_frozen(&self, friends: &[usize], emb_u: &Matrix) -> Option<Matrix> {
        if !self.cfg.ablation.social_aggregation {
            return None;
        }
        if friends.is_empty() {
            return None;
        }
        let xs = self.lat_social.lookup_inference(&self.store, friends); // H×d
        let eu_rep = emb_u.repeat_rows(friends.len());
        let rows = eu_rep.concat_cols(&xs); // H×2d
        let agg = self.social_att.aggregate_inference(&self.store, &rows, &xs); // 1×d
        let mut lin = self.social_agg_out.forward_inference(&self.store, &agg);
        lin.map_inplace(ops::relu);
        Some(lin)
    }

    /// Tape-free twin of [`GroupSa::user_latent_graph`] (Eq. 19): the
    /// enhanced user latent factor `h_j`, or `None` when user modeling
    /// is ablated or the user has neither history nor friends.
    ///
    /// This is the expensive, *precomputable* half of user scoring —
    /// it depends only on the trained parameters and the context, so a
    /// serving layer caches one `1×d` row per user.
    pub fn user_latent_frozen(&self, ctx: &DataContext, user: usize) -> Option<Matrix> {
        self.user_latent_from_lists(user, &ctx.top_items[user], &ctx.top_friends[user])
    }

    /// [`GroupSa::user_latent_frozen`] with the Top-H lists supplied
    /// explicitly instead of read from a [`DataContext`]. This is the
    /// producer the snapshot builder streams through: a chunked
    /// generator can hand over each user's lists without ever
    /// materializing a full context, and the result is bit-identical
    /// to the context-driven call (same ops, same order).
    pub fn user_latent_from_lists(
        &self,
        user: usize,
        top_items: &[usize],
        top_friends: &[usize],
    ) -> Option<Matrix> {
        if !self.cfg.ablation.user_modeling() {
            return None;
        }
        let emb_u = self.emb_user.lookup_inference(&self.store, &[user]); // 1×d
        let hv = self.item_aggregation_frozen(top_items, &emb_u);
        let hs = self.social_aggregation_frozen(top_friends, &emb_u);
        match (hv, hs) {
            (Some(hv), Some(hs)) => {
                let cat = hv.concat_cols(&hs); // 1×2d
                Some(self.fusion.forward_inference(&self.store, &cat))
            }
            (Some(hv), None) => Some(hv),
            (None, Some(hs)) => Some(hs),
            (None, None) => None,
        }
    }

    /// Tape-free twin of the user-task scores (Eq. 22–23), taking the
    /// user's latent factor as an input instead of recomputing it —
    /// pass the cached result of [`GroupSa::user_latent_frozen`]
    /// (`None` reproduces the `r₁`-only fallback). The one-user case
    /// of [`GroupSa::score_users_items_frozen`].
    ///
    /// # Panics
    /// If `items` is empty or any id is out of range.
    pub fn score_user_items_frozen(&self, user: usize, items: &[usize], latent: Option<&Matrix>) -> Vec<f32> {
        self.score_users_items_frozen(&[user], &[latent], items).pop().unwrap_or_default()
    }

    /// Scores the same `items` slice for many users through stacked
    /// prediction-tower passes — the one user-task scoring path every
    /// frozen caller goes through.
    ///
    /// `latents[j]` is user `users[j]`'s cached latent factor (as
    /// produced by [`GroupSa::user_latent_frozen`]); the slices must
    /// be equal length. The shared item embeddings are gathered once,
    /// and the `r₂` tower runs only over the latent-bearing users.
    ///
    /// Every tower op is row-independent (matmul rows accumulate from
    /// their own input row only; bias add, ReLU and the `w_u` blend
    /// are element-wise), so row `j·n + i` of a stacked pass carries
    /// the bits a one-user pass would — the freeze tests pin this.
    ///
    /// # Panics
    /// If `items` is empty, the slices differ in length, or any id is
    /// out of range.
    pub fn score_users_items_frozen(
        &self,
        users: &[usize],
        latents: &[Option<&Matrix>],
        items: &[usize],
    ) -> Vec<Vec<f32>> {
        assert!(!items.is_empty(), "score_users_items_frozen: no items to score");
        assert_eq!(users.len(), latents.len(), "score_users_items_frozen: users/latents length mismatch");
        let n = items.len();
        let w = self.cfg.w_u;
        // The r₂ tower engages for users with a latent, unless the
        // blend weight is exactly zero — a config gate, not an
        // arithmetic result: w_u = 0.0 means "tower disabled".
        let engaged: Vec<Option<&[f32]>> =
            latents.iter().map(|l| l.filter(|_| w != 0.0).map(|h| h.row(0))).collect(); // lint: allow(float-eq)
        // Shared gathers happen once per call, regardless of how many
        // stacked sub-batches the tower passes below are split into.
        let ev = self.emb_item.lookup_inference(&self.store, items); // n×d
        let xv = engaged
            .iter()
            .any(Option::is_some)
            .then(|| self.lat_item.lookup_inference(&self.store, items)); // n×d
        let per = (STACK_ROWS / n).max(1);
        let mut out = Vec::with_capacity(users.len());
        for (uc, hc) in users.chunks(per).zip(engaged.chunks(per)) {
            let eu: Vec<&[f32]> = uc.iter().map(|&u| self.emb_user.row(&self.store, u)).collect();
            let r1 = self.pred_user.forward_inference(&self.store, &tower_rows_cross(&eu, &ev)); // (U·n)×1
            let hs: Vec<&[f32]> = hc.iter().flatten().copied().collect();
            let r2 = match &xv {
                Some(xv) if !hs.is_empty() => {
                    self.pred_user.forward_inference(&self.store, &tower_rows_cross(&hs, xv))
                }
                _ => Matrix::zeros(0, 1),
            }; // (L·n)×1
            let mut r2_rows = r2.as_slice().chunks(n);
            for (r1_rows, h) in r1.as_slice().chunks(n).zip(hc) {
                out.push(match h.and_then(|_| r2_rows.next()) {
                    Some(r2_rows) => {
                        r1_rows.iter().zip(r2_rows).map(|(&a, &b)| a * (1.0 - w) + b * w).collect()
                    }
                    None => r1_rows.to_vec(),
                });
            }
        }
        out
    }

    /// Tape-free twin of [`GroupSa::member_reps_graph`] (Eq. 1–6),
    /// returning the post-voting `l×d` member representations.
    ///
    /// `latents` is an optional per-user cache indexed by user id (as
    /// produced by [`GroupSa::user_latent_frozen`]); pass `&[]` to
    /// compute enhanced inputs on the fly. It is only consulted for
    /// [`crate::config::VotingInput::Enhanced`].
    ///
    /// # Panics
    /// If the group is out of range or has no members.
    pub fn member_reps_frozen(&self, ctx: &DataContext, group: usize, latents: &[Option<Matrix>]) -> Matrix {
        self.member_reps_from_parts(&ctx.members[group], ctx.group_masks[group].as_ref(), |u| {
            match latents.get(u) {
                Some(cached) => cached.clone(),
                None => self.user_latent_frozen(ctx, u),
            }
        })
    }

    /// [`GroupSa::member_reps_frozen`] with the group's parts supplied
    /// explicitly: the member list, the optional social bias mask, and
    /// a latent source (only consulted for
    /// [`crate::config::VotingInput::Enhanced`]). Lets the snapshot
    /// builder stream groups without a full [`DataContext`];
    /// bit-identical to the context-driven call.
    ///
    /// # Panics
    /// If `members` is empty.
    pub fn member_reps_from_parts(
        &self,
        members: &[usize],
        mask: Option<&Matrix>,
        mut latent_of: impl FnMut(usize) -> Option<Matrix>,
    ) -> Matrix {
        assert!(!members.is_empty(), "group has no members");
        let mut x = match self.cfg.voting_input {
            crate::config::VotingInput::Embedding => self.emb_user.lookup_inference(&self.store, members),
            crate::config::VotingInput::Enhanced => {
                let mut rows: Option<Matrix> = None;
                for &u in members {
                    let rep = match latent_of(u) {
                        Some(h) => h,
                        None => self.emb_user.lookup_inference(&self.store, &[u]),
                    };
                    rows = Some(match rows {
                        None => rep,
                        Some(acc) => acc.concat_rows(&rep),
                    });
                }
                rows.expect("non-empty group")
            }
        }; // l×d
        if self.cfg.ablation.voting {
            for layer in &self.voting {
                x = layer.forward_inference(&self.store, &x, mask);
            }
        }
        x
    }

    /// Tape-free twin of the group-task scores (Eq. 7–10, 20), taking
    /// the precomputed post-voting member representations — pass the
    /// cached result of [`GroupSa::member_reps_frozen`]. Per item this
    /// is one item-conditioned γ attention over the `l` members; the
    /// resulting `x_G` rows then share **one** tower pass (row
    /// independence makes that bit-identical to one pass per item).
    ///
    /// # Panics
    /// If `items` is empty or any id is out of range.
    pub fn score_group_items_frozen(&self, post_reps: &Matrix, items: &[usize]) -> Vec<f32> {
        assert!(!items.is_empty(), "score_group_items_frozen: no items to score");
        let ev = self.emb_item.lookup_inference(&self.store, items); // n×d
        let mut xg = Vec::with_capacity(ev.rows() * ev.cols());
        for e in ev.rows_iter() {
            xg.extend_from_slice(self.gamma_frozen(post_reps, e).matmul(post_reps).as_slice()); // 1×d
        }
        let mut xg = Matrix::from_vec(ev.rows(), ev.cols(), xg); // n×d
        let tower = if self.cfg.lean_group_head {
            &self.pred_user
        } else {
            xg = self.group_out.forward_inference(&self.store, &xg);
            xg.map_inplace(ops::relu);
            &self.pred_group
        };
        tower.forward_inference(&self.store, &tower_rows_paired(&xg, &ev)).as_slice().to_vec()
    }

    /// Item-conditioned member weights `γ_{t,i}` (Eq. 9–10) for one
    /// candidate embedding, as a `1×l` row: the vanilla attention over
    /// one `[embⱽ_i | x_t | embⱽ_i⊙x_t]` row per post-voting member.
    pub(crate) fn gamma_frozen(&self, post_reps: &Matrix, item_emb: &[f32]) -> Matrix {
        self.group_att.weights_inference(&self.store, &tower_rows_cross(&[item_emb], post_reps))
    }
}

/// The one builder of `[a | v | a⊙v]` rows — the input layout of every
/// prediction tower (Eq. 20, 22–23) and of the γ attention (Eq. 9) —
/// writing one row per `(a, v)` pair into a single `rows×3d` buffer.
/// Pure data movement plus one product per element, so the rows carry
/// the bits of the graph path's `concat_cols`/`mul_elem` chain.
fn tower_rows<'a>(rows: usize, d: usize, pairs: impl Iterator<Item = (&'a [f32], &'a [f32])>) -> Matrix {
    let mut buf = Vec::with_capacity(rows * 3 * d);
    for (a, v) in pairs {
        buf.extend_from_slice(a);
        buf.extend_from_slice(v);
        buf.extend(a.iter().zip(v).map(|(&x, &y)| x * y));
    }
    Matrix::from_vec(rows, 3 * d, buf)
}

/// [`tower_rows`] in cross mode: each `a` against every row of `v`,
/// `a`-major (row `j·n + i` pairs `a[j]` with `v` row `i`).
fn tower_rows_cross(a: &[&[f32]], v: &Matrix) -> Matrix {
    tower_rows(a.len() * v.rows(), v.cols(), a.iter().flat_map(|&a| v.rows_iter().map(move |r| (a, r))))
}

/// [`tower_rows`] in row-paired mode: row `i` of `a` against row `i`
/// of `v`.
fn tower_rows_paired(a: &Matrix, v: &Matrix) -> Matrix {
    tower_rows(v.rows(), v.cols(), a.rows_iter().zip(v.rows_iter()))
}

#[cfg(test)]
mod tests {
    use crate::config::{Ablation, GroupSaConfig, VotingInput};
    use crate::context::DataContext;
    use crate::model::GroupSa;
    use crate::test_fixtures::tiny_world;

    fn frozen_user_scores(model: &GroupSa, ctx: &DataContext, user: usize, items: &[usize]) -> Vec<f32> {
        let h = model.user_latent_frozen(ctx, user);
        model.score_user_items_frozen(user, items, h.as_ref())
    }

    fn frozen_group_scores(model: &GroupSa, ctx: &DataContext, group: usize, items: &[usize]) -> Vec<f32> {
        let reps = model.member_reps_frozen(ctx, group, &[]);
        model.score_group_items_frozen(&reps, items)
    }

    #[test]
    fn frozen_user_scores_match_graph_path_exactly() {
        let (d, ctx) = tiny_world(61);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..10).collect();
        for user in [0, 1, d.num_users - 1] {
            assert_eq!(
                model.score_user_items(&ctx, user, &items),
                frozen_user_scores(&model, &ctx, user, &items),
                "user {user}"
            );
        }
    }

    #[test]
    fn frozen_group_scores_match_graph_path_exactly() {
        let (d, ctx) = tiny_world(61);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..10).collect();
        for group in [0, 1, ctx.num_groups() - 1] {
            assert_eq!(
                model.score_group_items(&ctx, group, &items),
                frozen_group_scores(&model, &ctx, group, &items),
                "group {group}"
            );
        }
    }

    #[test]
    fn frozen_paths_match_under_every_ablation() {
        let (d, _) = tiny_world(62);
        for ab in [
            Ablation::full(),
            Ablation::group_a(),
            Ablation::group_s(),
            Ablation::group_i(),
            Ablation::group_f(),
            Ablation::group_g(),
        ] {
            let cfg = GroupSaConfig::tiny().with_ablation(ab);
            let ctx = DataContext::from_train_view(&d, &cfg);
            let model = GroupSa::new(cfg, d.num_users, d.num_items);
            let items = [0usize, 1, 2, 3];
            assert_eq!(
                model.score_user_items(&ctx, 0, &items),
                frozen_user_scores(&model, &ctx, 0, &items),
                "{ab:?}"
            );
            assert_eq!(
                model.score_group_items(&ctx, 0, &items),
                frozen_group_scores(&model, &ctx, 0, &items),
                "{ab:?}"
            );
        }
    }

    #[test]
    fn frozen_paths_match_with_enhanced_voting_input_and_paper_head() {
        let (d, _) = tiny_world(63);
        let mut cfg = GroupSaConfig::tiny();
        cfg.voting_input = VotingInput::Enhanced;
        cfg.lean_group_head = false;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let items = [0usize, 1, 2, 3, 4];
        assert_eq!(model.score_group_items(&ctx, 0, &items), frozen_group_scores(&model, &ctx, 0, &items));

        // The per-user latent cache is equivalent to on-the-fly latents.
        let latents: Vec<Option<groupsa_tensor::Matrix>> =
            (0..d.num_users).map(|u| model.user_latent_frozen(&ctx, u)).collect();
        let cached = model.member_reps_frozen(&ctx, 0, &latents);
        let fresh = model.member_reps_frozen(&ctx, 0, &[]);
        assert_eq!(cached.as_slice(), fresh.as_slice());
    }

    #[test]
    fn frozen_user_scores_match_with_w_u_zero() {
        let (d, _) = tiny_world(64);
        let mut cfg = GroupSaConfig::tiny();
        cfg.w_u = 0.0;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let items = [0usize, 1, 2];
        assert_eq!(model.score_user_items(&ctx, 0, &items), frozen_user_scores(&model, &ctx, 0, &items));
    }

    #[test]
    fn batched_user_scores_are_bit_identical_to_per_user_calls() {
        let (d, ctx) = tiny_world(66);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..13).collect(); // odd n stresses row slicing
        let users: Vec<usize> = vec![0, 1, d.num_users - 1, 2, 0]; // duplicate on purpose
        let latents: Vec<Option<groupsa_tensor::Matrix>> =
            users.iter().map(|&u| model.user_latent_frozen(&ctx, u)).collect();
        let latent_refs: Vec<Option<&groupsa_tensor::Matrix>> = latents.iter().map(|l| l.as_ref()).collect();
        let batched = model.score_users_items_frozen(&users, &latent_refs, &items);
        assert_eq!(batched.len(), users.len());
        for (j, &u) in users.iter().enumerate() {
            let solo = model.score_user_items_frozen(u, &items, latent_refs[j]);
            let batched_bits: Vec<u32> = batched[j].iter().map(|s| s.to_bits()).collect();
            let solo_bits: Vec<u32> = solo.iter().map(|s| s.to_bits()).collect();
            assert_eq!(batched_bits, solo_bits, "user {u} (batch slot {j})");
        }
    }

    #[test]
    fn batched_user_scores_respect_the_w_u_gate() {
        let (d, _) = tiny_world(67);
        let mut cfg = GroupSaConfig::tiny();
        cfg.w_u = 0.0;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let items = [0usize, 1, 2, 3, 4];
        let latents: Vec<Option<groupsa_tensor::Matrix>> =
            (0..2).map(|u| model.user_latent_frozen(&ctx, u)).collect();
        let latent_refs: Vec<Option<&groupsa_tensor::Matrix>> = latents.iter().map(|l| l.as_ref()).collect();
        let batched = model.score_users_items_frozen(&[0, 1], &latent_refs, &items);
        for (j, u) in [0usize, 1].into_iter().enumerate() {
            let solo = model.score_user_items_frozen(u, &items, latent_refs[j]);
            assert_eq!(batched[j], solo, "user {u} with w_u = 0");
        }
    }

    #[test]
    fn embedding_extraction_exposes_tables() {
        let (d, _) = tiny_world(65);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        assert_eq!(model.num_users(), d.num_users);
        assert_eq!(model.num_items(), d.num_items);
        assert_eq!(model.user_embedding_table().shape(), (d.num_users, 8));
        assert_eq!(model.item_embedding_table().shape(), (d.num_items, 8));
    }
}
