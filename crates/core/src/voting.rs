//! The voting scheme (paper §II-C): stacked social self-attention over
//! a group's members, then item-conditioned aggregation into the group
//! representation and the group-task score (Eq. 1–10, 20).

use crate::context::DataContext;
use crate::model::GroupSa;
use groupsa_tensor::{Graph, NodeId};
use rand::Rng;

impl GroupSa {
    /// Records the member representations before and after the voting
    /// network: the member inputs (enhanced latents or embeddings) run
    /// through `N_X` social self-attention rounds (Eq. 1–6). With
    /// voting ablated (Group-A / Group-S) the post-voting output equals
    /// the input.
    ///
    /// Returns `(pre, post)` — both `l×d`. §I's narrative assigns the
    /// two distinct roles: the voting outputs decide *who is heard*
    /// (they condition the γ weights), while each member's own
    /// representation carries *what they want* (the aggregation
    /// values).
    pub(crate) fn member_reps_graph(
        &self,
        g: &mut Graph,
        rng: &mut impl Rng,
        ctx: &DataContext,
        group: usize,
        training: bool,
    ) -> (NodeId, NodeId) {
        let members = &ctx.members[group];
        assert!(!members.is_empty(), "group {group} has no members");
        let mut x = match self.cfg.voting_input {
            crate::config::VotingInput::Embedding => self.emb_user.lookup(g, &self.store, members),
            crate::config::VotingInput::Enhanced => {
                // Stack each member's enhanced latent factor h_j
                // (Eq. 19), falling back to emb_j^U for cold users.
                let mut rows: Option<groupsa_tensor::NodeId> = None;
                for &u in members {
                    let rep = match self.user_latent_graph(g, ctx, u) {
                        Some(h) => h,
                        None => self.emb_user.lookup(g, &self.store, &[u]),
                    };
                    rows = Some(match rows {
                        None => rep,
                        Some(acc) => g.concat_rows(acc, rep),
                    });
                }
                rows.expect("non-empty group")
            }
        }; // l×d
        let pre = x;
        if self.cfg.ablation.voting {
            let mask = ctx.group_masks[group].as_ref();
            for layer in &self.voting {
                x = layer.forward(g, &self.store, rng, x, mask, training);
            }
        }
        (pre, x)
    }

    /// Records the group representation for one candidate item
    /// (Eq. 7–10): the vanilla attention scores each member against the
    /// item embedding (`γ_{t,i}` from `[embⱽ_h ⊕ x_{t,i}]`), the
    /// weighted sum is pushed through `σ(W·agg + b)`.
    ///
    /// `member_reps` is the `l×d` output of
    /// [`GroupSa::member_reps_graph`]; `item_emb` is a `1×d` node.
    fn group_rep_graph(&self, g: &mut Graph, pre_reps: NodeId, post_reps: NodeId, item_emb: NodeId) -> NodeId {
        let l = g.value(post_reps).rows();
        let ev_rep = g.repeat_rows(item_emb, l); // l×d
        let rows = g.concat_cols(ev_rep, post_reps);
        let prod = g.mul_elem(ev_rep, post_reps);
        let rows = g.concat_cols(rows, prod); // l×3d — [embⱽ_h ⊕ x_{t,i} ⊕ ⊙]
        // γ from the voting outputs, aggregating the voting outputs
        // (Eq. 8); `pre_reps` is kept for the Group-A degenerate path
        // where voting is ablated and pre == post.
        let _ = pre_reps;
        let w = self.group_att.weights(g, &self.store, rows); // 1×l
        let agg = g.matmul(w, post_reps); // 1×d
        if self.cfg.lean_group_head {
            // Lean head: the γ-weighted member aggregate *is* the group
            // representation, staying in the space the shared tower
            // already understands.
            agg
        } else {
            // Paper-literal Eq. (7): x_G = σ(W·agg + b).
            let lin = self.group_out.forward(g, &self.store, agg);
            g.relu(lin)
        }
    }

    /// Records the group-task scores of `items` for `group`
    /// (Eq. 20): each candidate gets its own item-conditioned group
    /// representation, concatenated with the item embedding and scored
    /// by the group prediction tower.
    ///
    /// Returns an `items.len()×1` node.
    pub(crate) fn group_scores_graph(
        &self,
        g: &mut Graph,
        rng: &mut impl Rng,
        ctx: &DataContext,
        group: usize,
        items: &[usize],
        training: bool,
    ) -> NodeId {
        assert!(!items.is_empty(), "group_scores_graph: no items to score");
        let (pre_reps, post_reps) = self.member_reps_graph(g, rng, ctx, group, training);
        let ev_all = self.emb_item.lookup(g, &self.store, items); // n×d
        let mut scores: Option<NodeId> = None;
        for idx in 0..items.len() {
            let ev = g.slice_rows(ev_all, idx, 1); // 1×d
            let xg = self.group_rep_graph(g, pre_reps, post_reps, ev); // 1×d
            let cat = g.concat_cols(xg, ev);
            let prod = g.mul_elem(xg, ev);
            let cat = g.concat_cols(cat, prod); // 1×3d
            let tower = if self.cfg.lean_group_head { &self.pred_user } else { &self.pred_group };
            let s = tower.forward(g, &self.store, cat); // 1×1
            scores = Some(match scores {
                None => s,
                Some(acc) => g.concat_rows(acc, s),
            });
        }
        scores.expect("items is non-empty")
    }

    /// Gradient-free member attention weights `γ_{t,i}` (Eq. 10) for a
    /// given candidate item — the per-member influence the Table IV
    /// case study reports. Read through the frozen scoring path, so the
    /// weights are the ones served scores are built from.
    pub fn member_weights(&self, ctx: &DataContext, group: usize, item: usize) -> Vec<f32> {
        let post_reps = self.member_reps_frozen(ctx, group, &[]);
        self.gamma_frozen(&post_reps, self.emb_item.row(&self.store, item)).as_slice().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ablation, GroupSaConfig};
    use crate::test_fixtures::tiny_world;
    use groupsa_tensor::rng::seeded;

    #[test]
    fn member_reps_shape_matches_group_size() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        for t in 0..3 {
            let mut g = Graph::new();
            let mut rng = seeded(0);
            let (pre, post) = model.member_reps_graph(&mut g, &mut rng, &ctx, t, false);
            assert_eq!(g.value(pre).shape(), (ctx.members[t].len(), 8));
            assert_eq!(g.value(post).shape(), (ctx.members[t].len(), 8));
            assert!(g.value(post).is_finite());
        }
    }

    #[test]
    fn voting_ablation_passes_raw_embeddings() {
        // With voting ablated AND the literal-embedding input, member
        // representations are exactly the raw embeddings.
        let (d, _) = tiny_world(11);
        let mut cfg = GroupSaConfig::tiny().with_ablation(Ablation::group_s());
        cfg.voting_input = crate::config::VotingInput::Embedding;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let mut g = Graph::new();
        let mut rng = seeded(0);
        let (pre, post) = model.member_reps_graph(&mut g, &mut rng, &ctx, 0, false);
        let raw = model.emb_user.lookup_inference(model.store(), &ctx.members[0]);
        assert!(g.value(pre).approx_eq(&raw, 1e-6), "embedding input must be raw");
        assert!(g.value(post).approx_eq(&raw, 1e-6), "ablated voting must be identity");
    }

    #[test]
    fn enhanced_voting_input_differs_from_raw_embeddings() {
        let (d, _) = tiny_world(11);
        let mut cfg = GroupSaConfig::tiny().with_ablation(Ablation::group_s());
        cfg.voting_input = crate::config::VotingInput::Enhanced;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let mut g = Graph::new();
        let mut rng = seeded(0);
        let (pre, _) = model.member_reps_graph(&mut g, &mut rng, &ctx, 0, false);
        let raw = model.emb_user.lookup_inference(model.store(), &ctx.members[0]);
        assert!(!g.value(pre).approx_eq(&raw, 1e-3), "enhanced input must use user modeling");
    }

    #[test]
    fn full_model_transforms_embeddings() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let mut g = Graph::new();
        let mut rng = seeded(0);
        let (pre, post) = model.member_reps_graph(&mut g, &mut rng, &ctx, 0, false);
        assert!(!g.value(post).approx_eq(g.value(pre), 1e-3), "voting layers must transform the input");
    }

    #[test]
    fn member_weights_form_distribution_and_depend_on_item() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        // Find a group with at least 2 members.
        let t = (0..ctx.num_groups()).find(|&t| ctx.members[t].len() >= 2).expect("fixture has multi-member groups");
        let w0 = model.member_weights(&ctx, t, 0);
        let w1 = model.member_weights(&ctx, t, 1);
        assert_eq!(w0.len(), ctx.members[t].len());
        assert!((w0.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((w1.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Expertise is item-conditioned: weights differ across items.
        assert_ne!(w0, w1, "member weights must be item-conditioned");
    }

    #[test]
    fn member_weights_match_the_graph_gamma_bit_for_bit() {
        for voting_input in [crate::config::VotingInput::Embedding, crate::config::VotingInput::Enhanced] {
            let (d, _) = tiny_world(12);
            let mut cfg = GroupSaConfig::tiny();
            cfg.voting_input = voting_input;
            let ctx = DataContext::from_train_view(&d, &cfg);
            let model = GroupSa::new(cfg, d.num_users, d.num_items);
            for (t, item) in [(0, 0), (1, 3), (ctx.num_groups() - 1, d.num_items - 1)] {
                let mut g = Graph::new();
                let mut rng = seeded(0);
                let (_, post) = model.member_reps_graph(&mut g, &mut rng, &ctx, t, false);
                let ev = model.emb_item.lookup(&mut g, model.store(), &[item]);
                let ev_rep = g.repeat_rows(ev, ctx.members[t].len());
                let rows = g.concat_cols(ev_rep, post);
                let prod = g.mul_elem(ev_rep, post);
                let rows = g.concat_cols(rows, prod);
                let w = model.group_att.weights(&mut g, model.store(), rows);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&model.member_weights(&ctx, t, item)),
                    bits(g.value(w).as_slice()),
                    "{voting_input:?} group {t} item {item}"
                );
            }
        }
    }

    #[test]
    fn group_scores_match_candidate_count_and_vary() {
        let (d, ctx) = tiny_world(11);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let items: Vec<usize> = (0..6).collect();
        let s = model.score_group_items(&ctx, 0, &items);
        assert_eq!(s.len(), 6);
        let distinct: std::collections::HashSet<_> = s.iter().map(|x| x.to_bits()).collect();
        assert!(distinct.len() > 1, "scores must differ across items");
    }

    #[test]
    fn dropout_makes_training_forward_stochastic_but_inference_stable() {
        let (d, _) = tiny_world(11);
        let mut cfg = GroupSaConfig::tiny();
        cfg.dropout = 0.4;
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let items = [0usize, 1];
        let mut rng = seeded(1);
        let mut g1 = Graph::new();
        let a = model.group_scores_graph(&mut g1, &mut rng, &ctx, 0, &items, true);
        let mut g2 = Graph::new();
        let b = model.group_scores_graph(&mut g2, &mut rng, &ctx, 0, &items, true);
        assert_ne!(g1.value(a), g2.value(b), "dropout must vary training forwards");
        // Inference ignores dropout → deterministic.
        assert_eq!(model.score_group_items(&ctx, 0, &items), model.score_group_items(&ctx, 0, &items));
    }

    #[test]
    fn singleton_group_is_supported() {
        let (mut d, _) = tiny_world(11);
        d.groups.push(vec![0]);
        let cfg = GroupSaConfig::tiny();
        let ctx = DataContext::from_train_view(&d, &cfg);
        let model = GroupSa::new(cfg, d.num_users, d.num_items);
        let t = ctx.num_groups() - 1;
        let s = model.score_group_items(&ctx, t, &[0, 1, 2]);
        assert!(s.iter().all(|x| x.is_finite()));
        assert_eq!(model.member_weights(&ctx, t, 0), vec![1.0]);
    }
}
