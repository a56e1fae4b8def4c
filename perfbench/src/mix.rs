//! The serving request mix, its output checks, and the measured
//! properties of the requests a run actually sent.

use crate::util::{num, Rng};
use groupsa_core::{DataContext, Recommendation};
use groupsa_serve::{RecommendRequest, Response, ServeMode, Target};

/// Items asked for per request.
pub const K: usize = 10;

const FAST: [ServeMode; 3] = [
    ServeMode::FastAverage,
    ServeMode::FastLeastMisery,
    ServeMode::FastMaxSatisfaction,
];

/// Equal thirds of user, group-`Voting` and group-`Fast*` requests;
/// every other user request scans the full catalog
/// (`exclude_seen = false`), the only kind the engine can coalesce.
pub struct Mix {
    pub seed: u64,
    pub users: usize,
    pub groups: usize,
    pub deadline_ms: u64,
}

impl Mix {
    /// Request `i` of the seeded sequence: a pure function of
    /// `(seed, i)`.
    pub fn request(&self, i: u64) -> RecommendRequest {
        let mut rng = Rng::stream(self.seed, i);
        let round = i / 3;
        let (target, exclude_seen, mode) = match i % 3 {
            0 => (
                Target::User {
                    id: rng.below(self.users),
                },
                round % 2 == 1,
                ServeMode::Voting,
            ),
            1 => (
                Target::Group {
                    id: rng.below(self.groups),
                },
                true,
                ServeMode::Voting,
            ),
            _ => (
                Target::Group {
                    id: rng.below(self.groups),
                },
                true,
                FAST[(round % 3) as usize],
            ),
        };
        RecommendRequest {
            id: i,
            target,
            k: K,
            exclude_seen,
            mode,
            deadline_ms: self.deadline_ms,
        }
    }
}

/// The scoring path a request takes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Kind {
    User,
    Voting,
    Fast,
}

impl Kind {
    pub fn of(req: &RecommendRequest) -> Kind {
        match (req.target, req.mode) {
            (Target::User { .. }, _) => Kind::User,
            (Target::Group { .. }, ServeMode::Voting) => Kind::Voting,
            (Target::Group { .. }, _) => Kind::Fast,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::User => "user",
            Kind::Voting => "voting",
            Kind::Fast => "fast",
        }
    }

    pub const ALL: [Kind; 3] = [Kind::User, Kind::Voting, Kind::Fast];
}

/// Checks one response against its request: echoed id, at most `k`
/// distinct in-range items, finite scores in descending order, and no
/// training interaction of the target when `exclude_seen` is set.
pub fn check<'a>(
    req: &RecommendRequest,
    resp: &'a Response,
    ctx: &DataContext,
) -> Result<&'a [Recommendation], String> {
    let items = match resp {
        Response::Recommend { id, items } if *id == req.id => items,
        Response::Recommend { id, .. } => {
            return Err(format!("request {} answered with id {id}", req.id))
        }
        Response::Error { id, error } => {
            return Err(format!(
                "request {} (reply id {id}) failed: {error}",
                req.id
            ))
        }
        other => return Err(format!("request {}: unexpected reply {other:?}", req.id)),
    };
    if items.len() > req.k {
        return Err(format!(
            "request {}: {} items for k = {}",
            req.id,
            items.len(),
            req.k
        ));
    }
    for (j, rec) in items.iter().enumerate() {
        if rec.item >= ctx.num_items || !rec.score.is_finite() {
            return Err(format!("request {}: bad item {rec:?}", req.id));
        }
        if items[..j].iter().any(|r| r.item == rec.item) {
            return Err(format!("request {}: item {} repeated", req.id, rec.item));
        }
        if j > 0 && items[j - 1].score < rec.score {
            return Err(format!(
                "request {}: scores not descending at rank {j}",
                req.id
            ));
        }
        if req.exclude_seen {
            let seen = match req.target {
                Target::User { id } => ctx.user_item_graph.has_interaction(id, rec.item),
                Target::Group { id } => ctx.group_item_graph.has_interaction(id, rec.item),
            };
            if seen {
                return Err(format!(
                    "request {}: seen item {} returned",
                    req.id, rec.item
                ));
            }
        }
    }
    Ok(items)
}

/// Bit-exact comparison of two ranked lists.
pub fn same_bits(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// Multiply-adds of one `[3d → d → 1]` prediction-tower pass per item,
/// counted as two flops each, plus bias and ReLU.
pub fn tower_flops(d: usize) -> f64 {
    (6 * d * d + 4 * d + 1) as f64
}

/// Candidates a request scores: the catalog minus the target's
/// training items when `exclude_seen` is set.
pub fn candidates(req: &RecommendRequest, ctx: &DataContext) -> usize {
    if !req.exclude_seen {
        return ctx.num_items;
    }
    let seen = match req.target {
        Target::User { id } => ctx.user_item_graph.items_of(id).len(),
        Target::Group { id } => ctx.group_item_graph.items_of(id).len(),
    };
    ctx.num_items.saturating_sub(seen)
}

/// Measured properties of the requests a run sent: what a later claim
/// that a change "helps only X" must cite.
pub struct Props {
    pub requests: u64,
    pub coalescible: u64,
    pub exclude_seen: u64,
    pub group_requests: u64,
    pub members: u64,
    pub table_reads: u64,
    /// User-latent cache lookups (user targets plus Fast members).
    pub latent_lookups: u64,
    pub candidates: u64,
    pub tower_flops: f64,
    users_touched: Vec<bool>,
    groups_touched: Vec<bool>,
}

impl Props {
    pub fn new(ctx: &DataContext) -> Self {
        Props {
            requests: 0,
            coalescible: 0,
            exclude_seen: 0,
            group_requests: 0,
            members: 0,
            table_reads: 0,
            latent_lookups: 0,
            candidates: 0,
            tower_flops: 0.0,
            users_touched: vec![false; ctx.num_users],
            groups_touched: vec![false; ctx.num_groups()],
        }
    }

    /// Accounts one sent request. `has_latent(u)` says whether user
    /// `u` has a cached latent, which adds the second user tower.
    pub fn note(
        &mut self,
        req: &RecommendRequest,
        ctx: &DataContext,
        d: usize,
        has_latent: impl Fn(usize) -> bool,
    ) {
        self.requests += 1;
        self.exclude_seen += req.exclude_seen as u64;
        let n = candidates(req, ctx);
        self.candidates += n as u64;
        let towers = match (Kind::of(req), req.target) {
            (Kind::User, Target::User { id }) => {
                self.coalescible += !req.exclude_seen as u64;
                self.users_touched[id] = true;
                self.table_reads += 1;
                self.latent_lookups += 1;
                1 + has_latent(id) as usize
            }
            (Kind::Voting, Target::Group { id }) => {
                self.group_requests += 1;
                self.members += ctx.members[id].len() as u64;
                self.groups_touched[id] = true;
                self.table_reads += 1;
                1
            }
            (_, Target::Group { id }) => {
                self.group_requests += 1;
                let members = &ctx.members[id];
                self.members += members.len() as u64;
                self.groups_touched[id] = true;
                self.table_reads += members.len() as u64;
                self.latent_lookups += members.len() as u64;
                members
                    .iter()
                    .map(|&u| {
                        self.users_touched[u] = true;
                        1 + has_latent(u) as usize
                    })
                    .sum()
            }
            (_, Target::User { .. }) => 0,
        };
        self.tower_flops += (towers * n) as f64 * tower_flops(d);
    }

    fn per_request(&self, v: f64) -> f64 {
        v / self.requests.max(1) as f64
    }

    pub fn coalescible_share(&self) -> f64 {
        self.per_request(self.coalescible as f64)
    }

    pub fn exclude_seen_share(&self) -> f64 {
        self.per_request(self.exclude_seen as f64)
    }

    pub fn members_per_group_request(&self) -> f64 {
        self.members as f64 / self.group_requests.max(1) as f64
    }

    pub fn users_touched_share(&self) -> f64 {
        let n = self.users_touched.iter().filter(|&&t| t).count();
        n as f64 / self.users_touched.len().max(1) as f64
    }

    pub fn groups_touched_share(&self) -> f64 {
        let n = self.groups_touched.iter().filter(|&&t| t).count();
        n as f64 / self.groups_touched.len().max(1) as f64
    }

    pub fn reads_per_request(&self) -> f64 {
        self.per_request(self.table_reads as f64)
    }

    pub fn flops_per_request(&self) -> f64 {
        self.per_request(self.tower_flops)
    }

    pub fn candidates_per_request(&self) -> f64 {
        self.per_request(self.candidates as f64)
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"requests\":{},\"coalescible_share\":{},\"exclude_seen_share\":{},\
             \"members_per_group_request\":{},\"users_touched_share\":{},\"groups_touched_share\":{},\
             \"table_reads_per_request\":{},\"candidates_per_request\":{},\"tower_flops_per_request\":{}}}",
            self.requests,
            num(self.coalescible_share()),
            num(self.exclude_seen_share()),
            num(self.members_per_group_request()),
            num(self.users_touched_share()),
            num(self.groups_touched_share()),
            num(self.reads_per_request()),
            num(self.candidates_per_request()),
            num(self.flops_per_request())
        )
    }
}
