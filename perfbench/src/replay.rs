//! The traced request path: one request executed by the benchmark
//! through the public layer functions FrozenModel::recommend is built
//! from (decode → fetch → score chunk → top-k → encode), each call
//! inside a span, then checked bit for bit against a direct
//! FrozenModel::recommend call on the same request.

use crate::mix::{same_bits, Kind};
use crate::spans::Tracer;
use crate::util::{median, now, num};
use groupsa_core::{DataContext, GroupMode, GroupSa, TopK};
use groupsa_serve::{FrozenModel, RecommendRequest, Request, Response, Target};
use groupsa_snapshot::{TableRef, TableStore};
use groupsa_tensor::Matrix;

/// Candidates per scoring call; the program's `SCAN_CHUNK`.
const SCAN_CHUNK: usize = 256;

/// Per-kind sums over replayed requests.
#[derive(Default)]
pub struct KindStats {
    pub requests: u64,
    pub decode_ns: u64,
    pub fetch_ns: u64,
    pub score_ns: u64,
    pub topk_ns: u64,
    pub encode_ns: u64,
    /// Candidate items scored.
    pub items: u64,
    /// Tower rows scored (items × members for the stacked path).
    pub rows: u64,
    pub reads: u64,
    pub read_bytes: u64,
    pub response_bytes: u64,
    /// Direct FrozenModel::recommend time per request (µs).
    pub direct_us: Vec<f64>,
    /// Direct time net of the replayed fetch, score and top-k children
    /// (µs): the orchestration FrozenModel::recommend adds itself.
    pub frozen_self_us: Vec<f64>,
}

impl KindStats {
    fn per(&self, ns: u64, by: u64) -> f64 {
        ns as f64 / by.max(1) as f64
    }

    pub fn fetch_ns_per_read(&self) -> f64 {
        self.per(self.fetch_ns, self.reads)
    }

    pub fn score_ns_per_row(&self) -> f64 {
        self.per(self.score_ns, self.rows)
    }

    /// Mean per-request layer time (µs): the direct call (fetch, score,
    /// top-k and its own orchestration), plus decode and encode when
    /// the request crossed the wire.
    fn layer_sum_us(&self, wire: bool) -> f64 {
        let n = self.requests.max(1) as f64;
        let protocol = if wire {
            (self.decode_ns + self.encode_ns) as f64 / 1e3 / n
        } else {
            0.0
        };
        protocol + crate::util::mean(&self.direct_us)
    }
}

pub struct Replay<'a> {
    frozen: &'a FrozenModel,
    tables: &'a dyn TableStore,
    /// Whether requests arrive as NDJSON lines (decode is on the path).
    wire: bool,
    stats: [KindStats; 3],
}

fn idx(kind: Kind) -> usize {
    kind as usize
}

impl<'a> Replay<'a> {
    pub fn new(frozen: &'a FrozenModel, tables: &'a dyn TableStore, wire: bool) -> Self {
        Replay {
            frozen,
            tables,
            wire,
            stats: Default::default(),
        }
    }

    fn model(&self) -> &GroupSa {
        self.frozen.model()
    }

    fn ctx(&self) -> &DataContext {
        self.frozen.context()
    }

    /// Replays `req` under a `request` root span. Returns an error
    /// when the replayed ranking differs from the direct call's.
    pub fn run(&mut self, req: &RecommendRequest, tracer: &mut Tracer) -> Result<(), String> {
        let kind = Kind::of(req);
        let id = req.id;
        let d = self.tables.dim();
        // One untimed direct call first, so the replay and the timed
        // direct call below both find the request's rows in cache.
        let _ = self
            .frozen
            .recommend(req.target, req.k, req.exclude_seen, req.mode.group_mode());
        let root = tracer.open("request", id, None);
        let mut s = KindStats::default();

        if self.wire {
            let line = groupsa_json::to_string(&Request::Recommend {
                id,
                target: req.target,
                k: req.k,
                exclude_seen: req.exclude_seen,
                mode: req.mode,
                deadline_ms: req.deadline_ms,
            });
            let span = tracer.open("decode", id, Some(root));
            let parsed = groupsa_json::from_str::<Request>(&line);
            tracer.close(span);
            s.decode_ns = tracer.duration_ns(span);
            parsed.map_err(|e| format!("request {id}: decode failed: {e}"))?;
        }

        let fetch = tracer.open("fetch", id, Some(root));
        let fetched = self.fetch(req);
        tracer.close(fetch);
        s.fetch_ns = tracer.duration_ns(fetch);
        let fetched = fetched?;
        s.reads = fetched.reads;
        s.read_bytes = (fetched.rows * d * 4) as u64;

        let keep = |i: usize| {
            !req.exclude_seen
                || match req.target {
                    Target::User { id } => !self.ctx().user_item_graph.has_interaction(id, i),
                    Target::Group { id } => !self.ctx().group_item_graph.has_interaction(id, i),
                }
        };
        let candidates: Vec<usize> = (0..self.ctx().num_items).filter(|&i| keep(i)).collect();
        let mut acc = TopK::new(req.k);
        for chunk in candidates.chunks(SCAN_CHUNK) {
            let span = tracer.open("score", id, Some(root));
            let scores = self.score(req, &fetched, chunk);
            tracer.close(span);
            s.score_ns += tracer.duration_ns(span);
            s.items += chunk.len() as u64;
            s.rows += (chunk.len() * fetched.members.max(1)) as u64;
            let span = tracer.open("topk", id, Some(root));
            push(&mut acc, req, chunk, &scores);
            tracer.close(span);
            s.topk_ns += tracer.duration_ns(span);
        }
        let span = tracer.open("topk", id, Some(root));
        let items = acc.into_sorted();
        tracer.close(span);
        s.topk_ns += tracer.duration_ns(span);

        let span = tracer.open("encode", id, Some(root));
        let line = groupsa_json::to_string(&Response::Recommend {
            id,
            items: items.clone(),
        });
        tracer.close(span);
        s.encode_ns = tracer.duration_ns(span);
        s.response_bytes = line.len() as u64 + 1;
        tracer.close(root);
        drop(fetched);

        let started = now();
        let direct =
            self.frozen
                .recommend(req.target, req.k, req.exclude_seen, req.mode.group_mode());
        let direct_ns = started.elapsed().as_nanos() as u64;
        let direct = direct.map_err(|e| format!("request {id}: direct recommend failed: {e}"))?;
        if !same_bits(&items, &direct) {
            return Err(format!(
                "request {id}: replayed ranking differs from FrozenModel::recommend"
            ));
        }
        let children = s.fetch_ns + s.score_ns + s.topk_ns;
        s.direct_us.push(direct_ns as f64 / 1e3);
        s.frozen_self_us
            .push((direct_ns as f64 - children as f64) / 1e3);
        s.requests = 1;
        self.add(kind, s);
        Ok(())
    }

    fn add(&mut self, kind: Kind, s: KindStats) {
        let t = &mut self.stats[idx(kind)];
        t.requests += s.requests;
        t.decode_ns += s.decode_ns;
        t.fetch_ns += s.fetch_ns;
        t.score_ns += s.score_ns;
        t.topk_ns += s.topk_ns;
        t.encode_ns += s.encode_ns;
        t.items += s.items;
        t.rows += s.rows;
        t.reads += s.reads;
        t.read_bytes += s.read_bytes;
        t.response_bytes += s.response_bytes;
        t.direct_us.extend(s.direct_us);
        t.frozen_self_us.extend(s.frozen_self_us);
    }

    fn fetch(&self, req: &RecommendRequest) -> Result<Fetched<'a>, String> {
        let err = |e: groupsa_snapshot::SnapshotError| {
            format!("request {}: table read failed: {e}", req.id)
        };
        let tables: &'a dyn TableStore = self.tables;
        Ok(match req.target {
            Target::User { id } => {
                let latent = tables.user_latent(id).map_err(err)?;
                let rows = latent.as_ref().map_or(0, |m| m.rows());
                Fetched {
                    latents: vec![latent],
                    reps: None,
                    members: 0,
                    reads: 1,
                    rows,
                }
            }
            Target::Group { id } if Kind::of(req) == Kind::Voting => {
                let reps = tables.group_rep(id).map_err(err)?;
                let rows = reps.rows();
                Fetched {
                    latents: Vec::new(),
                    reps: Some(reps),
                    members: 0,
                    reads: 1,
                    rows,
                }
            }
            Target::Group { id } => {
                let members = &self.ctx().members[id];
                let latents: Vec<Option<TableRef<'a>>> = members
                    .iter()
                    .map(|&u| tables.user_latent(u))
                    .collect::<Result<_, _>>()
                    .map_err(err)?;
                let rows = latents
                    .iter()
                    .map(|l| l.as_ref().map_or(0, |m| m.rows()))
                    .sum();
                Fetched {
                    latents,
                    reps: None,
                    members: members.len(),
                    reads: members.len() as u64,
                    rows,
                }
            }
        })
    }

    fn score(
        &self,
        req: &RecommendRequest,
        fetched: &Fetched<'_>,
        chunk: &[usize],
    ) -> Vec<Vec<f32>> {
        let model = self.model();
        match req.target {
            Target::User { id } => {
                let latent: Option<&Matrix> = fetched.latents[0].as_deref();
                vec![model.score_user_items_frozen(id, chunk, latent)]
            }
            Target::Group { id } => match &fetched.reps {
                Some(reps) => vec![model.score_group_items_frozen(reps, chunk)],
                None => {
                    let refs: Vec<Option<&Matrix>> =
                        fetched.latents.iter().map(|l| l.as_deref()).collect();
                    model.score_users_items_frozen(&self.ctx().members[id], &refs, chunk)
                }
            },
        }
    }

    /// Requests replayed in total.
    pub fn requests(&self) -> u64 {
        self.stats.iter().map(|s| s.requests).sum()
    }

    fn total(&self, f: impl Fn(&KindStats) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }

    pub fn topk_ns_per_item(&self) -> f64 {
        self.total(|s| s.topk_ns) as f64 / self.total(|s| s.items).max(1) as f64
    }

    pub fn decode_ns(&self) -> f64 {
        self.total(|s| s.decode_ns) as f64 / self.requests().max(1) as f64
    }

    pub fn encode_ns(&self) -> f64 {
        self.total(|s| s.encode_ns) as f64 / self.requests().max(1) as f64
    }

    pub fn bytes_per_response(&self) -> f64 {
        self.total(|s| s.response_bytes) as f64 / self.requests().max(1) as f64
    }

    pub fn reads_per_request(&self) -> f64 {
        self.total(|s| s.reads) as f64 / self.requests().max(1) as f64
    }

    pub fn read_bytes_per_request(&self) -> f64 {
        self.total(|s| s.read_bytes) as f64 / self.requests().max(1) as f64
    }

    pub fn kind(&self, kind: Kind) -> &KindStats {
        &self.stats[idx(kind)]
    }

    /// Mean per-request layer time over the replayed mix (µs).
    pub fn layer_sum_us(&self) -> f64 {
        let n = self.requests().max(1) as f64;
        self.stats
            .iter()
            .map(|s| s.layer_sum_us(self.wire) * s.requests as f64)
            .sum::<f64>()
            / n
    }

    pub fn json(&self) -> String {
        let kinds: Vec<String> = Kind::ALL
            .iter()
            .map(|&k| {
                let s = self.kind(k);
                format!(
                    "\"{}\":{{\"requests\":{},\"fetch_ns\":{},\"score_ns\":{},\"topk_ns\":{},\"items\":{},\"rows\":{},\
                     \"direct_us_median\":{},\"frozen_self_us_median\":{}}}",
                    k.name(),
                    s.requests,
                    s.fetch_ns,
                    s.score_ns,
                    s.topk_ns,
                    s.items,
                    s.rows,
                    num(median(&s.direct_us)),
                    num(median(&s.frozen_self_us))
                )
            })
            .collect();
        format!("{{{}}}", kinds.join(","))
    }
}

/// Table rows a request read.
struct Fetched<'a> {
    latents: Vec<Option<TableRef<'a>>>,
    reps: Option<TableRef<'a>>,
    /// Members scored through the stacked path (0 otherwise).
    members: usize,
    reads: u64,
    rows: usize,
}

fn push(acc: &mut TopK, req: &RecommendRequest, chunk: &[usize], scores: &[Vec<f32>]) {
    match req.mode.group_mode() {
        GroupMode::Fast(agg) if matches!(req.target, Target::Group { .. }) => {
            for (i, &item) in chunk.iter().enumerate() {
                let column: Vec<f32> = scores.iter().map(|row| row[i]).collect();
                acc.push(item, agg.combine(&column));
            }
        }
        _ => {
            for (&item, &score) in chunk.iter().zip(&scores[0]) {
                acc.push(item, score);
            }
        }
    }
}

/// Replays every request the frozen model can score (groups without
/// members are skipped); returns the number of failed replays.
pub fn replay_all(
    replay: &mut Replay<'_>,
    requests: impl Iterator<Item = RecommendRequest>,
    tracer: &mut Tracer,
    errors: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for req in requests {
        let empty_group =
            matches!(req.target, Target::Group { id } if replay.ctx().members[id].is_empty());
        if empty_group {
            continue;
        }
        if let Err(e) = replay.run(&req, tracer) {
            failed += 1;
            if errors.len() < 8 {
                errors.push(e);
            }
        }
    }
    failed
}
