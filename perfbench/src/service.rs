//! The service phase of both serving workloads: requests of the mix
//! run one at a time on the benchmark's own thread, straight through
//! the program's request path, each timed by that thread's CPU clock.
//! With no queue and no other thread on the path, a request's CPU time
//! is its service time: the latency an idle server would give it.

use crate::mix::{check, same_bits, Kind, Mix};
use crate::util::{median, now, num, thread_cpu_s, Outcome};
use groupsa_core::Recommendation;
use groupsa_serve::{FrozenModel, RecommendRequest, Request, Response};
use std::collections::HashMap;
use std::time::Duration;

/// The NDJSON line a client sends for `req`.
pub fn line_of(req: &RecommendRequest) -> String {
    let mut line = groupsa_json::to_string(&Request::Recommend {
        id: req.id,
        target: req.target,
        k: req.k,
        exclude_seen: req.exclude_seen,
        mode: req.mode,
        deadline_ms: req.deadline_ms,
    });
    line.push('\n');
    line
}

/// The response the program gives `req`.
fn recommend(frozen: &FrozenModel, req: &RecommendRequest) -> Response {
    match frozen.recommend(req.target, req.k, req.exclude_seen, req.mode.group_mode()) {
        Ok(items) => Response::Recommend { id: req.id, items },
        Err(error) => Response::Error { id: req.id, error },
    }
}

/// One request as the server handles it: its NDJSON line decoded,
/// recommended, and the response encoded.
fn serve_line(frozen: &FrozenModel, line: &str) -> Result<(Response, String), String> {
    let req = match groupsa_json::from_str::<Request>(line.trim_end()) {
        Ok(Request::Recommend {
            id,
            target,
            k,
            exclude_seen,
            mode,
            deadline_ms,
        }) => RecommendRequest {
            id,
            target,
            k,
            exclude_seen,
            mode,
            deadline_ms,
        },
        Ok(other) => return Err(format!("decoded {other:?}, not a recommend request")),
        Err(e) => return Err(format!("decode failed: {e}")),
    };
    let response = recommend(frozen, &req);
    let encoded = groupsa_json::to_string(&response);
    Ok((response, encoded))
}

/// Service CPU times (µs) of the requests one phase ran, in order,
/// with each request's kind.
pub struct Service {
    pub cpu_us: Vec<f64>,
    pub kinds: Vec<Kind>,
}

impl Service {
    /// Median service time (µs) of one request kind.
    pub fn kind_median(&self, kind: Kind) -> f64 {
        let of: Vec<f64> = self
            .cpu_us
            .iter()
            .zip(&self.kinds)
            .filter(|(_, &k)| k == kind)
            .map(|(&us, _)| us)
            .collect();
        median(&of)
    }

    pub fn by_kind_json(&self) -> String {
        let parts: Vec<String> = Kind::ALL
            .iter()
            .map(|&k| format!("\"{}\":{}", k.name(), num(self.kind_median(k))))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Runs requests `0, 1, …` of `mix` for `budget` of wall
/// time and returns each one's service CPU time in µs. `wire` puts the
/// NDJSON decode and encode on the path. Every response is checked;
/// one the load phase kept (in `served`) must match it bit for bit.
pub fn run(
    frozen: &FrozenModel,
    mix: &Mix,
    wire: bool,
    budget: Duration,
    served: &HashMap<u64, Vec<Recommendation>>,
    out: &mut Outcome,
) -> Service {
    let ctx = frozen.context();
    let end = now() + budget;
    let mut service = Service {
        cpu_us: Vec::new(),
        kinds: Vec::new(),
    };
    let mut id = 0;
    while now() < end {
        let req = mix.request(id);
        id += 1;
        out.attempted += 1;
        let (spent, response) = if wire {
            let line = line_of(&req);
            let started = thread_cpu_s();
            let handled = serve_line(frozen, &line);
            let spent = thread_cpu_s() - started;
            match handled {
                Ok((response, encoded)) => {
                    std::hint::black_box(encoded);
                    (spent, response)
                }
                Err(e) => {
                    out.fail(format!("request {}: {e}", req.id));
                    continue;
                }
            }
        } else {
            let started = thread_cpu_s();
            let response = recommend(frozen, &req);
            (thread_cpu_s() - started, response)
        };
        match check(&req, &response, ctx) {
            Ok(items) => {
                if let Some(kept) = served.get(&req.id) {
                    if !same_bits(kept, items) {
                        out.fail(format!(
                            "request {}: served ranking differs from the direct call's",
                            req.id
                        ));
                        continue;
                    }
                }
                service.cpu_us.push(spent * 1e6);
                service.kinds.push(Kind::of(&req));
            }
            Err(e) => out.fail(e),
        }
    }
    service
}

