//! TCP server lifecycle: per-connection pipelining, connection-thread
//! reaping, rate limiting, and the shutdown race.
//!
//! Four regressions pinned here:
//!
//! * the accept loop used to push one `JoinHandle` per connection into
//!   a vec it never drained — connection churn grew server memory
//!   forever (now reaped each poll tick, visible as the
//!   `open_connections` gauge);
//! * shutdown used to wake its own blocking `accept` with a
//!   self-connect, silently *discarding* a legitimate client that won
//!   the accept race (and hanging forever if the self-connect failed)
//!   — now a non-blocking accept loop refuses late connections with an
//!   explicit `engine is shutting down` line;
//! * responses used to be written inline by the reader thread, one
//!   round-trip at a time — now a client may pipeline many requests
//!   and match replies by id;
//! * request lines used to be read without a length cap — one line
//!   with no newline grew the connection's buffer without bound — now
//!   a line past 64 KiB is refused and its connection closed.

use groupsa_core::{DataContext, GroupSa, GroupSaConfig};
use groupsa_data::synthetic::{generate, SyntheticConfig};
use groupsa_serve::engine::{Engine, EngineConfig};
use groupsa_serve::protocol::{Request, Response, ServeMode, Target};
use groupsa_serve::server::{self, ServerConfig};
use groupsa_serve::FrozenModel;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn frozen_world(seed: u64) -> Arc<FrozenModel> {
    let dataset = generate(&SyntheticConfig {
        name: format!("serve-lifecycle-{seed}"),
        seed,
        num_users: 60,
        num_items: 40,
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
    let model = GroupSa::new(GroupSaConfig::tiny(), dataset.num_users, dataset.num_items);
    Arc::new(FrozenModel::freeze(model, ctx))
}

/// Boots a server thread; returns its address, the engine, and the
/// join handle (joining it proves `run` returned).
fn boot(
    frozen: Arc<FrozenModel>,
    cfg: ServerConfig,
) -> (SocketAddr, Arc<Engine>, std::thread::JoinHandle<std::io::Result<()>>) {
    let engine = Engine::start(frozen, EngineConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || server::run_with(listener, engine, cfg))
    };
    (addr, engine, handle)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, request: &Request) {
    let mut text = groupsa_json::to_string(request);
    text.push('\n');
    stream.write_all(text.as_bytes()).expect("write request");
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read response line");
    assert!(n > 0, "connection closed before a response arrived");
    groupsa_json::from_str::<Response>(&line).expect("parse response")
}

fn recommend(id: u64, user: usize) -> Request {
    Request::Recommend {
        id,
        target: Target::User { id: user },
        k: 5,
        exclude_seen: false,
        mode: ServeMode::Voting,
        deadline_ms: 0,
    }
}

fn shutdown_server(addr: SocketAddr) {
    let (mut stream, mut reader) = connect(addr);
    send_line(&mut stream, &Request::Shutdown { id: 0 });
    assert!(matches!(read_response(&mut reader), Response::Bye { id: 0 }));
}

/// One connection, many requests in flight: write every request line
/// before reading anything, then match responses to requests by id.
/// Responses arrive in completion order (not necessarily submission
/// order) and each is byte-identical to direct frozen-model scoring.
#[test]
fn pipelined_requests_are_all_answered_and_matched_by_id() {
    let frozen = frozen_world(51);
    let (addr, _engine, server) = boot(Arc::clone(&frozen), ServerConfig::default());
    let (mut stream, mut reader) = connect(addr);

    let n = 24u64;
    for id in 0..n {
        send_line(&mut stream, &recommend(id, (id as usize * 7) % 60));
    }
    let mut answered: HashMap<u64, Response> = HashMap::new();
    for _ in 0..n {
        let resp = read_response(&mut reader);
        let Response::Recommend { id, .. } = resp else { panic!("unexpected {resp:?}") };
        assert!(answered.insert(id, resp).is_none(), "duplicate response for id {id}");
    }
    for id in 0..n {
        let resp = answered.get(&id).expect("every id answered exactly once");
        let items = frozen
            .recommend(
                Target::User { id: (id as usize * 7) % 60 },
                5,
                false,
                groupsa_core::GroupMode::Voting,
            )
            .expect("direct scoring");
        assert_eq!(
            groupsa_json::to_string(resp),
            groupsa_json::to_string(&Response::Recommend { id, items }),
            "response bytes must match direct scoring for id {id}"
        );
    }

    // Control traffic rides the same pipe: a Stats query on the same
    // connection still gets answered.
    send_line(&mut stream, &Request::Stats { id: 9_999 });
    assert!(matches!(read_response(&mut reader), Response::Stats { id: 9_999, .. }));

    shutdown_server(addr);
    server.join().expect("server thread").expect("server run");
}

/// Connection churn must not grow the server: after many short-lived
/// connections have closed, the reaped `open_connections` gauge drops
/// back to (at most) the one live stats connection, while the
/// historical max proves the gauge was actually tracking them.
#[test]
fn connection_churn_is_reaped_not_accumulated() {
    let (addr, _engine, server) = boot(frozen_world(52), ServerConfig::default());

    let churn = 20u64;
    for id in 0..churn {
        let (mut stream, mut reader) = connect(addr);
        send_line(&mut stream, &recommend(id, (id as usize) % 60));
        assert!(matches!(read_response(&mut reader), Response::Recommend { .. }));
    }

    // Give the accept loop a few poll ticks to reap the closed
    // connections, then observe the gauge over a fresh connection.
    std::thread::sleep(Duration::from_millis(100));
    let (mut stream, mut reader) = connect(addr);
    std::thread::sleep(Duration::from_millis(50));
    send_line(&mut stream, &Request::Stats { id: 1 });
    let resp = read_response(&mut reader);
    let Response::Stats { stats, .. } = resp else { panic!("unexpected {resp:?}") };
    assert!(
        stats.open_connections <= 2,
        "closed connections must be reaped, gauge says {} open",
        stats.open_connections
    );
    assert!(stats.max_open_connections >= 1, "{stats:?}");

    shutdown_server(addr);
    server.join().expect("server thread").expect("server run");
}

/// The shutdown race: a client that connects around the moment another
/// client requests shutdown must be *answered* — with real responses
/// or an explicit `engine is shutting down` line — never silently
/// dropped, and `run` must return promptly regardless.
#[test]
fn clients_racing_shutdown_are_answered_not_discarded() {
    let (addr, _engine, server) = boot(frozen_world(53), ServerConfig::default());

    // A connected-but-idle client: shutdown must not wait forever for
    // it to hang up (the grace period severs it).
    let (idle_stream, mut idle_reader) = connect(addr);

    shutdown_server(addr);

    // Post-shutdown connection attempts: either refused outright (the
    // listener is gone) or answered with the typed refusal line.
    match TcpStream::connect(addr) {
        Err(_) => {} // server already exited; acceptable
        Ok(stream) => {
            stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => {} // severed without a line: connection was never accepted
                Ok(_) => {
                    let resp = groupsa_json::from_str::<Response>(&line).expect("parse refusal");
                    assert!(
                        matches!(resp, Response::Error { ref error, .. } if error.contains("shutting down")),
                        "late client must get the typed refusal, got {resp:?}"
                    );
                }
                Err(_) => {} // reset mid-handshake: also a refusal, not a hang
            }
        }
    }

    // The idle client is severed by the grace period rather than
    // keeping the server alive: its next read sees EOF or an error
    // within the read timeout, not a hang.
    drop(idle_stream);
    let mut line = String::new();
    let _ = idle_reader.read_line(&mut line);

    // The regression's real victim: `run` used to block forever when
    // the self-connect wake-up failed. Joining proves it returned.
    server.join().expect("server thread").expect("server run");
}

/// Per-connection token-bucket rate limiting: a client bursting past
/// its budget gets `rate limited` answers (echoing the request id)
/// while admitted requests still complete; limited requests are
/// counted on their own gauge and never as submitted work.
#[test]
fn rate_limited_requests_get_typed_refusals() {
    let (addr, engine, server) =
        boot(frozen_world(54), ServerConfig { rate_limit: 1, rate_burst: 3 });
    let (mut stream, mut reader) = connect(addr);

    let n = 10u64;
    for id in 0..n {
        send_line(&mut stream, &recommend(id, (id as usize) % 60));
    }
    let mut ok = 0u64;
    let mut limited = 0u64;
    for _ in 0..n {
        match read_response(&mut reader) {
            Response::Recommend { .. } => ok += 1,
            Response::Error { id, ref error } if error == "rate limited" => {
                assert!(id < n, "limited reply echoes the request id");
                limited += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(ok >= 1, "burst capacity admits something");
    assert!(limited >= 1, "a 10-request burst at burst=3 must trip the limiter");

    let stats = engine.stats();
    assert_eq!(stats.limited, limited);
    assert_eq!(stats.submitted, ok, "limited requests are never submitted to the engine");

    shutdown_server(addr);
    server.join().expect("server thread").expect("server run");
}

/// A request line that never ends must not grow the server: a peer
/// streaming 1 MiB with no newline gets exactly one `BadRequest`
/// (id 0) and then EOF, and the server keeps serving new connections.
#[test]
fn overlong_request_line_is_refused_and_the_connection_closed() {
    let (addr, _engine, server) = boot(frozen_world(55), ServerConfig::default());
    let (stream, mut reader) = connect(addr);

    // The server stops reading after the cap, so the write side may
    // block and then fail once the connection is gone: keep it off the
    // reading thread and ignore its outcome.
    let mut flood = stream.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'a'; 1 << 20]);
    });
    match read_response(&mut reader) {
        Response::Error { id: 0, ref error } if error.starts_with("bad request") => {}
        other => panic!("unexpected {other:?}"),
    }
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("read after refusal"), 0, "expected EOF, got {rest:?}");
    drop(stream);
    writer.join().expect("flood writer");

    let (mut fresh, mut fresh_reader) = connect(addr);
    send_line(&mut fresh, &recommend(7, 3));
    assert!(matches!(read_response(&mut fresh_reader), Response::Recommend { id: 7, .. }));

    shutdown_server(addr);
    server.join().expect("server thread").expect("server run");
}
