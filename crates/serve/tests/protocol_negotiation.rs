//! End-to-end tests for wire-protocol negotiation: new clients against
//! old servers, old clients against new servers, pipelined
//! out-of-order completion, and dedup-batched admission. The invariant
//! throughout is the protocol-upgrade contract — *no encoding or
//! batching choice ever changes an answer*, only how fast it arrives.

use std::net::TcpListener;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use fm_autotune::{TunedMapping, Tuner};
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::value::Value;
use fm_serve::protocol::{
    decode_request, read_frame, write_response, FailReply, Request, Response, TuneRequest,
    WireCandidate, DEFAULT_MAX_FRAME,
};
use fm_serve::protocol::{decode_response, encode_response, write_request};
use fm_serve::server::{Server, ServerConfig};
use fm_serve::Client;

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("nego-wide", 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

fn affine_candidates(n: usize, cols: u32) -> Vec<WireCandidate> {
    (0..n)
        .map(|i| {
            let w = (i as i64 % cols as i64) + 1;
            WireCandidate {
                label: format!("fold-{i}-w{w}"),
                mapping: Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::ModC(Box::new(IdxExpr::i()), w)),
                    time: IdxExpr::i().div(w),
                }),
            }
        })
        .collect()
}

fn tune_request(graph: &DataflowGraph, machine: &MachineConfig, ncand: usize) -> TuneRequest {
    TuneRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        fom: FigureOfMerit::Time,
        candidates: affine_candidates(ncand, machine.cols),
        deadline_ms: None,
        max_candidates: None,
        convergence_window: None,
        refinement: None,
        use_cache: false,
        cost_model: None,
    }
}

fn direct_winner(graph: &DataflowGraph, machine: &MachineConfig, ncand: usize) -> TunedMapping {
    let evaluator = Evaluator::new(graph, machine);
    let candidates: Vec<MappingCandidate> = affine_candidates(ncand, machine.cols)
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    Tuner::new(&evaluator, graph, machine, FigureOfMerit::Time)
        .tune(&candidates)
        .best
        .expect("direct tuner found a winner")
}

fn assert_same_winner(served: &TunedMapping, expected: &TunedMapping) {
    assert_eq!(served.label, expected.label);
    assert_eq!(served.score.to_bits(), expected.score.to_bits());
    assert_eq!(served.resolved, expected.resolved);
}

/// An "old" server: strict JSON decoding (the pre-negotiation
/// `decode_request`), so a `Hello` — an enum variant it has never
/// heard of — draws a protocol failure and a closed connection,
/// exactly like the previous release's server code. Later connections
/// are served plain JSON.
fn start_old_server() -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        // Serve a bounded number of connections, then exit.
        for _ in 0..4 {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            while let Ok(payload) = read_frame(&mut conn, DEFAULT_MAX_FRAME) {
                match decode_request(&payload) {
                    Ok(Request::Ping) => {
                        if write_response(&mut conn, &Response::Pong).is_err() {
                            break;
                        }
                    }
                    Ok(Request::Shutdown) => {
                        let _ = write_response(&mut conn, &Response::ShuttingDown);
                        return;
                    }
                    Ok(_) => {
                        let _ = write_response(
                            &mut conn,
                            &Response::Failed(FailReply {
                                kind: "internal".to_string(),
                                error: "unsupported in the stub".to_string(),
                            }),
                        );
                    }
                    Err(e) => {
                        // The old server's behavior verbatim: report
                        // the protocol error and hang up.
                        let _ = write_response(
                            &mut conn,
                            &Response::Failed(FailReply {
                                kind: "protocol".to_string(),
                                error: e.to_string(),
                            }),
                        );
                        break;
                    }
                }
            }
        }
    });
    (addr, handle)
}

/// Satellite fix under test: a new client dialing a server that
/// predates negotiation must degrade to JSON transparently — the
/// caller just sees a working connection.
#[test]
fn new_client_falls_back_to_json_against_old_server() {
    let (addr, server) = start_old_server();
    let mut client = Client::connect(&addr).expect("connect with fallback");
    assert!(
        !client.is_binary() && !client.is_pipelined(),
        "an old server cannot have negotiated binary"
    );
    client
        .ping()
        .expect("JSON ping through the fallback client");
    let _ = client.shutdown();
    let _ = server.join();
}

#[test]
fn old_client_is_served_json_by_new_server() {
    let graph = wide(12);
    let machine = MachineConfig::linear(6);
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();

    // `connect_json` is byte-for-byte the old client's behavior: no
    // Hello, pure JSON frames.
    let mut client = Client::connect_json(server.local_addr()).unwrap();
    assert!(!client.is_binary());
    let reply = client.tune(tune_request(&graph, &machine, 16)).unwrap();
    assert_same_winner(
        &reply.best.expect("winner over JSON"),
        &direct_winner(&graph, &machine, 16),
    );
    client.ping().unwrap();

    let stats = server.shutdown_and_join();
    assert_eq!(
        stats.binary_connections, 0,
        "an un-negotiated connection must not be counted as binary"
    );
    assert!(stats.json_requests >= 2, "tune + ping arrived as JSON");
    assert_eq!(stats.binary_requests, 0);
}

#[test]
fn negotiated_binary_winner_is_bit_identical_to_json() {
    let graph = wide(12);
    let machine = MachineConfig::linear(6);
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut json_client = Client::connect_json(server.local_addr()).unwrap();
    let mut bin_client = Client::connect(server.local_addr()).unwrap();
    assert!(bin_client.is_binary(), "new server must negotiate binary");
    assert!(bin_client.is_pipelined());

    let json_reply = json_client
        .tune(tune_request(&graph, &machine, 16))
        .unwrap();
    let bin_reply = bin_client.tune(tune_request(&graph, &machine, 16)).unwrap();
    let direct = direct_winner(&graph, &machine, 16);
    assert_same_winner(&json_reply.best.expect("JSON winner"), &direct);
    assert_same_winner(&bin_reply.best.expect("binary winner"), &direct);

    let stats = server.shutdown_and_join();
    assert!(stats.binary_connections >= 1);
    assert!(stats.binary_requests >= 1);
    assert!(stats.json_requests >= 1);
}

/// Pipelining means replies come back in completion order: a cheap
/// inline request (Ping) queued *behind* an expensive Tune on the same
/// connection overtakes it.
#[test]
fn pipelined_replies_complete_out_of_order() {
    let graph = wide(48);
    let machine = MachineConfig::linear(8);
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.is_pipelined());

    // Two Tunes on one worker: the first runs while the second queues,
    // so both sit in the in-flight ledger at once (peak >= 2). The
    // inline Ping behind them overtakes both.
    let tune_a = client
        .send_request(&Request::Tune(tune_request(&graph, &machine, 24)))
        .unwrap();
    let tune_b = client
        .send_request(&Request::Tune(tune_request(&graph, &machine, 24)))
        .unwrap();
    let ping_corr = client.send_request(&Request::Ping).unwrap();
    assert_ne!(tune_a, ping_corr);
    assert_ne!(tune_a, tune_b);

    let (first, first_resp) = client.recv_response().unwrap();
    assert_eq!(
        first, ping_corr,
        "the inline Ping must overtake the queued Tunes"
    );
    assert!(matches!(first_resp, Response::Pong));
    let direct = direct_winner(&graph, &machine, 24);
    for _ in 0..2 {
        let (corr, resp) = client.recv_response().unwrap();
        assert!(corr == tune_a || corr == tune_b);
        match resp {
            Response::Tuned(r) => assert_same_winner(&r.best.expect("pipelined winner"), &direct),
            other => panic!("expected Tuned, got {}", other.kind()),
        }
    }

    let stats = server.shutdown_and_join();
    assert!(
        stats.inflight_peak >= 2,
        "both requests were in flight at once (peak {})",
        stats.inflight_peak
    );
}

/// Tentpole: identical Tunes queued together collapse into one search
/// whose answer fans out — every waiter gets the bit-identical winner
/// the search it skipped would have produced, and the books still
/// reconcile per request.
#[test]
fn duplicate_tunes_collapse_into_one_search() {
    const DUPES: u64 = 8;
    let graph = wide(32);
    let machine = MachineConfig::linear(8);
    let config = ServerConfig {
        workers: 1, // one worker: the first Tune runs while the rest queue
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let request = Request::Tune(tune_request(&graph, &machine, 24));
    let corrs: Vec<u64> = (0..DUPES)
        .map(|_| client.send_request(&request).unwrap())
        .collect();

    let direct = direct_winner(&graph, &machine, 24);
    let mut answered = Vec::new();
    for _ in 0..DUPES {
        let (corr, resp) = client.recv_response().unwrap();
        match resp {
            Response::Tuned(r) => {
                assert_same_winner(&r.best.expect("deduped winner"), &direct);
                answered.push(corr);
            }
            other => panic!("expected Tuned, got {}", other.kind()),
        }
    }
    answered.sort_unstable();
    let mut expected = corrs.clone();
    expected.sort_unstable();
    assert_eq!(answered, expected, "every duplicate got its own reply");

    let stats = server.shutdown_and_join();
    assert!(
        stats.dedup_batches >= 1,
        "queued duplicates should have been coalesced"
    );
    assert!(stats.dedup_waiters_served >= 1);
    assert_eq!(
        stats.tune.received, DUPES,
        "per-request accounting must survive dedup"
    );
    assert_eq!(stats.tune.completed, DUPES);
}

/// Dedup off is a real knob: the same duplicate burst runs every
/// search individually and still answers identically.
#[test]
fn dedup_off_still_answers_every_duplicate_identically() {
    const DUPES: u64 = 4;
    let graph = wide(16);
    let machine = MachineConfig::linear(8);
    let config = ServerConfig {
        workers: 1,
        dedup_tunes: false,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let request = Request::Tune(tune_request(&graph, &machine, 12));
    for _ in 0..DUPES {
        client.send_request(&request).unwrap();
    }
    let direct = direct_winner(&graph, &machine, 12);
    for _ in 0..DUPES {
        let (_, resp) = client.recv_response().unwrap();
        match resp {
            Response::Tuned(r) => assert_same_winner(&r.best.expect("winner"), &direct),
            other => panic!("expected Tuned, got {}", other.kind()),
        }
    }

    let stats = server.shutdown_and_join();
    assert_eq!(stats.dedup_batches, 0, "dedup was off");
    assert_eq!(stats.dedup_waiters_served, 0);
}

/// Shutdown drains a pipelined connection: requests admitted before
/// the drain still get their replies through the writer thread.
#[test]
fn shutdown_drains_pipelined_inflight_replies() {
    let graph = wide(24);
    let machine = MachineConfig::linear(8);
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let t1 = client
        .send_request(&Request::Tune(tune_request(&graph, &machine, 16)))
        .unwrap();
    let t2 = client
        .send_request(&Request::Tune(tune_request(&graph, &machine, 16)))
        .unwrap();
    let shut = client.send_request(&Request::Shutdown).unwrap();

    let mut seen = std::collections::HashSet::new();
    for _ in 0..3 {
        let (corr, resp) = client.recv_response().unwrap();
        match resp {
            Response::Tuned(_) => assert!(corr == t1 || corr == t2),
            Response::ShuttingDown => assert_eq!(corr, shut),
            other => panic!("unexpected response {}", other.kind()),
        }
        seen.insert(corr);
    }
    assert_eq!(seen.len(), 3, "all three replies delivered through drain");
    // Give the listener a beat, then confirm the server really exited.
    server.join();
    thread::sleep(Duration::from_millis(10));
}

/// A connection that never negotiated keeps one request in flight: a
/// Ping written right behind a running Tune waits for it, and both
/// replies come back as JSON, in request order — the only order a
/// client without correlation ids can match.
#[test]
fn unnegotiated_connection_answers_json_in_request_order() {
    let graph = wide(48);
    let machine = MachineConfig::linear(8);
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_request(
        &mut stream,
        &Request::Tune(tune_request(&graph, &machine, 24)),
    )
    .unwrap();
    write_request(&mut stream, &Request::Ping).unwrap();

    let first = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    let second = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&first) {
        Ok(Response::Tuned(r)) => assert_same_winner(
            &r.best.expect("winner over JSON"),
            &direct_winner(&graph, &machine, 24),
        ),
        other => panic!("expected Tuned before Pong, got {other:?}"),
    }
    assert_eq!(
        second,
        encode_response(&Response::Pong),
        "the Ping is answered second, in JSON"
    );
    server.shutdown_and_join();
}
