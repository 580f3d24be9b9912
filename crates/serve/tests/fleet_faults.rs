//! Chaos tests for the sharded-search fleet: real shard servers on
//! ephemeral ports, a real coordinator, and deterministic fault
//! injection in between. The invariant under test is always the same —
//! whatever the fleet survives (dead shards, slow shards, corrupt or
//! stale frames, a full outage), the winning mapping is bit-identical
//! to a single-machine `Tuner::tune` over the same candidates.

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use fm_autotune::{Refinement, TunedMapping, Tuner};
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::value::Value;
use fm_serve::fault::{mix64, FaultAction, FaultPlan, FaultProxy};
use fm_serve::fleet::FleetConfig;
use fm_serve::protocol::{
    decode_request_any, read_frame, write_request, write_response, Request, Response, TuneRequest,
    TuneShardBody, TuneShardReply, WireCandidate, DEFAULT_MAX_FRAME,
};
use fm_serve::server::{Server, ServerConfig, ServerHandle};
use fm_serve::Client;
use proptest::prelude::*;

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("fleet-wide", 32);
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

/// The single-machine reference run the fleet must reproduce exactly.
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

/// Tight timeouts so fault recovery is exercised in test time, not
/// production time. `stream_every` is small enough that every range in
/// these tests produces real part frames.
fn fleet_config(shards: Vec<String>) -> FleetConfig {
    let mut f = FleetConfig::new(shards);
    f.connect_timeout = Duration::from_millis(200);
    f.attempt_timeout = Duration::from_secs(3);
    f.attempts = 3;
    f.backoff_base = Duration::from_millis(5);
    f.backoff_max = Duration::from_millis(40);
    f.hedge_after = None;
    f.breaker_threshold = 2;
    f.breaker_cooldown = Duration::from_millis(300);
    f.stream_every = Some(4);
    f
}

fn start_shards(n: usize) -> Vec<ServerHandle> {
    (0..n)
        .map(|_| Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind shard"))
        .collect()
}

fn start_coordinator(fleet: FleetConfig) -> ServerHandle {
    let config = ServerConfig {
        fleet: Some(fleet),
        ..ServerConfig::default()
    };
    Server::start("127.0.0.1:0", config).expect("bind coordinator")
}

/// An address that is bound, then immediately released: connecting to
/// it is promptly refused, which models a crashed shard.
fn dead_addr() -> String {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().to_string()
}

/// A unique throwaway ledger path (the file need not exist yet).
fn tmp_ledger(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fm-fleet-ledger-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn fleet_tune_is_bit_identical_to_direct_tuner() {
    let graph = wide(16);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(3);
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = start_coordinator(fleet_config(addrs));

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 30)).unwrap();
    assert!(!reply.fell_back);
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 30);
    assert_eq!(reply.cache, "disabled");
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 30),
    );

    let fleet = coord
        .stats()
        .fleet
        .expect("coordinator exports fleet stats");
    assert_eq!(fleet.fleet_tunes, 1);
    assert_eq!(fleet.shards.len(), 3);
    let shard_work: u64 = shards.iter().map(|s| s.stats().tune_shard.received).sum();
    assert!(shard_work >= 1, "no shard ever saw a sub-range");
    // Streaming was on (stream_every = 4, ranges of 10): parts flowed,
    // were merged, and fed the per-shard throughput EWMAs the stats
    // endpoint exports.
    assert!(fleet.parts_merged >= 1, "no streamed part was merged");
    assert_eq!(fleet.parts_discarded, 0);
    assert!(fleet.shards.iter().any(|s| s.parts >= 1));
    assert!(fleet.shards.iter().any(|s| s.ewma_cands_per_sec > 0.0));
    let shard_parts: u64 = shards.iter().map(|s| s.stats().tune_shard_parts).sum();
    assert!(shard_parts >= 1, "shards report emitted parts too");

    coord.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// When no candidate is legal anywhere, the fleet answers with the
/// default-mapper fallback a local tune builds, bit for bit. The ranges
/// report only in-range winners; the coordinator builds the fallback
/// once, for the whole list.
#[test]
fn all_illegal_candidates_fall_back_like_a_local_tune() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    // Every node on PE 0 at the same cycle: twelve issues in one slot.
    let candidates: Vec<WireCandidate> = (0..10)
        .map(|k| WireCandidate {
            label: format!("pile-{k}"),
            mapping: Mapping::Affine(AffineMap {
                place: PlaceExpr::row0(IdxExpr::c(0)),
                time: IdxExpr::c(k),
            }),
        })
        .collect();
    let shards = start_shards(2);
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = start_coordinator(fleet_config(addrs));

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let mut req = tune_request(&graph, &machine, 0);
    req.candidates = candidates.clone();
    let reply = client.tune(req).unwrap();

    let evaluator = Evaluator::new(&graph, &machine);
    let locals: Vec<MappingCandidate> = candidates
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    let direct = Tuner::new(&evaluator, &graph, &machine, FigureOfMerit::Time).tune(&locals);
    assert!(direct.fell_back && direct.best_index.is_none());
    assert!(reply.fell_back);
    assert!(!reply.cancelled);
    assert_eq!((reply.offered, reply.evaluated), (10, 10));
    let (served, expected) = (reply.best.unwrap(), direct.best.unwrap());
    assert_same_winner(&served, &expected);
    assert_eq!(
        format!("{:?}", served.report),
        format!("{:?}", expected.report),
        "the fallback's report, bit for bit"
    );
    // The shards scored both ranges; nothing fell back locally.
    let fleet = coord.stats().fleet.unwrap();
    assert_eq!(fleet.local_fallback_ranges, 0);
    let ranges: u64 = shards.iter().map(|s| s.stats().tune_shard.completed).sum();
    assert_eq!(ranges, 2);

    coord.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

#[test]
fn dead_shard_is_reassigned_without_changing_the_winner() {
    let graph = wide(14);
    let machine = MachineConfig::linear(8);
    let mut shards = start_shards(3);
    let mut addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    // Kill shard 0 before the tune: its address now refuses connects.
    let dead = shards.remove(0);
    addrs[0] = dead.local_addr().to_string();
    dead.shutdown_and_join();

    let coord = start_coordinator(fleet_config(addrs));
    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 24)).unwrap();
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 24);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 24),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(fleet.retries >= 1, "dead shard should force a retry wave");
    assert!(
        fleet.reassignments >= 1,
        "the dead shard's range should land elsewhere"
    );
    assert!(fleet.shards[0].failures >= 1);

    coord.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

#[test]
fn full_outage_degrades_to_local_search() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let coord = start_coordinator(fleet_config(vec![dead_addr(), dead_addr()]));

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert!(!reply.cancelled);
    assert_eq!(
        reply.evaluated, 20,
        "local fallback still sweeps everything"
    );
    assert_same_winner(
        &reply.best.expect("degraded tune found a winner"),
        &direct_winner(&graph, &machine, 20),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(fleet.local_fallback_ranges >= 1);
    assert_eq!(fleet.degraded_tunes, 1, "the whole tune ran locally");

    coord.shutdown_and_join();
}

/// A coordinator with no members takes the range path like any other:
/// its one range runs locally, and it refines the merged winner where
/// it refines every fleet tune. The reply is a plain server's, bit for
/// bit.
#[test]
fn memberless_coordinator_answers_like_a_local_tune() {
    let graph = wide(16);
    let machine = MachineConfig::n5(4, 2);
    let mut req = tune_request(&graph, &machine, 20);
    req.refinement = Some(Refinement {
        chains: 2,
        iters: 60,
        seed: 3,
    });
    let local = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let coord = start_coordinator(FleetConfig::new(vec![]));

    let expected = Client::connect(local.local_addr())
        .unwrap()
        .tune(req.clone())
        .unwrap();
    let served = Client::connect(coord.local_addr())
        .unwrap()
        .tune(req)
        .unwrap();
    let (s, e) = (served.best.unwrap(), expected.best.unwrap());
    assert_same_winner(&s, &e);
    assert_eq!(s.report, e.report);
    assert_eq!(
        (served.offered, served.evaluated, served.pruned),
        (expected.offered, expected.evaluated, expected.pruned)
    );
    assert_eq!(
        (served.fell_back, served.cancelled, &served.cache),
        (expected.fell_back, expected.cancelled, &expected.cache)
    );

    let fleet = coord.stats().fleet.unwrap();
    assert_eq!(fleet.fleet_tunes, 1);
    assert_eq!(fleet.degraded_tunes, 1, "the whole tune ran locally");
    assert_eq!(fleet.local_fallback_ranges, 1, "as one local range");

    coord.shutdown_and_join();
    local.shutdown_and_join();
}

/// Every served tune records its winner in the cost-model observatory:
/// a coordinator counts the fleet tunes it answered, each under the
/// backend it named, and its shards count none.
#[test]
fn coordinator_cost_model_stats_count_its_fleet_tunes() {
    let graph = wide(16);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = start_coordinator(fleet_config(addrs));

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let mut roofline = tune_request(&graph, &machine, 24);
    roofline.cost_model = Some("roofline".to_string());
    for req in [
        tune_request(&graph, &machine, 20),
        tune_request(&graph, &machine, 24),
        roofline,
    ] {
        assert!(client.tune(req).unwrap().best.is_some());
    }

    let stats = coord.stats();
    assert_eq!(stats.fleet.unwrap().fleet_tunes, 3);
    let tunes = |model: &str| {
        let row = stats.cost_models.iter().find(|r| r.model == model);
        row.map_or(0, |r| r.tunes)
    };
    assert_eq!((tunes("analytic"), tunes("roofline")), (2, 1));
    for s in &shards {
        assert!(s.stats().cost_models.is_empty(), "a shard serves no tune");
    }

    coord.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

#[test]
fn corrupt_reply_is_discarded_and_the_range_retried() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    // First connection through the proxy gets its reply payload
    // corrupted (one flipped digit); later connections pass clean.
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::Corrupt]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    // The corrupting proxy flips an ASCII digit, which assumes JSON
    // reply text; pin the links to JSON so the fault stays meaningful.
    let mut config = fleet_config(addrs);
    config.binary_links = false;
    let coord = start_coordinator(config);

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert_eq!(reply.evaluated, 20);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 20),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet.corrupt_discarded >= 1,
        "checksum should catch the flipped digit"
    );
    assert!(fleet.retries >= 1);

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

#[test]
fn mid_reply_disconnect_is_retried() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::DisconnectMidReply]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    let coord = start_coordinator(fleet_config(addrs));

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert_eq!(reply.evaluated, 20);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 20),
    );
    assert!(coord.stats().fleet.unwrap().retries >= 1);

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

#[test]
fn slow_shard_is_hedged() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    // Every connection to shard 0 stalls well past the hedge trigger.
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::Delay(1200); 8]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    let mut config = fleet_config(addrs);
    config.hedge_after = Some(Duration::from_millis(50));
    let coord = start_coordinator(config);

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert_eq!(reply.evaluated, 20);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 20),
    );
    assert!(
        coord.stats().fleet.unwrap().hedges >= 1,
        "the stalled range should have hedged"
    );

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

#[test]
fn stale_epoch_reply_is_discarded() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(1);

    // A "lying" shard: speaks the protocol perfectly — well-formed
    // frame, valid checksum, complete body — but stamps the wrong
    // epoch, as a partitioned or wedged process replaying an old tune
    // would. Only epoch validation can reject it.
    let liar = TcpListener::bind("127.0.0.1:0").unwrap();
    let liar_addr = liar.local_addr().unwrap().to_string();
    thread::spawn(move || {
        for _ in 0..4 {
            let Ok((mut conn, _)) = liar.accept() else {
                return;
            };
            let Ok(payload) = read_frame(&mut conn, DEFAULT_MAX_FRAME) else {
                continue;
            };
            let Ok((_, Request::TuneShard(req), _)) = decode_request_any(&payload) else {
                continue;
            };
            let count = req.candidates.len() as u64;
            let body = TuneShardBody {
                start_index: req.start_index,
                count,
                evaluated: count,
                cancelled: false,
                best: None,
            };
            let reply = TuneShardReply::seal(req.epoch + 777, body);
            let _ = write_response(&mut conn, &Response::TuneSharded(reply));
        }
    });

    let addrs = vec![liar_addr, shards[0].local_addr().to_string()];
    let coord = start_coordinator(fleet_config(addrs));
    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert_eq!(reply.evaluated, 20);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 20),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet.stale_discarded >= 1,
        "the old-epoch reply should have been rejected"
    );

    coord.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Satellite: a client that walks away mid-tune must not leave shards
/// burning cores. Dropping the coordinator connection cancels the
/// coordinator job, which drops its shard connections, which the
/// shards observe as disconnects and abort their sub-searches.
#[test]
fn client_disconnect_cancels_inflight_shard_searches() {
    let graph = wide(48);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(1);
    let addrs = vec![shards[0].local_addr().to_string()];
    let coord = start_coordinator(fleet_config(addrs));

    // Enough candidates that the shard-side search is comfortably
    // still running when the client vanishes.
    let mut stream = TcpStream::connect(coord.local_addr()).unwrap();
    write_request(
        &mut stream,
        &Request::Tune(tune_request(&graph, &machine, 3000)),
    )
    .unwrap();

    // Wait until the work has actually reached the shard...
    let t0 = Instant::now();
    while shards[0].stats().tune_shard.received == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shard never received the sub-range"
        );
        thread::sleep(Duration::from_millis(5));
    }

    // ...then hang up without reading the reply.
    drop(stream);

    // The cancellation must ripple all the way to the shard's metrics.
    let t0 = Instant::now();
    while shards[0].stats().cancelled == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "shard never observed the cancellation"
        );
        thread::sleep(Duration::from_millis(10));
    }

    coord.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Tentpole: when a shard dies *mid-stream*, the parts it already
/// delivered stay merged — only the unfinished suffix is re-dispatched
/// — and the winner is still bit-identical to the direct tuner.
#[test]
fn mid_stream_death_saves_the_prefix_and_redispatches_the_suffix() {
    let graph = wide(14);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    // Shard 0's first connection delivers its first part frame clean,
    // then truncates the second part mid-frame: progress, then death.
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::TruncateFrame(1)]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    let coord = start_coordinator(fleet_config(addrs));

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 24)).unwrap();
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 24, "every candidate scored exactly once");
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 24),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(fleet.parts_merged >= 1, "the clean first part was merged");
    assert!(
        fleet.prefix_candidates_saved >= 4,
        "the dead attempt's streamed prefix was banked, got {}",
        fleet.prefix_candidates_saved
    );
    assert!(
        fleet.suffix_redispatches >= 1,
        "the retry should start at the covered watermark, not range start"
    );

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Tentpole: a corrupted *part* (not terminal) is caught by its own
/// checksum, discarded, and never poisons the merge — while parts
/// delivered clean before it stay merged.
#[test]
fn corrupt_mid_stream_part_is_discarded_without_losing_the_winner() {
    let graph = wide(14);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    // Frame 0 (first part) passes clean; frame 1 (second part) gets one
    // digit flipped. Only the part checksum can tell.
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::CorruptFrame(1)]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    // Digit-flip corruption assumes JSON part text; pin the links.
    let mut config = fleet_config(addrs);
    config.binary_links = false;
    let coord = start_coordinator(config);

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 24)).unwrap();
    assert_eq!(reply.evaluated, 24);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 24),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet.parts_discarded >= 1,
        "the flipped digit should be caught by the part checksum"
    );
    assert!(
        fleet.corrupt_discarded >= 1,
        "and counted as a corruption discard"
    );
    assert!(fleet.parts_merged >= 1, "clean parts still merged");

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// A shard whose *stream* crawls (a stall before every frame) still
/// completes without tripping the per-frame inactivity timeout, because
/// each delivered part resets the attempt clock.
#[test]
fn slow_stream_survives_on_per_frame_progress() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::StallBetweenFrames(60); 4]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    let mut config = fleet_config(addrs);
    // Tighter than the *sum* of the stalls (4 frames × 60 ms), looser
    // than any single one: only the per-frame deadline reset on each
    // delivered part lets this attempt finish.
    config.attempt_timeout = Duration::from_millis(150);
    let coord = start_coordinator(config);

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 24)).unwrap();
    assert_eq!(reply.evaluated, 24);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 24),
    );
    let fleet = coord.stats().fleet.unwrap();
    assert_eq!(
        fleet.retries, 0,
        "per-frame progress should keep the slow stream alive"
    );
    assert_eq!(fleet.local_fallback_ranges, 0);

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Tentpole: shards join and leave a *running* fleet over the wire,
/// each effective change bumps the membership epoch, and tunes before,
/// between, and after the churn all match the direct tuner.
#[test]
fn membership_join_and_leave_reshape_the_fleet_between_tunes() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    let first = shards[0].local_addr().to_string();
    let second = shards[1].local_addr().to_string();
    // Coordinator starts knowing only the first shard.
    let coord = start_coordinator(fleet_config(vec![first.clone()]));
    let mut client = Client::connect(coord.local_addr()).unwrap();

    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert_same_winner(
        &reply.best.expect("single-member fleet found a winner"),
        &direct_winner(&graph, &machine, 20),
    );

    // Admit the second shard mid-flight: epoch bumps, roster grows.
    let joined = client.shard_join(&second).unwrap();
    assert!(joined.changed);
    assert_eq!(joined.epoch, 2);
    assert_eq!(joined.members.len(), 2);
    // Re-admission is idempotent: same roster, same epoch.
    let again = client.shard_join(&second).unwrap();
    assert!(!again.changed);
    assert_eq!(again.epoch, 2);

    let reply = client.tune(tune_request(&graph, &machine, 24)).unwrap();
    assert_same_winner(
        &reply.best.expect("grown fleet found a winner"),
        &direct_winner(&graph, &machine, 24),
    );
    let both_worked = shards
        .iter()
        .all(|s| s.stats().tune_shard.received + s.stats().tune.received >= 1);
    assert!(both_worked, "the admitted shard never saw a sub-range");

    // Retire the founding member; the survivor carries the next tune.
    let left = client.shard_leave(&first).unwrap();
    assert!(left.changed);
    assert_eq!(left.epoch, 3);
    assert_eq!(left.members, vec![second.clone()]);
    let reply = client.tune(tune_request(&graph, &machine, 16)).unwrap();
    assert_same_winner(
        &reply.best.expect("shrunk fleet found a winner"),
        &direct_winner(&graph, &machine, 16),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert_eq!(fleet.membership_epoch, 3);
    assert_eq!(fleet.members, 1);
    assert_eq!(fleet.joins, 1);
    assert_eq!(fleet.leaves, 1);
    assert!(fleet.shards.iter().any(|s| s.departed));

    // A plain shard is not a coordinator: membership requests are a
    // typed illegal-state failure there, not a silent no-op.
    let mut direct = Client::connect(shards[1].local_addr()).unwrap();
    match direct.shard_join("127.0.0.1:9") {
        Err(fm_serve::ClientError::Failed(f)) => assert_eq!(f.kind, "illegal"),
        other => panic!("expected illegal-state failure, got {other:?}"),
    }

    coord.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Tentpole: a shard whose throughput collapses mid-stream (healthy
/// connection, crawling watermark) has its unfinished suffix
/// speculatively re-dispatched to a healthy member — and the winner is
/// still bit-identical to the direct tuner.
#[test]
fn throughput_cliff_redispatches_the_suffix_without_changing_the_winner() {
    let graph = wide(14);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    // Shard 0 streams its first part at full speed (establishing a
    // healthy EWMA and trailing peak), then collapses to 100 ms per
    // candidate — no disconnect, no corruption, just a cliff.
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![
            FaultAction::ThroughputCliff {
                after_frame: 1,
                ms_per_candidate: 100,
            };
            4
        ]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    let mut config = fleet_config(addrs);
    config.hedge_after = None; // isolate the cliff detector
    config.cliff_fraction = 0.5;
    config.cliff_stall = Duration::from_millis(100);
    // Generous per-attempt budget: per-frame progress keeps the sick
    // attempt alive, so only the cliff detector can rescue the range.
    config.attempt_timeout = Duration::from_secs(10);
    let coord = start_coordinator(config);

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 32)).unwrap();
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 32, "every candidate scored exactly once");
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 32),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet.cliff_redispatches >= 1,
        "the collapsed shard's suffix should have been re-dispatched"
    );
    assert_eq!(fleet.parts_discarded, 0, "no sealed part was thrown away");

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// A shard that repeatedly falls off its throughput cliff is
/// quarantined: the cliff detector feeds the circuit breaker, so the
/// chronically collapsing shard's breaker trips open even though none
/// of its attempts ever *failed* — and the winner is still
/// bit-identical to the direct tuner.
#[test]
fn repeated_cliffs_quarantine_the_shard() {
    let graph = wide(14);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![
            FaultAction::ThroughputCliff {
                after_frame: 1,
                ms_per_candidate: 100,
            };
            4
        ]),
    )
    .unwrap();
    let addrs = vec![
        proxy.local_addr().to_string(),
        shards[1].local_addr().to_string(),
    ];
    let mut config = fleet_config(addrs);
    config.hedge_after = None; // isolate the cliff detector
    config.cliff_fraction = 0.5;
    config.cliff_stall = Duration::from_millis(100);
    config.cliff_quarantine_trips = 1; // first collapse quarantines
    config.attempt_timeout = Duration::from_secs(10);
    let coord = start_coordinator(config);

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 32)).unwrap();
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 32, "every candidate scored exactly once");
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 32),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(fleet.cliff_redispatches >= 1, "the cliff never fired");
    assert!(
        fleet.cliff_quarantines >= 1,
        "the repeat offender was never quarantined"
    );
    let sick = fleet
        .shards
        .iter()
        .find(|s| s.cliff_trips >= 1)
        .expect("the collapsed shard's trip counter should be visible in Stats");
    assert!(
        sick.breaker_opens >= 1,
        "quarantine must trip the breaker open, not just count"
    );

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// A cliff trip is charged to the member whose stream stalled. Shard 0
/// dies inside its range's second frame, the retry wave moves the
/// suffix to shard 1, and that attempt stalls: the cliff check must
/// judge shard 1 — the member running the range's primary attempt —
/// not shard 0, the member the partition preferred.
#[test]
fn cliff_trip_is_charged_to_the_member_whose_stream_stalled() {
    let graph = wide(14);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    // Shard 0's first connection streams one part, then truncates the
    // next frame.
    let proxy0 = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::TruncateFrame(1)]),
    )
    .unwrap();
    // Shard 1's first connection serves its own range cleanly; its
    // second — the retried suffix — stalls before every frame.
    let proxy1 = FaultProxy::start(
        shards[1].local_addr(),
        FaultPlan::script(vec![
            FaultAction::Pass,
            FaultAction::StallBetweenFrames(300),
        ]),
    )
    .unwrap();
    let addrs = vec![
        proxy0.local_addr().to_string(),
        proxy1.local_addr().to_string(),
    ];
    let mut config = fleet_config(addrs.clone());
    config.hedge_after = None; // isolate the cliff detector
    config.cliff_fraction = 0.5;
    config.cliff_stall = Duration::from_millis(100);
    config.stream_every = Some(4);
    let coord = start_coordinator(config);

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 32)).unwrap();
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 32, "every candidate scored exactly once");
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 32),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(fleet.retries >= 1, "shard 0's range should have retried");
    assert!(fleet.cliff_redispatches >= 1, "the cliff never fired");
    let trips = |addr: &str| {
        let row = fleet.shards.iter().find(|s| s.addr == addr).unwrap();
        row.cliff_trips
    };
    assert_eq!(
        trips(&addrs[0]),
        0,
        "shard 0's attempt had already failed; it cannot be stalling"
    );
    assert_eq!(trips(&addrs[1]), 1, "the stalled stream was shard 1's");

    coord.shutdown_and_join();
    proxy0.stop();
    proxy1.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Tentpole: retiring a shard *while it owns an in-flight range*
/// abandons the attempt at its covered watermark and re-dispatches only
/// the unfinished suffix to a surviving member.
#[test]
fn departed_shard_mid_tune_redispatches_from_watermark() {
    let graph = wide(14);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    // Shard 0's stream crawls: plenty of wall-clock to retire it while
    // its range is still in flight.
    let proxy = FaultProxy::start(
        shards[0].local_addr(),
        FaultPlan::script(vec![FaultAction::StallBetweenFrames(120); 8]),
    )
    .unwrap();
    let proxy_addr = proxy.local_addr().to_string();
    let addrs = vec![proxy_addr.clone(), shards[1].local_addr().to_string()];
    let mut config = fleet_config(addrs);
    config.attempt_timeout = Duration::from_secs(10);
    let coord = start_coordinator(config);

    let coord_addr = coord.local_addr();
    let tuner_thread = thread::spawn(move || {
        let graph = wide(14);
        let machine = MachineConfig::linear(8);
        let mut client = Client::connect(coord_addr).unwrap();
        client.tune(tune_request(&graph, &machine, 32)).unwrap()
    });

    // Wait until the slow shard actually owns a range...
    let t0 = Instant::now();
    while shards[0].stats().tune_shard.received == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "slow shard never received its sub-range"
        );
        thread::sleep(Duration::from_millis(5));
    }
    // ...then retire it over the wire, mid-tune. Membership requests
    // are never queued, so this lands while the tune still runs.
    let mut admin = Client::connect(coord_addr).unwrap();
    let left = admin.shard_leave(&proxy_addr).unwrap();
    assert!(left.changed);

    let reply = tuner_thread.join().expect("tuner thread panicked");
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 32);
    assert_same_winner(
        &reply.best.expect("fleet found a winner"),
        &direct_winner(&graph, &machine, 32),
    );

    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet.departed_redispatches >= 1,
        "the retired shard's range should re-dispatch, got {fleet:?}"
    );

    coord.shutdown_and_join();
    proxy.stop();
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Tentpole: per-shard EWMA weights persist in the ledger across a
/// coordinator restart — the reborn coordinator starts *weighted*, and
/// its stats say so.
#[test]
fn persisted_weights_survive_coordinator_restart() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let ledger = tmp_ledger("restart");
    let _ = std::fs::remove_file(&ledger);

    let mut config = fleet_config(addrs.clone());
    config.weight_ledger = Some(ledger.clone());
    let coord = start_coordinator(config);
    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 24)).unwrap();
    assert_same_winner(
        &reply.best.expect("first life found a winner"),
        &direct_winner(&graph, &machine, 24),
    );
    let fleet = coord.stats().fleet.unwrap();
    assert!(fleet
        .shards
        .iter()
        .any(|s| s.weight_source == "measured" && s.ewma_cands_per_sec > 0.0));
    coord.shutdown_and_join();

    // Second life, same ledger: weights are warm before any tune.
    let mut config = fleet_config(addrs);
    config.weight_ledger = Some(ledger.clone());
    let coord = start_coordinator(config);
    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet
            .shards
            .iter()
            .all(|s| s.weight_source == "persisted" && s.ewma_cands_per_sec > 0.0),
        "restarted coordinator should start from the ledger, got {fleet:?}"
    );
    // And the warm weights still produce the exact direct-tuner winner.
    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert_same_winner(
        &reply.best.expect("second life found a winner"),
        &direct_winner(&graph, &machine, 20),
    );
    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet.shards.iter().any(|s| s.weight_source == "measured"),
        "fresh samples should overwrite the persisted tag"
    );
    coord.shutdown_and_join();

    let _ = std::fs::remove_file(&ledger);
    for s in shards {
        s.shutdown_and_join();
    }
}

/// Tentpole: a corrupted (or truncated, or wrong-schema) ledger must
/// never take the coordinator down — it falls back to cold weights,
/// serves correctly, and heals the ledger on its next persist.
#[test]
fn corrupt_ledger_falls_back_to_cold_weights() {
    let graph = wide(12);
    let machine = MachineConfig::linear(8);
    let shards = start_shards(2);
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let ledger = tmp_ledger("corrupt");
    std::fs::write(&ledger, b"{\"schema\": 1, \"entries\": [trailing garbage").unwrap();

    let mut config = fleet_config(addrs.clone());
    config.weight_ledger = Some(ledger.clone());
    let coord = start_coordinator(config);
    let fleet = coord.stats().fleet.unwrap();
    assert!(
        fleet.shards.iter().all(|s| s.weight_source == "cold"),
        "a corrupt ledger must read as no ledger, got {fleet:?}"
    );

    let mut client = Client::connect(coord.local_addr()).unwrap();
    let reply = client.tune(tune_request(&graph, &machine, 20)).unwrap();
    assert_same_winner(
        &reply.best.expect("cold-start fleet found a winner"),
        &direct_winner(&graph, &machine, 20),
    );
    coord.shutdown_and_join();

    // The tune's persist overwrote the garbage: the next life is warm.
    let mut config = fleet_config(addrs);
    config.weight_ledger = Some(ledger.clone());
    let coord = start_coordinator(config);
    assert!(coord
        .stats()
        .fleet
        .unwrap()
        .shards
        .iter()
        .all(|s| s.weight_source == "persisted"));
    coord.shutdown_and_join();

    let _ = std::fs::remove_file(&ledger);
    for s in shards {
        s.shutdown_and_join();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: under any seeded fault plan — drops, delays,
    /// truncations, corruptions, mid-reply disconnects, in any order —
    /// the fleet's winner never changes. Plans are finite (connections
    /// beyond the schedule pass clean), retries are bounded, and every
    /// range has the local fallback, so the merged result is always the
    /// full sweep.
    #[test]
    fn seeded_fault_plans_never_change_the_winner(
        seed in any::<u64>(),
        nodes in 4usize..10,
        ncand in 8usize..24,
    ) {
        let graph = wide(nodes);
        let machine = MachineConfig::linear(8);
        let shards = start_shards(2);
        let proxies: Vec<FaultProxy> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                FaultProxy::start(
                    s.local_addr(),
                    FaultPlan::seeded(seed.wrapping_add(i as u64), 5),
                )
                .unwrap()
            })
            .collect();
        let addrs: Vec<String> = proxies.iter().map(|p| p.local_addr().to_string()).collect();
        let coord = start_coordinator(fleet_config(addrs));

        let mut client = Client::connect(coord.local_addr()).unwrap();
        let reply = client.tune(tune_request(&graph, &machine, ncand)).unwrap();
        let expected = direct_winner(&graph, &machine, ncand);
        let served = reply.best.expect("fleet found a winner");

        prop_assert!(!reply.cancelled);
        prop_assert_eq!(reply.evaluated, ncand as u64);
        prop_assert_eq!(&served.label, &expected.label);
        prop_assert_eq!(served.score.to_bits(), expected.score.to_bits());
        prop_assert_eq!(&served.resolved, &expected.resolved);

        coord.shutdown_and_join();
        for p in proxies {
            p.stop();
        }
        for s in shards {
            s.shutdown_and_join();
        }
    }

    /// Satellite: the streamed + weighted merge and the classic
    /// blocking merge agree with each other *and* with the direct
    /// single-machine tuner, under identical seeded fault schedules.
    /// Each coordinator gets its own proxies built from the same seed,
    /// so both protocols face the same misbehavior in the same order.
    #[test]
    fn streamed_and_blocking_merges_agree_with_direct(
        seed in any::<u64>(),
        ncand in 10usize..22,
    ) {
        let graph = wide(8);
        let machine = MachineConfig::linear(8);
        let shards = start_shards(2);
        let expected = direct_winner(&graph, &machine, ncand);

        let mut winners = Vec::new();
        for streaming in [true, false] {
            let proxies: Vec<FaultProxy> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    FaultProxy::start(
                        s.local_addr(),
                        FaultPlan::seeded(seed.wrapping_add(i as u64), 4),
                    )
                    .unwrap()
                })
                .collect();
            let addrs: Vec<String> =
                proxies.iter().map(|p| p.local_addr().to_string()).collect();
            let mut config = fleet_config(addrs);
            config.stream_every = streaming.then_some(3);
            config.weighted = streaming;
            let coord = start_coordinator(config);

            let mut client = Client::connect(coord.local_addr()).unwrap();
            let reply = client.tune(tune_request(&graph, &machine, ncand)).unwrap();
            prop_assert!(!reply.cancelled);
            prop_assert_eq!(reply.evaluated, ncand as u64);
            winners.push(reply.best.expect("fleet found a winner"));

            coord.shutdown_and_join();
            for p in proxies {
                p.stop();
            }
        }

        for served in &winners {
            prop_assert_eq!(&served.label, &expected.label);
            prop_assert_eq!(served.score.to_bits(), expected.score.to_bits());
            prop_assert_eq!(&served.resolved, &expected.resolved);
        }
        prop_assert_eq!(&winners[0].label, &winners[1].label);

        for s in shards {
            s.shutdown_and_join();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tentpole: seeded *churn* — joins, leaves, and throughput cliffs
    /// interleaved with tunes of random sizes — never changes the
    /// winner and never discards a sealed part. Cliffs here slow the
    /// stream without corrupting it, so a detector that fires (or
    /// doesn't — timing is seed-dependent) must make no difference to
    /// the merged result.
    #[test]
    fn seeded_churn_never_changes_the_winner_or_discards_parts(
        seed in any::<u64>(),
        ncands in prop::collection::vec(8usize..28, 3),
    ) {
        let graph = wide(10);
        let machine = MachineConfig::linear(8);
        let shards = start_shards(3);
        // Shards 0 and 1 sit behind churn-flavored proxies: clean
        // passes, delays, stalls, and throughput cliffs — no
        // corruption, so every sealed part must merge.
        let churn_plan = |salt: u64| {
            let actions = (0..6u64)
                .map(|i| {
                    let r = mix64(seed ^ salt ^ mix64(i));
                    match r % 4 {
                        0 => FaultAction::Pass,
                        1 => FaultAction::Delay(5 + (r >> 8) % 20),
                        2 => FaultAction::StallBetweenFrames(5 + (r >> 8) % 20),
                        _ => FaultAction::ThroughputCliff {
                            after_frame: ((r >> 8) % 2) as u32,
                            ms_per_candidate: 1 + (r >> 16) % 3,
                        },
                    }
                })
                .collect();
            FaultPlan::script(actions)
        };
        let proxies: Vec<FaultProxy> = (0..2)
            .map(|i| FaultProxy::start(shards[i].local_addr(), churn_plan(i as u64)).unwrap())
            .collect();
        let third = shards[2].local_addr().to_string();
        let addrs: Vec<String> = proxies.iter().map(|p| p.local_addr().to_string()).collect();
        let mut config = fleet_config(addrs.clone());
        config.cliff_fraction = 0.35;
        config.cliff_stall = Duration::from_millis(60);
        let coord = start_coordinator(config);

        let mut client = Client::connect(coord.local_addr()).unwrap();
        let mut third_in = false;
        for (round, &ncand) in ncands.iter().enumerate() {
            // One seeded membership op between tunes: admit the third
            // shard, retire it, or bounce a proxied founder.
            let r = mix64(seed ^ 0xC0FF_EE00 ^ round as u64);
            match r % 3 {
                0 => {
                    let rep = client.shard_join(&third).unwrap();
                    prop_assert_eq!(rep.changed, !third_in);
                    third_in = true;
                }
                1 => {
                    let rep = client.shard_leave(&third).unwrap();
                    prop_assert_eq!(rep.changed, third_in);
                    third_in = false;
                }
                _ => {
                    let bounced = &addrs[(r >> 8) as usize % 2];
                    prop_assert!(client.shard_leave(bounced).unwrap().changed);
                    prop_assert!(client.shard_join(bounced).unwrap().changed);
                }
            }

            let reply = client.tune(tune_request(&graph, &machine, ncand)).unwrap();
            let expected = direct_winner(&graph, &machine, ncand);
            let served = reply.best.expect("churned fleet found a winner");
            prop_assert!(!reply.cancelled);
            prop_assert_eq!(reply.evaluated, ncand as u64);
            prop_assert_eq!(&served.label, &expected.label);
            prop_assert_eq!(served.score.to_bits(), expected.score.to_bits());
            prop_assert_eq!(&served.resolved, &expected.resolved);

            let fleet = coord.stats().fleet.unwrap();
            prop_assert_eq!(fleet.parts_discarded, 0, "churn must not void sealed parts");
            prop_assert_eq!(fleet.corrupt_discarded, 0);
        }

        let fleet = coord.stats().fleet.unwrap();
        prop_assert!(fleet.membership_epoch >= 2, "every round churned the roster");
        prop_assert_eq!(fleet.joins + fleet.leaves, fleet.membership_epoch - 1);

        coord.shutdown_and_join();
        for p in proxies {
            p.stop();
        }
        for s in shards {
            s.shutdown_and_join();
        }
    }
}
