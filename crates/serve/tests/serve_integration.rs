//! End-to-end tests: a real server on an ephemeral port, real TCP
//! clients, concurrency, backpressure, deadlines, and drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fm_autotune::Refinement;
use fm_autotune::Tuner;
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::value::Value;
use fm_serve::client::{Client, ClientError};
use fm_serve::protocol::{
    EvaluateRequest, Request, Response, SessionOpenRequest, SimulateRequest, TuneRequest,
    TuneShardRequest, WireCandidate,
};
use fm_serve::server::{Server, ServerConfig};

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("serve-wide", 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

/// `n` affine candidates folding the iteration space onto `w = 1..cols`
/// processing elements: place `i mod w`, time `i div w`. All legal on a
/// linear machine with `cols` columns, with genuinely different
/// time/energy trade-offs, so tunes have real ranking work to do.
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

fn tune_request(
    graph: &DataflowGraph,
    machine: &MachineConfig,
    ncand: usize,
    deadline_ms: Option<u64>,
) -> TuneRequest {
    TuneRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        fom: FigureOfMerit::Time,
        candidates: affine_candidates(ncand, machine.cols),
        deadline_ms,
        max_candidates: None,
        convergence_window: None,
        refinement: None,
        use_cache: false,
        cost_model: None,
    }
}

fn start(config: ServerConfig) -> fm_serve::server::ServerHandle {
    Server::start("127.0.0.1:0", config).expect("bind ephemeral port")
}

#[test]
fn tune_through_server_is_bit_identical_to_direct_tuner() {
    let graph = wide(24);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let reply = client
        .tune(tune_request(&graph, &machine, 40, None))
        .unwrap();
    let served = reply.best.expect("server found a winner");
    assert!(!reply.fell_back);
    assert!(!reply.cancelled);
    assert_eq!(reply.evaluated, 40);

    // The reference run: the serial tuner, no server, same defaults.
    // Ordered reduction makes the parallel server-side search land on
    // the identical winner, score bits included.
    let evaluator = Evaluator::new(&graph, &machine);
    let candidates: Vec<MappingCandidate> = affine_candidates(40, machine.cols)
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    let direct = Tuner::new(&evaluator, &graph, &machine, FigureOfMerit::Time).tune(&candidates);
    let expected = direct.best.expect("direct tuner found a winner");

    assert_eq!(served.label, expected.label);
    assert_eq!(served.score.to_bits(), expected.score.to_bits());
    assert_eq!(served.resolved, expected.resolved);

    handle.shutdown_and_join();
}

#[test]
fn concurrent_mixed_workload_reconciles_with_server_stats() {
    const THREADS: usize = 6;
    const TUNES: u64 = 2;
    const EVALS: u64 = 3;

    let graph = wide(16);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let resolved = Mapping::serial(&graph).resolve(&graph, &machine).unwrap();

    let ok = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let graph = graph.clone();
            let machine = machine.clone();
            let resolved = resolved.clone();
            let ok = Arc::clone(&ok);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..TUNES {
                    let reply = client
                        .tune(tune_request(&graph, &machine, 10, None))
                        .unwrap();
                    assert!(reply.best.is_some());
                }
                for _ in 0..EVALS {
                    let reply = client
                        .evaluate(EvaluateRequest {
                            graph: graph.clone(),
                            machine: machine.clone(),
                            mapping: resolved.clone(),
                            deadline_ms: None,
                        })
                        .unwrap();
                    assert!(reply.legal);
                    assert!(reply.report.is_some());
                }
                // Stats answers even while work is in flight.
                let stats = client.stats().unwrap();
                assert!(stats.queue_depth <= stats.queue_capacity);
                ok.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(ok.load(Ordering::Relaxed), THREADS as u64);

    // Server-side counters must reconcile exactly with what the
    // clients sent: nothing lost, nothing double-counted.
    let stats = handle.stats();
    assert_eq!(stats.tune.received, THREADS as u64 * TUNES);
    assert_eq!(stats.tune.completed, THREADS as u64 * TUNES);
    assert_eq!(stats.evaluate.received, THREADS as u64 * EVALS);
    assert_eq!(stats.evaluate.completed, THREADS as u64 * EVALS);
    assert_eq!(stats.stats.received, THREADS as u64);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.tune.failed + stats.evaluate.failed, 0);
    assert!(stats.tune.latency.p50_us > 0.0);
    assert!(stats.tune.latency.p99_us >= stats.tune.latency.p50_us);

    // Drain must leave nothing behind.
    let last = handle.shutdown_and_join();
    assert_eq!(last.queue_depth, 0);
    assert_eq!(last.tune.completed, THREADS as u64 * TUNES);
}

#[test]
fn saturation_yields_busy_and_the_queue_stays_bounded() {
    const CLIENTS: usize = 8;
    let graph = wide(48);
    let machine = MachineConfig::linear(8);
    // One worker, a one-slot queue, and slow requests: with 8 clients
    // firing at once, most must be refused — and refused *immediately*
    // (bounded memory), not buffered.
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let busy = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let graph = graph.clone();
            let machine = machine.clone();
            let busy = Arc::clone(&busy);
            let served = Arc::clone(&served);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                match client.tune(tune_request(&graph, &machine, 3000, None)) {
                    Ok(reply) => {
                        assert!(reply.best.is_some());
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ClientError::Busy(b)) => {
                        assert_eq!(b.queue_capacity, 1);
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("unexpected failure: {other}"),
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let busy = busy.load(Ordering::Relaxed);
    let served = served.load(Ordering::Relaxed);
    assert_eq!(busy + served, CLIENTS as u64);
    assert!(served >= 1, "at least the first request is served");
    assert!(
        busy >= 1,
        "8 simultaneous heavy tunes on a 1-slot queue must refuse some"
    );

    let stats = handle.shutdown_and_join();
    assert_eq!(stats.busy_rejections, busy);
    assert!(stats.queue_peak <= 1, "queue never exceeds capacity");
    assert_eq!(stats.tune.received, CLIENTS as u64);
    assert_eq!(stats.tune.completed, served);
}

#[test]
fn expired_deadline_fails_evaluate_and_bounds_tune() {
    let graph = wide(32);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // An already-expired Evaluate is refused with a typed failure.
    match client.evaluate(EvaluateRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        mapping: Mapping::serial(&graph).resolve(&graph, &machine).unwrap(),
        deadline_ms: Some(0),
    }) {
        Err(ClientError::Failed(f)) => assert_eq!(f.kind, "deadline"),
        other => panic!("expected a deadline failure, got {other:?}"),
    }

    // A Tune with a tiny deadline still answers — with a partial
    // search, not an error: best-effort is the endpoint's contract.
    let reply = client
        .tune(tune_request(&graph, &machine, 5000, Some(1)))
        .unwrap();
    assert!(
        reply.evaluated < reply.offered || reply.fell_back,
        "a 1 ms deadline cannot evaluate all 5000 candidates (evaluated {} of {})",
        reply.evaluated,
        reply.offered
    );

    let stats = handle.shutdown_and_join();
    assert!(stats.deadline_expired >= 1);
}

#[test]
fn shutdown_drains_and_refuses_late_work() {
    let graph = wide(16);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();

    let mut working = Client::connect(addr).unwrap();
    let reply = working
        .tune(tune_request(&graph, &machine, 20, None))
        .unwrap();
    assert!(reply.best.is_some());

    // A second, already-connected client triggers the drain.
    let mut trigger = Client::connect(addr).unwrap();
    trigger.shutdown().unwrap();

    // Work submitted after the drain began is refused (either with an
    // explicit ShuttingDown or because the connection already closed).
    match working.tune(tune_request(&graph, &machine, 20, None)) {
        Err(ClientError::ShuttingDown) | Err(ClientError::Wire(_)) => {}
        Ok(_) => panic!("work accepted after shutdown"),
        Err(other) => panic!("unexpected error: {other}"),
    }

    // join() returns: every thread exited, the queue is empty, and the
    // pre-shutdown request was fully served.
    let stats = handle.join();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.tune.completed, 1);
}

#[test]
fn unknown_cost_model_is_a_typed_refusal_on_both_framings() {
    let graph = wide(6);
    let machine = MachineConfig::linear(4);
    let handle = start(ServerConfig::default());

    let json = Client::connect_json(handle.local_addr()).unwrap();
    let binary = Client::connect(handle.local_addr()).unwrap();
    assert!(binary.is_binary(), "new server must negotiate binary");
    for mut client in [json, binary] {
        let mut req = tune_request(&graph, &machine, 4, None);
        req.cost_model = Some("quantum".to_string());
        let err = client.tune(req).expect_err("unknown model must refuse");
        assert!(err.is_unknown_cost_model(), "got {err}");
        match err {
            ClientError::UnknownCostModel(f) => {
                assert_eq!(f.kind, "cost-model");
                assert!(
                    f.error.contains("quantum"),
                    "error names the model: {}",
                    f.error
                );
                assert!(
                    f.error.contains("roofline"),
                    "error lists the options: {}",
                    f.error
                );
            }
            other => panic!("expected UnknownCostModel, got {other}"),
        }
        // The refusal is a reply, not a protocol error: the connection
        // survives and the next request is served normally.
        client
            .ping()
            .expect("connection stays usable after refusal");
        let ok = client
            .tune(tune_request(&graph, &machine, 4, None))
            .unwrap();
        assert!(ok.best.is_some());
    }
    let stats = handle.shutdown_and_join();
    assert_eq!(stats.tune.failed, 2, "one typed failure per framing");
}

#[test]
fn malformed_graphs_get_a_typed_refusal_on_every_endpoint() {
    use fm_core::dataflow::Node;
    use fm_core::mapping::ResolvedMapping;
    let node = |expr: CExpr, deps: Vec<u32>| Node {
        expr,
        deps,
        index: vec![0],
        output: false,
    };
    let konst = || node(CExpr::konst(Value::real(1.0)), vec![]);
    // Node 0 reads node 1 (a forward dep), or a node 7 the graph does
    // not have: both break `deps < id`, which every engine indexes by.
    let bad = [("forward", 1u32, 2usize), ("missing", 7, 3)].map(|(name, dep, len)| {
        let mut g = DataflowGraph::new(name, 32);
        g.nodes.push(node(CExpr::dep(0), vec![dep]));
        g.nodes.extend((1..len).map(|_| konst()));
        (g, dep)
    });
    let machine = MachineConfig::linear(4);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for (graph, dep) in &bad {
        let n = graph.len() as i64;
        let mapping = ResolvedMapping {
            place: (0..n).map(|i| (i % 4, 0)).collect(),
            time: (0..n).collect(),
        };
        let requests = [
            Request::Tune(tune_request(graph, &machine, 4, None)),
            Request::TuneShard(TuneShardRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                fom: FigureOfMerit::Time,
                candidates: affine_candidates(4, machine.cols),
                start_index: 0,
                epoch: 0,
                deadline_ms: None,
                stream_every: None,
                cost_model: None,
            }),
            Request::Evaluate(EvaluateRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                mapping: mapping.clone(),
                deadline_ms: None,
            }),
            Request::Simulate(SimulateRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                mapping,
                inputs: vec![],
                contention: false,
                deadline_ms: None,
            }),
            Request::SessionOpen(SessionOpenRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                fom: FigureOfMerit::Time,
                candidates: affine_candidates(4, machine.cols),
                max_candidates: None,
                convergence_window: None,
                cost_model: None,
            }),
        ];
        for request in &requests {
            let endpoint = request.endpoint();
            match client.call(request).unwrap() {
                Response::Failed(f) => {
                    assert_eq!(f.kind, "graph", "{endpoint}: {}", f.error);
                    assert_eq!(
                        f.error,
                        format!("node 0: dependency {dep} is not an earlier node"),
                        "{endpoint}"
                    );
                }
                other => panic!("{endpoint} answered a malformed graph with {other:?}"),
            }
        }
    }
    // The refusals are replies: the connection and the server go on.
    let ok = client
        .tune(tune_request(&wide(6), &machine, 4, None))
        .unwrap();
    assert!(ok.best.is_some());
    let stats = handle.shutdown_and_join();
    assert_eq!(
        [
            stats.tune.failed,
            stats.tune_shard.failed,
            stats.evaluate.failed,
            stats.simulate.failed,
            stats.session_open.failed,
        ],
        [2; 5],
        "one typed refusal per graph per endpoint"
    );
}

#[test]
fn named_backends_rank_like_their_direct_evaluators() {
    let graph = wide(24);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let candidates: Vec<MappingCandidate> = affine_candidates(40, machine.cols)
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    for (name, kind) in [
        ("analytic", fm_costmodel::CostModelKind::Analytic),
        ("roofline", fm_costmodel::CostModelKind::Roofline),
        ("spatial", fm_costmodel::CostModelKind::Spatial),
    ] {
        let mut req = tune_request(&graph, &machine, 40, None);
        req.cost_model = Some(name.to_string());
        let served = client.tune(req).unwrap().best.expect("winner");

        let evaluator = Evaluator::new(&graph, &machine).with_cost_model(kind);
        let direct = Tuner::new(&evaluator, &graph, &machine, FigureOfMerit::Time)
            .tune(&candidates)
            .best
            .expect("direct winner");
        assert_eq!(served.label, direct.label, "winner under {name}");
        assert_eq!(
            served.score.to_bits(),
            direct.score.to_bits(),
            "score bits under {name}"
        );
    }

    // Every backend's winner passed through the roofline observatory.
    let stats = handle.shutdown_and_join();
    assert_eq!(stats.cost_models.len(), 3);
    for row in &stats.cost_models {
        assert_eq!(row.tunes, 1, "{} saw one tune", row.model);
        assert_eq!(
            row.compute_bound + row.onchip_bound + row.offchip_bound,
            1,
            "{} winner landed on exactly one roof",
            row.model
        );
    }
}

/// One deadline rule on every connection: a pipelined `Tune` still
/// executing when its deadline passes is cancelled by the connection
/// that admitted it and counted in `Stats.cancelled`. The candidate
/// sweep is tiny, so the deadline lands in the refinement after it,
/// which polls the cancel token between annealing moves and gives up.
#[test]
fn pipelined_tune_running_past_its_deadline_is_counted_cancelled() {
    const DEADLINE_MS: u64 = 20;
    let graph = wide(2);
    let machine = MachineConfig::linear(8);
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.is_pipelined());

    // Debug builds re-check every annealing move against a full
    // re-evaluation, about 100x the release cost of a move, so the
    // chain is sized per profile to run a few hundred ms in either.
    let iters = if cfg!(debug_assertions) {
        10_000
    } else {
        1_000_000
    };
    let mut req = tune_request(&graph, &machine, 4, Some(DEADLINE_MS));
    req.refinement = Some(Refinement {
        chains: 1,
        iters,
        seed: 7,
    });
    let reply = client.tune(req).unwrap();
    assert!(reply.best.is_some());
    assert!(
        reply.cancelled,
        "the interrupted refinement reports cancelled"
    );
    assert!(
        reply.wall_ms >= DEADLINE_MS as f64,
        "the tune ran until its deadline (ran {:.1} ms)",
        reply.wall_ms
    );

    let stats = handle.shutdown_and_join();
    assert_eq!(stats.cancelled, 1, "the expired tune is counted once");
}

/// What every `Stats` counter and gauge means, pinned in one scripted
/// run through one server: ping and `Stats`; one request of each work
/// endpoint; a `Busy` refusal, a malformed frame and a request whose
/// deadline expires while queued; a dedup pair; a session opened,
/// edited, tuned and closed, and one evicted by the idle TTL. Each
/// request moves a known set of counters by a known amount.
///
/// The script waits on the in-process snapshot
/// ([`fm_serve::server::ServerHandle::stats`]), which no counter sees.
/// One worker, a three-slot queue and a scripted straggler make the
/// busy phase deterministic: the `TuneShard` holds the worker for
/// 1.2 s while the queue fills behind it.
#[test]
fn a_scripted_run_moves_every_stats_counter_by_its_meaning() {
    use fm_core::mutate::GraphEdit;
    use fm_serve::metrics::StatsReply;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    let graph = wide(8);
    let machine = MachineConfig::linear(4);
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 3,
        straggle_ms_per_candidate: Some(150),
        session_ttl: Some(Duration::from_millis(1500)),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let wait_for = |what: &str, ok: &dyn Fn(&StatsReply) -> bool| {
        let start = Instant::now();
        while !ok(&handle.stats()) {
            assert!(start.elapsed() < Duration::from_secs(60), "{what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let serial = Mapping::serial(&graph).resolve(&graph, &machine).unwrap();
    let evaluate = |deadline_ms| {
        Request::Evaluate(EvaluateRequest {
            graph: graph.clone(),
            machine: machine.clone(),
            mapping: serial.clone(),
            deadline_ms,
        })
    };
    let simulate = Request::Simulate(SimulateRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        mapping: serial.clone(),
        inputs: vec![],
        contention: false,
        deadline_ms: None,
    });

    // Ping, `Stats`, and the quick work endpoints on one binary
    // connection. A `Stats` reply counts itself received, not yet
    // completed.
    let mut main = Client::connect(addr).unwrap();
    main.ping().unwrap();
    let first = main.stats().unwrap();
    assert_eq!((first.ping.received, first.ping.completed), (1, 1));
    assert_eq!((first.stats.received, first.stats.completed), (1, 0));
    assert_eq!((first.connections, first.binary_connections), (1, 1));
    assert_eq!((first.json_requests, first.binary_requests), (1, 2));
    assert!(matches!(main.call(&evaluate(None)).unwrap(), Response::Evaluated(r) if r.legal));
    assert!(matches!(
        main.call(&simulate).unwrap(),
        Response::Simulated(_)
    ));

    // The busy phase. A streamed `TuneShard` straggles 300 ms per
    // two-candidate chunk; its first part proves it holds the worker.
    let mut shard = Client::connect(addr).unwrap();
    shard
        .send_request(&Request::TuneShard(TuneShardRequest {
            graph: graph.clone(),
            machine: machine.clone(),
            fom: FigureOfMerit::Time,
            candidates: affine_candidates(8, machine.cols),
            start_index: 0,
            epoch: 1,
            deadline_ms: None,
            stream_every: Some(2),
            cost_model: None,
        }))
        .unwrap();
    wait_for("the shard request runs", &|s| s.tune_shard_parts >= 1);
    // An `Evaluate` with a 50 ms deadline queues behind it (on a JSON
    // connection) and expires there: its connection cancels it, and
    // the worker later counts it expired and refuses it.
    let mut late = Client::connect_json(addr).unwrap();
    late.send_request(&evaluate(Some(50))).unwrap();
    wait_for("the late evaluate queues", &|s| s.queue_depth == 1);
    wait_for("the late evaluate expires", &|s| s.cancelled == 1);
    // A dedup pair, pipelined on one connection: two in flight.
    let mut pair = Client::connect(addr).unwrap();
    let tune = Request::Tune(tune_request(&graph, &machine, 6, None));
    pair.send_request(&tune).unwrap();
    pair.send_request(&tune).unwrap();
    wait_for("the pair queues", &|s| s.queue_depth == 3);
    // The queue is full: the next request is refused, never buffered.
    let mut refused = Client::connect(addr).unwrap();
    match refused.call(&simulate).unwrap() {
        Response::Busy(b) => assert_eq!((b.queue_depth, b.queue_capacity), (3, 3)),
        other => panic!("a full queue answered {other:?}"),
    }
    // A frame that does not decode: answered, then the connection
    // closes.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let garbage = b"{not json";
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(garbage).unwrap();
    let mut answer = Vec::new();
    raw.read_to_end(&mut answer).unwrap();
    assert!(!answer.is_empty(), "a malformed frame is answered");

    let mut parts = 0;
    loop {
        match shard.recv_response().unwrap().1 {
            Response::TuneShardPart(_) => parts += 1,
            Response::TuneSharded(r) => {
                assert_eq!((r.body.evaluated, r.body.count), (8, 8));
                break;
            }
            other => panic!("the shard request answered {other:?}"),
        }
    }
    assert_eq!(parts, 4);
    match late.recv_response().unwrap().1 {
        Response::Failed(f) => assert_eq!(f.kind, "deadline"),
        other => panic!("the late evaluate answered {other:?}"),
    }
    let answers: Vec<Response> = (0..2).map(|_| pair.recv_response().unwrap().1).collect();
    let winner = match (&answers[0], &answers[1]) {
        (Response::Tuned(a), Response::Tuned(b)) => {
            let (a, b) = (a.best.clone().unwrap(), b.best.as_ref().unwrap());
            assert_eq!((&a.label, a.score.to_bits()), (&b.label, b.score.to_bits()));
            a
        }
        other => panic!("the dedup pair answered {other:?}"),
    };

    // Sessions: one opened, edited, tuned and closed; a second left
    // idle until the TTL evicts it, then named by an edit.
    let open = SessionOpenRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        fom: FigureOfMerit::Time,
        candidates: affine_candidates(4, machine.cols),
        max_candidates: None,
        convergence_window: None,
        cost_model: None,
    };
    let s1 = main.session_open(open.clone()).unwrap().session_id;
    let second = main.stats().unwrap();
    assert_eq!(second.sessions.open, 1);
    assert_eq!((second.stats.received, second.stats.completed), (2, 1));
    let add = GraphEdit::AddNode {
        expr: CExpr::konst(Value::real(8.0)),
        deps: vec![],
        index: vec![8],
        output: false,
    };
    let edited = main.session_edit(s1, 0, vec![add.clone()]).unwrap();
    let tuned = main.session_tune(s1, None).unwrap();
    assert!(tuned.warm);
    main.session_close(s1).unwrap();
    let s2 = main.session_open(open).unwrap().session_id;
    wait_for("the idle session is evicted", &|s| s.sessions.evicted == 1);
    assert!(main
        .session_edit(s2, 0, vec![add])
        .unwrap_err()
        .is_no_such_session());

    let s = main.stats().unwrap();
    assert_eq!(s.connections, 6);
    assert_eq!(s.binary_connections, 4);
    assert_eq!(s.json_requests, 5, "four Hellos and the late evaluate");
    assert_eq!(s.binary_requests, 16);
    assert_eq!(s.inflight_peak, 2);
    assert_eq!((s.queue_depth, s.queue_peak, s.queue_capacity), (0, 3, 3));
    assert_eq!(s.busy_rejections, 1);
    assert_eq!(s.protocol_errors, 1);
    assert_eq!(s.deadline_expired, 1);
    assert_eq!(s.cancelled, 1);
    assert_eq!((s.cache_hits, s.cache_misses, s.cache_stale), (0, 0, 0));
    assert_eq!((s.dedup_batches, s.dedup_waiters_served), (1, 1));
    assert_eq!(s.tune_shard_parts, 4);
    let counts = |e: &fm_serve::metrics::EndpointStats| (e.received, e.completed, e.failed);
    assert_eq!(counts(&s.tune), (2, 2, 0));
    assert_eq!(counts(&s.tune_shard), (1, 1, 0));
    assert_eq!(counts(&s.evaluate), (2, 1, 1));
    assert_eq!(
        counts(&s.simulate),
        (2, 1, 0),
        "the refused simulate is received only"
    );
    assert_eq!(counts(&s.session_open), (2, 2, 0));
    assert_eq!(counts(&s.session_edit), (2, 2, 0), "a typed miss completes");
    assert_eq!(counts(&s.session_tune), (1, 1, 0));
    assert_eq!(counts(&s.session_close), (1, 1, 0));
    assert_eq!(counts(&s.stats), (3, 2, 0));
    assert_eq!(counts(&s.ping), (1, 1, 0));
    let sessions = &s.sessions;
    assert_eq!(
        (
            sessions.open,
            sessions.opened,
            sessions.closed,
            sessions.evicted
        ),
        (0, 2, 1, 1)
    );
    assert_eq!(sessions.no_such, 1);
    assert_eq!((sessions.edits_applied, sessions.edit_batches), (1, 1));
    assert_eq!(
        (
            sessions.warm_tunes,
            sessions.cold_tunes,
            sessions.cold_rebuilds
        ),
        (1, 0, 0)
    );
    assert_eq!(sessions.mean_dirty_cone, edited.cone as f64);
    // Each tune reply's winner is observed once per reply: the pair's
    // twice, then the session's.
    assert_eq!(s.cost_models.len(), 1);
    let row = &s.cost_models[0];
    assert_eq!((row.model.as_str(), row.tunes), ("analytic", 3));
    assert_eq!(row.compute_bound + row.onchip_bound + row.offchip_bound, 3);
    let session_best = tuned.reply.best.unwrap();
    let energy = [&winner, &winner, &session_best]
        .iter()
        .fold(0.0, |sum, b| sum + b.report.energy().raw());
    assert_eq!(row.total_energy_fj, energy);
    let time = [&winner, &winner, &session_best]
        .iter()
        .fold(0.0, |sum, b| sum + b.report.time_ps.raw());
    assert_eq!(row.total_time_ps, time);
    assert!(s.fleet.is_none());

    let last = handle.shutdown_and_join();
    assert_eq!((last.stats.received, last.stats.completed), (3, 3));
    assert_eq!(last.queue_depth, 0);
}

#[test]
fn a_peer_that_hangs_up_with_a_reply_unread_is_no_protocol_error() {
    let handle = start(ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    fm_serve::protocol::write_request(&mut raw, &Request::Ping).unwrap();
    // Once the Pong sits unread in the receive buffer, closing the
    // socket resets the connection instead of closing it cleanly, and
    // the server reader's next read returns the reset. Joining the
    // server joins that reader, so its final books include it.
    raw.peek(&mut [0u8; 1]).unwrap();
    drop(raw);
    let s = handle.shutdown_and_join();
    assert_eq!((s.ping.received, s.ping.completed), (1, 1));
    assert_eq!(s.protocol_errors, 0, "a reset between frames is a hang-up");
}
