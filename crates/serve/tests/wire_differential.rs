//! Differential test of the binary codec: the direct writers and
//! readers `serde_derive` generates against the tree path (`to_json()`,
//! then `Json`'s binary writer; `Json`'s binary reader, then
//! `from_json`), over every request and response variant.
//!
//! 1. **Same bytes**: the body of every `encode_*_binary` frame equals
//!    the tree path's encoding of the same value, so peers built on
//!    either side of the change interoperate.
//! 2. **Same language**: for every truncation of such a frame and every
//!    single-byte flip in it, the direct reader (`decode_*_any`) and
//!    the tree reader either both fail or both return values whose
//!    encodings are equal byte for byte (so NaN payloads compare too).

use proptest::prelude::*;

use fm_autotune::{Refinement, TunedMapping};
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::expr::BinOp;
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr, ResolvedMapping};
use fm_core::mutate::GraphEdit;
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;
use serde::binary::{from_binary, to_binary};
use serde::{Deserialize, Json, Serialize};

use fm_serve::protocol::{
    decode_request_any, decode_response_any, encode_request_binary, encode_response_binary,
    is_binary, BusyReply, EvaluateReply, EvaluateRequest, FailReply, HelloAckReply, HelloRequest,
    MembershipReply, NoSuchSessionReply, Request, Response, SessionCloseRequest,
    SessionClosedReply, SessionEditRequest, SessionEditedReply, SessionOpenRequest,
    SessionOpenedReply, SessionTuneRequest, SessionTunedReply, ShardBest, ShardJoinRequest,
    ShardLeaveRequest, SimulateReply, SimulateRequest, TuneReply, TuneRequest, TuneShardBody,
    TuneShardPart, TuneShardPartBody, TuneShardReply, TuneShardRequest, WireCandidate,
    BINARY_HEADER, BINARY_MAGIC, PROTOCOL_BINARY_VERSION,
};

/// A small graph using every expression shape: inputs, complex
/// constants, negation and each binary operator.
fn graph(n: usize, k: f64) -> DataflowGraph {
    let mut g = DataflowGraph::new("differential", 32);
    g.add_input("x", vec![2]);
    g.add_node(CExpr::input(0, 1), vec![], vec![0]);
    g.add_node(CExpr::konst(Value::complex(k, -k)), vec![], vec![1]);
    let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max];
    for i in 2..n.max(2) {
        let expr = CExpr::Bin(
            ops[i % ops.len()],
            Box::new(CExpr::Neg(Box::new(CExpr::dep(0)))),
            Box::new(CExpr::dep(1)),
        );
        g.add_node(expr, vec![(i - 1) as u32, (i - 2) as u32], vec![i as i64]);
    }
    g.mark_output((g.len() - 1) as u32);
    g
}

fn candidates(n: usize) -> Vec<WireCandidate> {
    (0..n)
        .map(|i| WireCandidate {
            label: format!("cand-{i}"),
            mapping: if i % 2 == 0 {
                Mapping::Affine(AffineMap {
                    place: PlaceExpr::row0(IdxExpr::i()),
                    time: IdxExpr::c(i as i64),
                })
            } else {
                Mapping::Table(ResolvedMapping {
                    place: vec![(0, i as i64); 3],
                    time: (0..3).collect(),
                })
            },
        })
        .collect()
}

fn fom_from(raw: u8) -> FigureOfMerit {
    match raw % 4 {
        0 => FigureOfMerit::Time,
        1 => FigureOfMerit::Energy,
        2 => FigureOfMerit::Edp,
        _ => FigureOfMerit::Footprint,
    }
}

struct Knobs {
    nodes: usize,
    ncand: usize,
    fom: u8,
    corr_or_epoch: u64,
    small: u64,
    flag: bool,
    real: f64,
}

fn requests(k: &Knobs) -> Vec<Request> {
    let g = graph(k.nodes, k.real);
    let machine = MachineConfig::linear(3);
    let mapping = Mapping::serial(&g)
        .resolve(&g, &machine)
        .expect("serial mapping resolves");
    let deadline_ms = k.flag.then_some(k.small);
    let edits = vec![
        GraphEdit::AddNode {
            expr: CExpr::dep(0).mul(CExpr::konst(Value::real(k.real))),
            deps: vec![0],
            index: vec![-1, k.small as i64],
            output: k.flag,
        },
        GraphEdit::RemoveNode { id: 3 },
        GraphEdit::RetargetEdge {
            node: 4,
            slot: 1,
            new_dep: 0,
        },
        GraphEdit::ResizeTile {
            tile_bits: 64 + k.small,
        },
    ];
    vec![
        Request::Hello(HelloRequest {
            max_version: k.fom,
            pipeline: k.flag,
        }),
        Request::Ping,
        Request::Tune(TuneRequest {
            graph: g.clone(),
            machine: machine.clone(),
            fom: fom_from(k.fom),
            candidates: candidates(k.ncand),
            deadline_ms,
            max_candidates: Some(k.small + 1),
            convergence_window: k.flag.then_some(8),
            refinement: k.flag.then_some(Refinement {
                chains: 2,
                iters: 300,
                seed: k.corr_or_epoch,
            }),
            use_cache: !k.flag,
            cost_model: k.flag.then(|| "roofline".to_string()),
        }),
        Request::TuneShard(TuneShardRequest {
            graph: g.clone(),
            machine: machine.clone(),
            fom: fom_from(k.fom),
            candidates: candidates(k.ncand),
            start_index: k.small,
            epoch: k.corr_or_epoch,
            deadline_ms,
            stream_every: k.flag.then_some(16),
            cost_model: None,
        }),
        Request::Evaluate(EvaluateRequest {
            graph: g.clone(),
            machine: machine.clone(),
            mapping: mapping.clone(),
            deadline_ms,
        }),
        Request::Simulate(SimulateRequest {
            graph: g.clone(),
            machine: machine.clone(),
            mapping,
            inputs: vec![vec![Value::real(k.real), Value::complex(-0.0, f64::NAN)]],
            contention: k.flag,
            deadline_ms,
        }),
        Request::SessionOpen(SessionOpenRequest {
            graph: g,
            machine,
            fom: fom_from(k.fom),
            candidates: candidates(k.ncand),
            max_candidates: deadline_ms,
            convergence_window: Some(4),
            cost_model: Some("spatial".to_string()),
        }),
        Request::SessionEdit(SessionEditRequest::seal(k.small, k.corr_or_epoch, edits)),
        Request::SessionTune(SessionTuneRequest {
            session_id: k.corr_or_epoch,
            deadline_ms,
            cost_model: k.flag.then(|| "analytic".to_string()),
        }),
        Request::SessionClose(SessionCloseRequest {
            session_id: k.small,
        }),
        Request::ShardJoin(ShardJoinRequest {
            addr: "127.0.0.1:7000".to_string(),
        }),
        Request::ShardLeave(ShardLeaveRequest {
            addr: "[::1]:7001".to_string(),
        }),
        Request::Stats,
        Request::Shutdown,
    ]
}

fn responses(k: &Knobs) -> Vec<Response> {
    let g = graph(k.nodes, k.real);
    let machine = MachineConfig::linear(3);
    let resolved = Mapping::serial(&g)
        .resolve(&g, &machine)
        .expect("serial mapping resolves");
    let report = Evaluator::new(&g, &machine).evaluate(&resolved);
    let best = TunedMapping {
        label: "serial".to_string(),
        resolved: resolved.clone(),
        report: report.clone(),
        score: k.real,
    };
    let tune_reply = TuneReply {
        best: k.flag.then(|| best.clone()),
        offered: k.small,
        evaluated: k.small / 2,
        pruned: k.small - k.small / 2,
        cache: "miss".to_string(),
        fell_back: !k.flag,
        cancelled: k.flag,
        wall_ms: k.real,
    };
    let shard_best = ShardBest {
        index: k.small,
        label: "c".to_string(),
        score: -k.real,
        resolved,
        report: report.clone(),
    };
    let epoch = k.corr_or_epoch;
    vec![
        Response::HelloAck(HelloAckReply {
            version: k.fom,
            pipeline: k.flag,
        }),
        Response::Pong,
        Response::Tuned(tune_reply.clone()),
        Response::TuneSharded(TuneShardReply::seal(
            epoch,
            TuneShardBody {
                start_index: k.small,
                count: 4,
                evaluated: 4,
                cancelled: k.flag,
                best: Some(shard_best.clone()),
            },
        )),
        Response::TuneShardPart(TuneShardPart::seal(
            epoch,
            TuneShardPartBody {
                start_index: k.small,
                count: 2,
                best: k.flag.then_some(shard_best),
            },
        )),
        Response::Evaluated(EvaluateReply {
            legal: k.flag,
            violations: k.small,
            report: Some(report),
        }),
        Response::Simulated(SimulateReply {
            cycles_scheduled: -(k.small as i64),
            cycles_actual: k.small as i64,
            slowdown: f64::NAN,
            stalled_elements: k.small,
            total_stall_cycles: u64::MAX,
            messages_delivered: 0,
            link_wait_cycles: 1,
            predicted_energy_fj: f64::INFINITY,
            simulated_energy_fj: k.real,
        }),
        Response::SessionOpened(SessionOpenedReply {
            session_id: k.small,
            epoch,
            candidates: 3,
        }),
        Response::SessionEdited(SessionEditedReply {
            session_id: k.small,
            epoch,
            applied: 4,
            cone: 9,
        }),
        Response::SessionTuned(Box::new(SessionTunedReply {
            session_id: k.small,
            epoch,
            warm: k.flag,
            rebuilds: 1,
            reply: tune_reply,
        })),
        Response::SessionClosed(SessionClosedReply {
            session_id: k.small,
            epoch,
            edits_applied: 5,
            tunes: 6,
        }),
        Response::NoSuchSession(NoSuchSessionReply {
            session_id: k.small,
        }),
        Response::Membership(MembershipReply {
            epoch,
            members: vec!["a:1".to_string(), "b:2".to_string()],
            changed: k.flag,
        }),
        Response::Stats(Box::new(
            fm_serve::metrics::Metrics::default().snapshot(k.small as usize),
        )),
        Response::Busy(BusyReply {
            queue_depth: k.small,
            queue_capacity: k.small,
        }),
        Response::ShuttingDown,
        Response::Failed(FailReply {
            kind: "deadline".to_string(),
            error: "deadline expired before execution".to_string(),
        }),
    ]
}

/// The tree reader: envelope header, then `Json`'s binary reader, then
/// `from_json`.
fn tree_decode<T: Deserialize>(frame: &[u8]) -> Option<(u64, T)> {
    if frame.len() < BINARY_HEADER
        || frame[0] != BINARY_MAGIC
        || frame[1] == 0
        || frame[1] > PROTOCOL_BINARY_VERSION
    {
        return None;
    }
    let corr = u64::from_be_bytes(frame[2..BINARY_HEADER].try_into().expect("8 bytes"));
    let tree: Json = from_binary(&frame[BINARY_HEADER..]).ok()?;
    Some((corr, T::from_json(&tree).ok()?))
}

/// Check both properties for one value, given its direct encoder and
/// direct decoder.
fn check<T: Serialize + Deserialize>(
    value: &T,
    corr: u64,
    flip: u8,
    encode: impl Fn(u64, &T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<(u64, T)>,
) {
    let frame = encode(corr, value);
    assert_eq!(
        &frame[BINARY_HEADER..],
        to_binary(&value.to_json()).as_slice(),
        "direct bytes differ from the tree path's"
    );
    let agree = |bytes: &[u8]| {
        if !is_binary(bytes) {
            return; // a flipped magic byte is JSON's business
        }
        let direct = decode(bytes).map(|(c, v)| (c, encode(0, &v)));
        let tree = tree_decode::<T>(bytes).map(|(c, v)| (c, encode(0, &v)));
        assert_eq!(direct, tree, "readers disagree on {bytes:?}");
    };
    for cut in 0..frame.len() {
        agree(&frame[..cut]);
    }
    for at in 0..frame.len() {
        let mut flipped = frame.clone();
        flipped[at] ^= flip;
        agree(&flipped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn direct_codec_matches_the_tree_path_on_every_variant(
        corr in any::<u64>(),
        nodes in 2usize..6,
        ncand in 0usize..3,
        fom in any::<u8>(),
        small in 0u64..5_000,
        flag in any::<bool>(),
        real in -1.0e6f64..1.0e6,
        flip in 1u8..=255,
    ) {
        let knobs = Knobs { nodes, ncand, fom, corr_or_epoch: corr.rotate_left(17), small, flag, real };
        for req in &requests(&knobs) {
            check(req, corr, flip, encode_request_binary, |b| {
                decode_request_any(b).ok().map(|(c, r, binary)| {
                    assert!(binary);
                    (c, r)
                })
            });
        }
        for resp in &responses(&knobs) {
            check(resp, corr, flip, encode_response_binary, |b| {
                decode_response_any(b).ok().map(|(c, r, binary)| {
                    assert!(binary);
                    (c, r)
                })
            });
        }
    }
}
