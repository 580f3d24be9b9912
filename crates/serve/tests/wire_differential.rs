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
//! 3. **Same primitives and names**: on random short byte strings the
//!    typed primitive readers accept what the tree path accepts, with
//!    bit-equal values; on objects and enum values with random key and
//!    variant-name bytes (invalid UTF-8 and duplicate keys included),
//!    the derived readers accept the same inputs and fail with the same
//!    error text.

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
use fm_kernels::util::XorShift;
use serde::binary::{from_binary, put_object, put_varint, to_binary};
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

/// A uniformly chosen item of `items`.
fn pick<'a, T>(rng: &mut XorShift, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// 0–`max` random bytes.
fn random_bytes(rng: &mut XorShift, max: u64) -> Vec<u8> {
    (0..rng.below(max + 1))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// An integer near one of the primitive types' edges, or a random one.
fn edge_int(rng: &mut XorShift) -> i64 {
    let edges = [
        0,
        1,
        -1,
        127,
        128,
        -128,
        -129,
        255,
        256,
        32_767,
        -32_769,
        65_535,
        65_536,
        i64::from(i32::MAX),
        i64::from(i32::MIN) - 1,
        i64::from(u32::MAX) + 1,
        i64::MAX,
        i64::MIN,
    ];
    match rng.below(3) {
        0 => pick(rng, &edges).wrapping_add(rng.below(3) as i64 - 1),
        1 => rng.below(400) as i64 - 200,
        _ => rng.next_u64() as i64 >> rng.below(64),
    }
}

/// A string of 0–4 random chars, multi-byte ones included.
fn text(rng: &mut XorShift) -> String {
    (0..rng.below(5))
        .map(|_| *pick(rng, &['a', 'Z', '0', 'é', '€', '😀']))
        .collect()
}

/// A well-formed value: mostly scalars (integral and fractional floats,
/// NaN, U64-tagged integers of any size), sometimes a small container.
fn any_json(rng: &mut XorShift, depth: u32) -> Json {
    match rng.below(if depth < 2 { 10 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::I64(edge_int(rng)),
        3 => Json::U64(match rng.below(2) {
            0 => rng.below(300),
            _ => rng.next_u64() | 1 << 63,
        }),
        4 => Json::F64(edge_int(rng) as f64),
        5 => Json::F64(*pick(
            rng,
            &[
                0.5,
                -0.0,
                -2.5,
                1e300,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                9_223_372_036_854_775_808.0,
            ],
        )),
        6 => Json::F64(f64::from_bits(rng.next_u64())),
        7 => Json::Str(text(rng)),
        8 => Json::Arr(
            (0..rng.below(3))
                .map(|_| any_json(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(3))
                .map(|_| (text(rng), any_json(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// A short byte string meant for one primitive read: a random tag
/// (unknown ones included) with random payload bytes, a string of
/// random bytes, or a well-formed value, sometimes cut short or
/// followed by a stray byte.
fn scalar_bytes(rng: &mut XorShift) -> Vec<u8> {
    let mut bytes = match rng.below(4) {
        0 => {
            let mut b = vec![rng.below(10) as u8];
            b.extend(random_bytes(rng, 10));
            b
        }
        1 => {
            let raw = random_bytes(rng, 4);
            let mut b = vec![0x06];
            put_varint(&mut b, raw.len() as u64);
            b.extend(raw);
            b
        }
        _ => to_binary(&any_json(rng, 0)),
    };
    match rng.below(8) {
        0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        1 => bytes.push(rng.next_u64() as u8),
        _ => {}
    }
    bytes
}

/// The tree path: read a `Json`, then `from_json`.
fn via_tree<T: Deserialize>(bytes: &[u8]) -> Result<T, serde::DeError> {
    T::from_json(&from_binary::<Json>(bytes)?)
}

/// The direct and the tree reader accept the same `bytes` as a `T`,
/// with bit-equal values (equal encodings, so NaN payloads and `-0.0`
/// compare too).
fn primitive_agrees<T: Serialize + Deserialize>(bytes: &[u8]) {
    let direct = from_binary::<T>(bytes).ok().map(|v| to_binary(&v));
    let tree = via_tree::<T>(bytes).ok().map(|v| to_binary(&v));
    assert_eq!(
        direct,
        tree,
        "{} readers disagree on {bytes:?}",
        std::any::type_name::<T>()
    );
}

#[derive(Debug, Serialize, Deserialize)]
struct Keyed {
    id: u32,
    name: String,
    #[serde(default)]
    tags: Vec<i64>,
    #[serde(skip)]
    scratch: u8,
}

#[derive(Debug, Serialize, Deserialize)]
enum Named {
    Unit,
    One(u8),
    Pair(i16, bool),
    Fields {
        x: f64,
        #[serde(default)]
        note: Option<String>,
    },
}

/// A key or variant name: one of `known`, a near miss, or random bytes
/// (often not UTF-8).
fn name_bytes(rng: &mut XorShift, known: &[&str]) -> Vec<u8> {
    let name = pick(rng, known).as_bytes();
    match rng.below(6) {
        0..=2 => name.to_vec(),
        3 => name[..rng.below(name.len() as u64) as usize].to_vec(),
        4 => [name, &[*pick(rng, &[b'_', 0x80, 0xC3, 0xFF])]].concat(),
        _ => random_bytes(rng, 5),
    }
}

/// A well-typed value for the field or variant payload `name`, or any
/// well-formed value when `name` names none (or a repeat).
fn value_for(rng: &mut XorShift, name: &[u8]) -> Json {
    match name {
        b"id" | b"One" => Json::I64(rng.below(256) as i64),
        b"name" => Json::Str(text(rng)),
        b"tags" => Json::Arr(
            (0..rng.below(3))
                .map(|_| Json::I64(edge_int(rng)))
                .collect(),
        ),
        b"x" => Json::F64(f64::from_bits(rng.next_u64())),
        b"note" => match rng.below(2) {
            0 => Json::Null,
            _ => Json::Str(text(rng)),
        },
        b"Pair" => {
            let arity = *pick(rng, &[2, 2, 2, 1, 3]);
            let mut items = vec![Json::I64(rng.below(600) as i64 - 300), Json::Bool(true)];
            items.resize_with(arity, || any_json(rng, 1));
            Json::Arr(items)
        }
        b"Fields" => match rng.below(4) {
            0 => any_json(rng, 1),
            _ => Json::Obj(vec![]), // replaced by `object_bytes`
        },
        _ => any_json(rng, 1),
    }
}

/// An object of 0–3 keys from `name_bytes(known)`, half the time with
/// every known name mixed in: a key's first occurrence gets a
/// well-typed value, a repeat any value.
fn object_bytes(rng: &mut XorShift, known: &[&str]) -> Vec<u8> {
    let mut keys: Vec<Vec<u8>> = (0..rng.below(4)).map(|_| name_bytes(rng, known)).collect();
    if rng.below(2) == 0 {
        for name in known {
            let at = rng.below(keys.len() as u64 + 1) as usize;
            keys.insert(at, name.as_bytes().to_vec());
        }
    }
    let mut out = Vec::new();
    put_object(&mut out, keys.len());
    let mut seen: Vec<Vec<u8>> = Vec::new();
    for key in keys {
        let value = if seen.contains(&key) {
            any_json(rng, 1)
        } else {
            value_for(rng, &key)
        };
        put_varint(&mut out, key.len() as u64);
        out.extend_from_slice(&key);
        out.extend(to_binary(&value));
        seen.push(key);
    }
    out
}

/// An enum value: a bare name, a one-key object whose payload fits the
/// name, an object of the wrong size (its keys any name bytes, invalid
/// UTF-8 included, sometimes cut short), or a value of another kind
/// (malformed ones included). Both readers read a refused value through
/// before refusing it, so a bad key or payload reports itself first.
fn variant_bytes(rng: &mut XorShift) -> Vec<u8> {
    let known = ["Unit", "One", "Pair", "Fields"];
    let name = name_bytes(rng, &known);
    let mut out = Vec::new();
    match rng.below(6) {
        0 | 1 => {
            out.push(0x06);
            put_varint(&mut out, name.len() as u64);
            out.extend_from_slice(&name);
        }
        2 => {
            let n = *pick(rng, &[0, 2]);
            put_object(&mut out, n);
            for _ in 0..n {
                let key = name_bytes(rng, &known);
                put_varint(&mut out, key.len() as u64);
                out.extend_from_slice(&key);
                out.extend(to_binary(&any_json(rng, 1)));
            }
            if rng.below(4) == 0 {
                out.truncate(rng.below(out.len() as u64) as usize);
            }
        }
        3 => {
            out = match rng.below(4) {
                0 => vec![*pick(rng, &[0x09, 0x7f, 0xff])],
                _ => to_binary(&any_json(rng, 1)),
            };
            if rng.below(4) == 0 {
                out.truncate(rng.below(out.len() as u64) as usize);
            }
        }
        _ => {
            put_object(&mut out, 1);
            put_varint(&mut out, name.len() as u64);
            out.extend_from_slice(&name);
            match value_for(rng, &name) {
                Json::Obj(empty) if empty.is_empty() && name == b"Fields" => {
                    out.extend(object_bytes(rng, &["x", "note"]));
                }
                payload => out.extend(to_binary(&payload)),
            }
        }
    }
    out
}

/// The direct and the tree reader accept the same `bytes` as a `T`,
/// with equal encodings, or fail with the same error text.
fn derived_agrees<T: Serialize + Deserialize>(bytes: &[u8]) {
    let direct = from_binary::<T>(bytes).map(|v| to_binary(&v));
    let tree = via_tree::<T>(bytes).map(|v| to_binary(&v));
    match (&direct, &tree) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "values differ on {bytes:?}"),
        (Err(a), Err(b)) => assert_eq!(a.0, b.0, "errors differ on {bytes:?}"),
        _ => panic!("readers disagree on {bytes:?}: {direct:?} vs {tree:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn typed_primitive_reads_match_the_tree_path(seed in any::<u64>()) {
        let mut rng = XorShift::new(seed);
        for _ in 0..8 {
            let bytes = scalar_bytes(&mut rng);
            primitive_agrees::<i8>(&bytes);
            primitive_agrees::<i16>(&bytes);
            primitive_agrees::<i32>(&bytes);
            primitive_agrees::<i64>(&bytes);
            primitive_agrees::<isize>(&bytes);
            primitive_agrees::<u8>(&bytes);
            primitive_agrees::<u16>(&bytes);
            primitive_agrees::<u32>(&bytes);
            primitive_agrees::<u64>(&bytes);
            primitive_agrees::<usize>(&bytes);
            primitive_agrees::<f32>(&bytes);
            primitive_agrees::<f64>(&bytes);
            primitive_agrees::<bool>(&bytes);
            primitive_agrees::<char>(&bytes);
            primitive_agrees::<String>(&bytes);
            primitive_agrees::<Option<u8>>(&bytes);
            primitive_agrees::<Option<f64>>(&bytes);
            primitive_agrees::<Option<String>>(&bytes);
        }
    }

    #[test]
    fn raw_name_dispatch_matches_the_tree_path(seed in any::<u64>()) {
        let mut rng = XorShift::new(seed);
        for _ in 0..8 {
            let keyed = object_bytes(&mut rng, &["id", "name", "tags", "scratch"]);
            derived_agrees::<Keyed>(&keyed);
            if let Ok(k) = from_binary::<Keyed>(&keyed) {
                prop_assert_eq!(k.scratch, 0, "a skipped field takes its default");
            }
            derived_agrees::<Named>(&variant_bytes(&mut rng));
        }
    }
}
