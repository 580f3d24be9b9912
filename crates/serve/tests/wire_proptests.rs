//! Property tests for the wire protocol.
//!
//! Two families:
//!
//! 1. **Round-trip**: every request and response variant, built from
//!    randomized payloads, survives `encode → decode → encode` with the
//!    bytes unchanged (byte equality implies structural equality
//!    without requiring `PartialEq` on every reply type).
//! 2. **Adversarial framing**: truncated frames, oversized length
//!    prefixes, and garbage payloads are rejected with a typed
//!    [`WireError`] — never a panic, never a hang, and never an
//!    allocation proportional to a hostile length prefix.

use proptest::prelude::*;

use fm_core::affine::IdxExpr;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr, ResolvedMapping};
use fm_core::mutate::GraphEdit;
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;

use fm_serve::protocol::{
    decode_request, decode_request_any, decode_response, decode_response_any, encode_request,
    encode_request_binary, encode_response, encode_response_binary, read_frame, write_frame,
    BusyReply, EvaluateReply, EvaluateRequest, FailReply, HelloAckReply, HelloRequest,
    NoSuchSessionReply, Request, Response, SessionCloseRequest, SessionClosedReply,
    SessionEditRequest, SessionEditedReply, SessionOpenRequest, SessionOpenedReply,
    SessionTuneRequest, SessionTunedReply, SimulateReply, SimulateRequest, TuneReply, TuneRequest,
    TuneShardBody, TuneShardPart, TuneShardPartBody, TuneShardReply, TuneShardRequest,
    WireCandidate, WireError, DEFAULT_MAX_FRAME,
};

fn wide(n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new("proptest-wide", 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

fn fom_from(raw: u8) -> FigureOfMerit {
    match raw % 4 {
        0 => FigureOfMerit::Time,
        1 => FigureOfMerit::Energy,
        2 => FigureOfMerit::Edp,
        _ => FigureOfMerit::Footprint,
    }
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
                    place: vec![(0, 0); 4],
                    time: (0..4).collect(),
                })
            },
        })
        .collect()
}

/// A `SessionOpen` and a sealed `SessionEdit` whose batch holds one
/// edit of every kind, values drawn from `seed`.
fn session_frames(corr: u64, seed: u64) -> (Request, SessionEditRequest) {
    let open = Request::SessionOpen(SessionOpenRequest {
        graph: wide(3),
        machine: MachineConfig::linear(2),
        fom: fom_from(seed as u8),
        candidates: candidates(2),
        max_candidates: Some(seed % 7),
        convergence_window: None,
        cost_model: Some("roofline".to_string()),
    });
    let edits = vec![
        GraphEdit::AddNode {
            expr: CExpr::dep(0).sub(CExpr::konst(Value::real(seed as f64 / 8.0))),
            deps: vec![(seed % 3) as u32],
            index: vec![3],
            output: seed.is_multiple_of(2),
        },
        GraphEdit::RetargetEdge {
            node: 3,
            slot: 0,
            new_dep: (seed % 2) as u32,
        },
        GraphEdit::RemoveNode { id: 3 },
        GraphEdit::ResizeTile {
            tile_bits: 64 + seed % 4096,
        },
    ];
    (open, SessionEditRequest::seal(corr, seed, edits))
}

/// encode → decode → encode must be byte-identical.
fn assert_request_round_trips(req: &Request) {
    let bytes = encode_request(req);
    let decoded = decode_request(&bytes).expect("decode of a freshly encoded request");
    assert_eq!(decoded.endpoint(), req.endpoint());
    assert_eq!(encode_request(&decoded), bytes);
}

fn assert_response_round_trips(resp: &Response) {
    let bytes = encode_response(resp);
    let decoded = decode_response(&bytes).expect("decode of a freshly encoded response");
    assert_eq!(decoded.kind(), resp.kind());
    assert_eq!(encode_response(&decoded), bytes);
}

/// JSON ↔ binary parity: the binary envelope must carry exactly the
/// structure JSON does — decoding a binary frame and re-encoding as
/// JSON reproduces the JSON bytes — and the correlation id survives
/// the header round trip (JSON frames decode with id 0).
fn assert_request_binary_parity(corr: u64, req: &Request) {
    let json = encode_request(req);
    let frame = encode_request_binary(corr, req);
    let (got_corr, decoded, was_binary) = decode_request_any(&frame).expect("binary decode");
    assert!(was_binary);
    assert_eq!(got_corr, corr);
    assert_eq!(encode_request(&decoded), json);
    let (json_corr, from_json, was_binary) = decode_request_any(&json).expect("json decode");
    assert!(!was_binary);
    assert_eq!(json_corr, 0);
    assert_eq!(encode_request(&from_json), json);
}

fn assert_response_binary_parity(corr: u64, resp: &Response) {
    let json = encode_response(resp);
    let frame = encode_response_binary(corr, resp);
    let (got_corr, decoded, was_binary) = decode_response_any(&frame).expect("binary decode");
    assert!(was_binary);
    assert_eq!(got_corr, corr);
    assert_eq!(encode_response(&decoded), json);
    let (json_corr, from_json, was_binary) = decode_response_any(&json).expect("json decode");
    assert!(!was_binary);
    assert_eq!(json_corr, 0);
    assert_eq!(encode_response(&from_json), json);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_request_variant_round_trips(
        nodes in 1usize..12,
        cols in 1u32..9,
        ncand in 0usize..6,
        fom_raw in any::<u8>(),
        deadline in 0u64..10_000,
        with_deadline in any::<bool>(),
        use_cache in any::<bool>(),
        contention in any::<bool>(),
    ) {
        let graph = wide(nodes);
        let machine = MachineConfig::linear(cols);
        let deadline_ms = with_deadline.then_some(deadline);
        let mapping = Mapping::serial(&graph)
            .resolve(&graph, &machine)
            .expect("serial mapping resolves");

        let variants = vec![
            Request::Ping,
            Request::Tune(TuneRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                fom: fom_from(fom_raw),
                candidates: candidates(ncand),
                deadline_ms,
                max_candidates: with_deadline.then_some(deadline + 1),
                convergence_window: use_cache.then_some(8),
                refinement: None,
                use_cache,
                cost_model: use_cache.then(|| "roofline".to_string()),
            }),
            Request::Evaluate(EvaluateRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                mapping: mapping.clone(),
                deadline_ms,
            }),
            Request::Simulate(SimulateRequest {
                graph,
                machine,
                mapping,
                inputs: vec![],
                contention,
                deadline_ms,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in &variants {
            assert_request_round_trips(req);
        }
    }

    #[test]
    fn every_response_variant_round_trips(
        offered in 0u64..5_000,
        evaluated in 0u64..5_000,
        violations in 0u64..100,
        depth in 0u64..64,
        cycles in 1i64..100_000,
        slow in 0.0f64..4.0,
        cancelled in any::<bool>(),
    ) {
        // A reply with real nested payloads (CostReport, TunedMapping)
        // is exercised end-to-end by the integration tests; here the
        // variants carry every scalar shape the wire can express.
        let variants = vec![
            Response::Pong,
            Response::Tuned(TuneReply {
                best: None,
                offered,
                evaluated,
                pruned: offered.saturating_sub(evaluated),
                cache: "miss".to_string(),
                fell_back: evaluated == 0,
                cancelled,
                wall_ms: slow * 10.0,
            }),
            Response::Evaluated(EvaluateReply {
                legal: violations == 0,
                violations,
                report: None,
            }),
            Response::Simulated(SimulateReply {
                cycles_scheduled: cycles,
                cycles_actual: cycles + violations as i64,
                slowdown: slow,
                stalled_elements: violations,
                total_stall_cycles: violations * 2,
                messages_delivered: offered,
                link_wait_cycles: evaluated,
                predicted_energy_fj: slow * 1e6,
                simulated_energy_fj: slow * 1e6,
            }),
            Response::Stats(Box::new(fm_serve::metrics::Metrics::default().snapshot(depth as usize))),
            Response::Busy(BusyReply { queue_depth: depth, queue_capacity: depth }),
            Response::ShuttingDown,
            Response::Failed(FailReply {
                kind: "deadline".to_string(),
                error: "deadline expired before execution".to_string(),
            }),
        ];
        for resp in &variants {
            assert_response_round_trips(resp);
        }
    }

    #[test]
    fn truncated_frames_are_typed_errors_not_panics(
        cut in 0usize..64,
        ncand in 0usize..4,
    ) {
        let mut buf = Vec::new();
        let req = Request::Tune(TuneRequest {
            graph: wide(3),
            machine: MachineConfig::linear(2),
            fom: FigureOfMerit::Time,
            candidates: candidates(ncand),
            deadline_ms: None,
            max_candidates: None,
            convergence_window: None,
            refinement: None,
            use_cache: false,
            cost_model: None,
        });
        write_frame(&mut buf, &encode_request(&req)).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1));
        let mut r = std::io::Cursor::new(&buf[..cut]);
        match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Err(WireError::Closed) => prop_assert_eq!(cut, 0),
            Err(WireError::Truncated { expected, got }) => {
                prop_assert!(got < expected);
            }
            Ok(_) => prop_assert!(false, "a cut frame cannot read back whole"),
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation(
        excess in 1usize..1_000_000,
        max in 16usize..4096,
    ) {
        // Header claims max+excess bytes; only 2 junk bytes follow. If
        // the reader allocated or waited for the claimed length this
        // would hang or balloon; it must fail fast on the header alone.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((max + excess) as u32).to_be_bytes());
        buf.extend_from_slice(b"xx");
        let mut r = std::io::Cursor::new(buf);
        match read_frame(&mut r, max) {
            Err(WireError::Oversized { len, max: m }) => {
                prop_assert_eq!(len, max + excess);
                prop_assert_eq!(m, max);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn garbage_payloads_decode_to_malformed(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Random bytes are (overwhelmingly) not a valid request. If by
        // cosmic luck they are, decoding must still not panic — both
        // outcomes are acceptable, crashing is not.
        match decode_request(&bytes) {
            Err(WireError::Malformed(msg)) => prop_assert!(!msg.is_empty()),
            Err(other) => prop_assert!(false, "unexpected error kind {}", other),
            Ok(_) => {}
        }
        match decode_response(&bytes) {
            Err(WireError::Malformed(msg)) => prop_assert!(!msg.is_empty()),
            Err(other) => prop_assert!(false, "unexpected error kind {}", other),
            Ok(_) => {}
        }
    }

    #[test]
    fn valid_json_of_the_wrong_shape_is_rejected(
        n in any::<u32>(),
    ) {
        let shapes = vec![
            format!("{n}"),
            format!("[{n}, {n}]"),
            format!("{{\"NotARequest\": {n}}}"),
            format!("{{\"Tune\": {n}}}"),
            "\"PingPong\"".to_string(),
            "null".to_string(),
        ];
        for s in &shapes {
            prop_assert!(matches!(
                decode_request(s.as_bytes()),
                Err(WireError::Malformed(_))
            ), "accepted {}", s);
        }
    }

    #[test]
    fn every_request_variant_has_binary_parity(
        corr in any::<u64>(),
        nodes in 1usize..10,
        cols in 1u32..9,
        ncand in 0usize..6,
        fom_raw in any::<u8>(),
        deadline in 0u64..10_000,
        with_deadline in any::<bool>(),
        use_cache in any::<bool>(),
        epoch in any::<u64>(),
        session_id in any::<u64>(),
        max_version in any::<u8>(),
        pipeline in any::<bool>(),
    ) {
        let graph = wide(nodes);
        let machine = MachineConfig::linear(cols);
        let deadline_ms = with_deadline.then_some(deadline);
        let mapping = Mapping::serial(&graph)
            .resolve(&graph, &machine)
            .expect("serial mapping resolves");

        let variants = vec![
            Request::Hello(HelloRequest { max_version, pipeline }),
            Request::Ping,
            Request::Tune(TuneRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                fom: fom_from(fom_raw),
                candidates: candidates(ncand),
                deadline_ms,
                max_candidates: with_deadline.then_some(deadline + 1),
                convergence_window: use_cache.then_some(8),
                refinement: None,
                use_cache,
                cost_model: use_cache.then(|| "spatial".to_string()),
            }),
            Request::TuneShard(TuneShardRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                fom: fom_from(fom_raw),
                candidates: candidates(ncand),
                start_index: deadline,
                epoch,
                deadline_ms,
                stream_every: with_deadline.then_some(16),
                cost_model: use_cache.then(|| "roofline".to_string()),
            }),
            Request::Evaluate(EvaluateRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                mapping: mapping.clone(),
                deadline_ms,
            }),
            Request::Simulate(SimulateRequest {
                graph: graph.clone(),
                machine: machine.clone(),
                mapping,
                inputs: vec![],
                contention: pipeline,
                deadline_ms,
            }),
            Request::SessionOpen(SessionOpenRequest {
                graph,
                machine,
                fom: fom_from(fom_raw),
                candidates: candidates(ncand),
                max_candidates: with_deadline.then_some(deadline + 1),
                convergence_window: use_cache.then_some(8),
                cost_model: use_cache.then(|| "analytic".to_string()),
            }),
            Request::SessionEdit(SessionEditRequest::seal(session_id, epoch, vec![])),
            Request::SessionTune(SessionTuneRequest { session_id, deadline_ms, cost_model: None }),
            Request::SessionClose(SessionCloseRequest { session_id }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in &variants {
            assert_request_binary_parity(corr, req);
        }
    }

    #[test]
    fn every_response_variant_has_binary_parity(
        corr in any::<u64>(),
        offered in 0u64..5_000,
        evaluated in 0u64..5_000,
        violations in 0u64..100,
        depth in 0u64..64,
        cycles in 1i64..100_000,
        slow in 0.0f64..4.0,
        cancelled in any::<bool>(),
        epoch in any::<u64>(),
        session_id in any::<u64>(),
        version in any::<u8>(),
        pipeline in any::<bool>(),
    ) {
        let tune_reply = TuneReply {
            best: None,
            offered,
            evaluated,
            pruned: offered.saturating_sub(evaluated),
            cache: "miss".to_string(),
            fell_back: evaluated == 0,
            cancelled,
            wall_ms: slow * 10.0,
        };
        let variants = vec![
            Response::HelloAck(HelloAckReply { version, pipeline }),
            Response::Pong,
            Response::Tuned(tune_reply.clone()),
            Response::TuneSharded(TuneShardReply::seal(epoch, TuneShardBody {
                start_index: offered,
                count: evaluated,
                evaluated,
                cancelled,
                best: None,
            })),
            Response::TuneShardPart(TuneShardPart::seal(epoch, TuneShardPartBody {
                start_index: offered,
                count: evaluated,
                best: None,
            })),
            Response::Evaluated(EvaluateReply {
                legal: violations == 0,
                violations,
                report: None,
            }),
            Response::Simulated(SimulateReply {
                cycles_scheduled: cycles,
                cycles_actual: cycles + violations as i64,
                slowdown: slow,
                stalled_elements: violations,
                total_stall_cycles: violations * 2,
                messages_delivered: offered,
                link_wait_cycles: evaluated,
                predicted_energy_fj: slow * 1e6,
                simulated_energy_fj: slow * 1e6,
            }),
            Response::SessionOpened(SessionOpenedReply {
                session_id,
                epoch,
                candidates: offered,
            }),
            Response::SessionEdited(SessionEditedReply {
                session_id,
                epoch,
                applied: violations,
                cone: depth,
            }),
            Response::SessionTuned(Box::new(SessionTunedReply {
                session_id,
                epoch,
                warm: cancelled,
                rebuilds: depth,
                reply: tune_reply,
            })),
            Response::SessionClosed(SessionClosedReply {
                session_id,
                epoch,
                edits_applied: violations,
                tunes: depth,
            }),
            Response::NoSuchSession(NoSuchSessionReply { session_id }),
            Response::Stats(Box::new(fm_serve::metrics::Metrics::default().snapshot(depth as usize))),
            Response::Busy(BusyReply { queue_depth: depth, queue_capacity: depth }),
            Response::ShuttingDown,
            Response::Failed(FailReply {
                kind: "deadline".to_string(),
                error: "deadline expired before execution".to_string(),
            }),
        ];
        for resp in &variants {
            assert_response_binary_parity(corr, resp);
        }
    }

    #[test]
    fn truncated_binary_envelopes_are_typed_errors(
        corr in any::<u64>(),
        session_id in any::<u64>(),
        cut_seed in any::<usize>(),
    ) {
        let frame = encode_request_binary(
            corr,
            &Request::SessionClose(SessionCloseRequest { session_id }),
        );
        // Every strict prefix must be refused, typed, without panics.
        let cut = cut_seed % frame.len();
        match decode_request_any(&frame[..cut]) {
            Err(WireError::Malformed(msg)) => prop_assert!(!msg.is_empty()),
            Err(other) => prop_assert!(false, "unexpected error kind {}", other),
            Ok(_) => prop_assert!(false, "a cut envelope cannot decode whole"),
        }
    }

    #[test]
    fn mutated_binary_envelopes_never_panic(
        corr in any::<u64>(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
        deadline in 0u64..10_000,
    ) {
        // A flipped byte anywhere in a binary frame must decode to
        // either a typed error or some valid value — never a panic,
        // never an unbounded allocation (the depth and prealloc caps).
        let req = Request::Tune(TuneRequest {
            graph: wide(3),
            machine: MachineConfig::linear(2),
            fom: FigureOfMerit::Time,
            candidates: candidates(2),
            deadline_ms: Some(deadline),
            max_candidates: None,
            convergence_window: None,
            refinement: None,
            use_cache: false,
            cost_model: None,
        });
        let mut frame = encode_request_binary(corr, &req);
        let at = flip_at % frame.len();
        frame[at] ^= flip_bits;
        match decode_request_any(&frame) {
            Err(WireError::Malformed(msg)) => prop_assert!(!msg.is_empty()),
            Err(other) => prop_assert!(false, "unexpected error kind {}", other),
            Ok(_) => {} // a value-level flip can still be a valid request
        }
    }

    #[test]
    fn truncated_session_frames_are_typed_errors(
        corr in any::<u64>(),
        seed in any::<u64>(),
        cut_seed in any::<usize>(),
    ) {
        let (open, edit) = session_frames(corr, seed);
        for req in [open, Request::SessionEdit(edit)] {
            let frame = encode_request_binary(corr, &req);
            let cut = cut_seed % frame.len();
            match decode_request_any(&frame[..cut]) {
                Err(WireError::Malformed(msg)) => prop_assert!(!msg.is_empty()),
                Err(other) => prop_assert!(false, "unexpected error kind {}", other),
                Ok(_) => prop_assert!(false, "a cut envelope cannot decode whole"),
            }
        }
    }

    #[test]
    fn mutated_session_frames_never_panic(
        corr in any::<u64>(),
        seed in any::<u64>(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        // A flipped byte in a session frame decodes to a typed error or
        // some valid request. An edit batch that still decodes with
        // other content than was sealed must fail its checksum, so the
        // server refuses it before applying any edit.
        let (open, edit) = session_frames(corr, seed);
        let sealed = edit.clone();
        for req in [open, Request::SessionEdit(edit)] {
            let mut frame = encode_request_binary(corr, &req);
            let at = flip_at % frame.len();
            frame[at] ^= flip_bits;
            match decode_request_any(&frame) {
                Err(WireError::Malformed(msg)) => prop_assert!(!msg.is_empty()),
                Err(other) => prop_assert!(false, "unexpected error kind {}", other),
                Ok((_, Request::SessionEdit(got), _))
                    if got.epoch != sealed.epoch || got.edits != sealed.edits =>
                {
                    prop_assert!(got.verify().is_err(), "altered batch passed its checksum");
                }
                Ok(_) => {}
            }
        }
    }

    #[test]
    fn binary_frames_respect_the_frame_cap(
        corr in any::<u64>(),
        max in 4usize..32,
    ) {
        // The envelope rides inside the same length-prefixed frames as
        // JSON, so the `max_frame` cap applies before any decoding.
        let frame = encode_request_binary(
            corr,
            &Request::Tune(TuneRequest {
                graph: wide(4),
                machine: MachineConfig::linear(2),
                fom: FigureOfMerit::Time,
                candidates: candidates(3),
                deadline_ms: None,
                max_candidates: None,
                convergence_window: None,
                refinement: None,
                use_cache: false,
                cost_model: None,
            }),
        );
        // A 4-node tune frame is always far larger than 32 bytes.
        prop_assert!(frame.len() > max);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut r = std::io::Cursor::new(buf);
        match read_frame(&mut r, max) {
            Err(WireError::Oversized { len, max: m }) => {
                prop_assert_eq!(len, frame.len());
                prop_assert_eq!(m, max);
            }
            other => prop_assert!(false, "expected Oversized, got ok={}", other.is_ok()),
        }
    }
}
