//! The traced run: a span recorder and an in-process replay of each
//! workload's seeded ops through the public calls the server makes.
//!
//! Per op the replay runs, in order: client encode, server decode, the
//! layer calls, reply encode, client decode — each wrapped in a span
//! (name, start, end, parent, op id) recorded from this file, not from
//! inside the program. Calls the server makes inside a layer's private
//! code (the flat engine inside `Tuner::tune`, `WarmCache` repairs inside
//! `SessionState`) are timed in `probe` span trees by a second pass over
//! the same ops, and attributed to the op as described in `README.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use fm_autotune::{Budget, CancelToken, TuneReport, Tuner, WarmCache};
use fm_core::cost::Evaluator;
use fm_core::dataflow::DataflowGraph;
use fm_core::flat::BatchEvaluator;
use fm_core::legality::check;
use fm_core::machine::MachineConfig;
use fm_core::mutate::{apply_edit, GraphEdit};
use fm_core::search::{anneal, CandidateEval};
use fm_costmodel::CostModelKind;
use fm_grid::{SimConfig, Simulator};
use fm_serve::protocol::{
    decode_request_any, decode_response_any, encode_request_binary, encode_response_binary,
    EvaluateReply, Request, Response, SessionEditRequest, SessionEditedReply, SessionTuneRequest,
    SessionTunedReply, SimulateReply, TuneReply,
};
use fm_serve::session::{EditOutcome, SessionState};
use fm_workspan::ThreadPool;

use crate::drive::{rpc_request, rpc_verdict, Verdict};
use crate::stats::{mean, median};
use crate::workload::{
    rpc_is_simulate, to_candidates, tuned_matches, Inputs, RpcInputs, SessionInputs, TuneInputs,
    PERIOD, SESSIONS,
};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`layer.call`).
    pub name: &'static str,
    /// The op it belongs to.
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Spans held in memory until the run ends.
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    origin: Instant,
}

/// Op id of spans that belong to no op (session opens).
const NO_OP: u64 = u64::MAX;

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            spans: Vec::new(),
            open: Vec::new(),
            origin: Instant::now(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Spans recorded per op, over ops `0..ops`.
    pub fn spans_per_op(&self, ops: u64) -> f64 {
        self.spans.iter().filter(|s| s.op < ops).count() as f64 / ops.max(1) as f64
    }

    /// What recording one span costs, ns: the mean over many empty ones.
    pub fn span_cost_ns() -> f64 {
        const N: u32 = 100_000;
        let mut t = Tracer::new();
        let t0 = Instant::now();
        for i in 0..N {
            t.span("empty", u64::from(i), || ());
        }
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(N)
    }

    /// Each span's duration less the time its children cover, ms.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Per op `0..ops`: the summed duration of spans named `name`, ms.
    fn per_op(&self, name: &str, ops: u64) -> Vec<f64> {
        let mut v = vec![0.0; ops as usize];
        for s in self.spans.iter().filter(|s| s.name == name && s.op < ops) {
            v[s.op as usize] += s.ms();
        }
        v
    }

    /// Durations of every span named `name`, ms.
    fn all(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every span as a tab-separated line: id, parent, op, name,
    /// start and end in µs since the recorder was made, self time µs.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ms();
        let mut out = String::from("id\tparent\top\tname\tstart_us\tend_us\tself_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "-".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{op}\t{}\t{:.3}\t{:.3}\t{:.3}",
                s.name,
                us(s.start),
                us(s.end),
                own[id] * 1e3
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What the replay saw besides spans.
#[derive(Default)]
pub struct Replay {
    /// Ops replayed.
    pub ops: u64,
    /// Replayed answers that differed from the reference.
    pub mismatched: u64,
    /// Request bytes per op.
    pub req_bytes: Vec<f64>,
    /// Reply bytes per op.
    pub reply_bytes: Vec<f64>,
    /// Legal ÷ evaluated over the single-threaded candidate passes.
    pub legal_ratio: Option<f64>,
    /// Cold rebuilds reported by replayed session tunes.
    pub rebuilds: u64,
    /// `cycles_actual` of each replayed simulation.
    pub sim_cycles: Vec<f64>,
    /// Annealing iterations and chains of the replayed refinements.
    pub anneal: Option<(u32, usize)>,
}

/// Client encode → server decode, inside the op's span.
fn wire_in(t: &mut Tracer, op: u64, req: &Request, rep: &mut Replay) -> (u64, Request) {
    let bytes = t.span("protocol.req_encode", op, || {
        encode_request_binary(op + 1, req)
    });
    *rep.req_bytes.last_mut().expect("op bytes slot") += bytes.len() as f64;
    let (corr, decoded, _) = t
        .span("protocol.req_decode", op, || decode_request_any(&bytes))
        .expect("a request the client encoded decodes");
    (corr, decoded)
}

/// Server encode → client decode, inside the op's span.
fn wire_out(t: &mut Tracer, op: u64, corr: u64, resp: &Response, rep: &mut Replay) -> Response {
    let bytes = t.span("protocol.reply_encode", op, || {
        encode_response_binary(corr, resp)
    });
    *rep.reply_bytes.last_mut().expect("op bytes slot") += bytes.len() as f64;
    t.span("protocol.reply_decode", op, || decode_response_any(&bytes))
        .expect("a reply the server encoded decodes")
        .1
}

fn tune_reply(report: &TuneReport, best: fm_autotune::TunedMapping) -> TuneReply {
    TuneReply {
        best: Some(best),
        offered: report.offered as u64,
        evaluated: report.evaluated as u64,
        pruned: report.pruned as u64,
        cache: report.cache.to_string(),
        fell_back: report.fell_back,
        cancelled: report.cancelled,
        wall_ms: report.wall.as_secs_f64() * 1e3,
    }
}

/// Replay `ops` tune ops: decode, `Tuner::tune` (search) and
/// `Tuner::refine_winner` on `pool`, encode. A second pass, off the op
/// path so it cannot cool the first one's caches, times the flat engine
/// over every candidate and one annealing chain, single-threaded.
fn replay_tune(t: &mut Tracer, inp: &TuneInputs, ops: u64, pool: &ThreadPool, rep: &mut Replay) {
    let mut searched = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        let k = (i % inp.requests.len() as u64) as usize;
        rep.req_bytes.push(0.0);
        rep.reply_bytes.push(0.0);
        let root = t.begin("op", i);
        let (corr, decoded) = wire_in(t, i, &inp.requests[k], rep);
        let Request::Tune(req) = decoded else {
            unreachable!("tune ops send Tune")
        };
        let ev = Evaluator::new(&req.graph, &req.machine).with_cost_model(CostModelKind::Analytic);
        let candidates = to_candidates(&req.candidates);
        let tuner = || Tuner::new(&ev, &req.graph, &req.machine, req.fom).with_pool(pool);
        let report = t.span("tuner.search", i, || {
            tuner().with_budget(Budget::unlimited()).tune(&candidates)
        });
        let winner = report
            .best
            .clone()
            .expect("the tune family has legal candidates");
        let refinement = req.refinement.expect("tune requests refine");
        let mut best = winner.clone();
        t.span("tuner.refine", i, || {
            tuner().with_refinement(refinement).refine_winner(&mut best)
        });
        let reply = Response::Tuned(tune_reply(&report, best));
        let back = wire_out(t, i, corr, &reply, rep);
        t.end(root);
        if !matches!(&back, Response::Tuned(r) if tuned_matches(r, &inp.expected[k])) {
            rep.mismatched += 1;
        }
        searched.push(winner.resolved);
    }

    let (mut legal, mut evaluated) = (0u64, 0u64);
    for (i, start) in (0..ops).zip(&searched) {
        let Request::Tune(req) = &inp.requests[(i % inp.requests.len() as u64) as usize] else {
            unreachable!("tune ops send Tune")
        };
        let ev = Evaluator::new(&req.graph, &req.machine).with_cost_model(CostModelKind::Analytic);
        let candidates = to_candidates(&req.candidates);
        let refinement = req.refinement.expect("tune requests refine");
        let probe = t.begin("probe", i);
        let batch = t.span("flat.context", i, || {
            BatchEvaluator::new(&ev, &req.graph, &req.machine, req.fom)
        });
        for c in &candidates {
            let eval = t.span("flat.eval", i, || batch.evaluate_candidate(c));
            legal += u64::from(matches!(eval, CandidateEval::Legal { .. }));
            evaluated += 1;
        }
        t.span("delta.anneal", i, || {
            anneal(
                &ev,
                &req.graph,
                &req.machine,
                start,
                req.fom,
                refinement.iters,
                refinement.seed,
            )
        });
        t.end(probe);
        rep.anneal = Some((refinement.iters, refinement.chains));
    }
    rep.legal_ratio = Some(legal as f64 / evaluated.max(1) as f64);
}

/// A session's state driven through the calls `SessionState` makes, so
/// the rehearsal clone and each `WarmCache` repair can be timed alone.
struct Mirror {
    graph: DataflowGraph,
    machine: MachineConfig,
    warm: WarmCache,
}

fn edit_span(edit: &GraphEdit) -> &'static str {
    match edit {
        GraphEdit::AddNode { .. } => "delta.add",
        GraphEdit::RemoveNode { .. } => "delta.remove",
        GraphEdit::RetargetEdge { .. } => "delta.retarget",
        GraphEdit::ResizeTile { .. } => "delta.resize",
    }
}

/// Replay `ops` session revisions through `SessionState::apply_batch`
/// and `SessionState::tune`. A second pass replays the same revisions on
/// a mirror of each session, timing the rehearsal clone, every
/// `WarmCache::apply_edit` and `Tuner::tune_warm` off the op path.
fn replay_session(t: &mut Tracer, inp: &SessionInputs, ops: u64, rep: &mut Replay) {
    let open = &inp.open;
    let candidates = to_candidates(&open.candidates);
    let mut states = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        let (g, m, c) = (open.graph.clone(), open.machine.clone(), candidates.clone());
        states.push(t.span("session.open", NO_OP, || {
            SessionState::open(
                g,
                m,
                open.fom,
                c,
                Budget::unlimited(),
                CostModelKind::Analytic,
            )
        }));
    }
    let mut revs = [0u64; SESSIONS];
    for i in 0..ops {
        let s = (i % SESSIONS as u64) as usize;
        let (id, rev) = (s as u64 + 1, revs[s]);
        let r = (rev % PERIOD as u64) as usize;
        let batch = &inp.scripts[s][r];
        let edit = Request::SessionEdit(SessionEditRequest::seal(id, rev, batch.clone()));
        let tune = Request::SessionTune(SessionTuneRequest {
            session_id: id,
            deadline_ms: None,
            cost_model: None,
        });
        rep.req_bytes.push(0.0);
        rep.reply_bytes.push(0.0);
        let root = t.begin("op", i);
        let (corr, decoded) = wire_in(t, i, &edit, rep);
        let Request::SessionEdit(e) = decoded else {
            unreachable!("session ops send SessionEdit first")
        };
        let state = &mut states[s];
        let outcome = t.span("session.apply", i, || {
            e.verify().expect("sealed batches verify");
            state.apply_batch(e.epoch, &e.edits)
        });
        let EditOutcome::Applied {
            epoch,
            applied,
            cone,
        } = outcome
        else {
            panic!("script batch refused: {outcome:?}")
        };
        let edited = Response::SessionEdited(SessionEditedReply {
            session_id: id,
            epoch,
            applied,
            cone,
        });
        wire_out(t, i, corr, &edited, rep);
        let (corr, _) = wire_in(t, i, &tune, rep);
        let out = t.span("session.tune", i, || state.tune(None, &CancelToken::new()));
        let best = out
            .report
            .best
            .clone()
            .expect("stretch candidates are legal");
        let tuned = Response::SessionTuned(Box::new(SessionTunedReply {
            session_id: id,
            epoch: out.epoch,
            warm: out.warm,
            rebuilds: out.rebuilds,
            reply: tune_reply(&out.report, best),
        }));
        let back = wire_out(t, i, corr, &tuned, rep);
        t.end(root);
        rep.rebuilds += out.rebuilds;
        if !matches!(&back, Response::SessionTuned(t) if tuned_matches(&t.reply, &inp.expected[s][r]))
        {
            rep.mismatched += 1;
        }
        revs[s] += 1;
    }
    drop(states);

    let mut mirrors: Vec<Mirror> = (0..SESSIONS)
        .map(|_| Mirror {
            graph: open.graph.clone(),
            machine: open.machine.clone(),
            warm: WarmCache::new(
                &Evaluator::new(&open.graph, &open.machine),
                candidates.clone(),
            ),
        })
        .collect();
    let mut revs = [0u64; SESSIONS];
    for i in 0..ops {
        let s = (i % SESSIONS as u64) as usize;
        let batch = &inp.scripts[s][(revs[s] % PERIOD as u64) as usize];
        revs[s] += 1;
        let probe = t.begin("probe", i);
        let Mirror {
            graph,
            machine,
            warm,
        } = &mut mirrors[s];
        let rehearsal = t.span("session.rehearsal", i, || (graph.clone(), machine.clone()));
        drop(rehearsal);
        for edit in batch {
            let receipt = apply_edit(graph, machine, edit).expect("script edits apply");
            let ev = Evaluator::new(graph, machine);
            t.span(edit_span(edit), i, || warm.apply_edit(&ev, &receipt));
        }
        let ev = Evaluator::new(graph, machine);
        t.span("delta.warm_tune", i, || {
            Tuner::new(&ev, graph, machine, open.fom)
                .with_budget(Budget::unlimited())
                .tune_warm(warm)
        });
        t.end(probe);
    }
}

/// Replay `ops` rpc ops: legality check, cost evaluation and, for
/// `Simulate`, the cycle-level run — the calls the server makes.
fn replay_rpc(t: &mut Tracer, inp: &RpcInputs, ops: u64, rep: &mut Replay) {
    for i in 0..ops {
        let (request, _) = rpc_request(inp, i);
        rep.req_bytes.push(0.0);
        rep.reply_bytes.push(0.0);
        let root = t.begin("op", i);
        let (corr, decoded) = wire_in(t, i, request, rep);
        let reply = match decoded {
            Request::Evaluate(e) => {
                let legality = t.span("core.check", i, || check(&e.graph, &e.mapping, &e.machine));
                let report = t.span("core.evaluate", i, || {
                    Evaluator::new(&e.graph, &e.machine).evaluate(&e.mapping)
                });
                Response::Evaluated(EvaluateReply {
                    legal: legality.is_legal(),
                    violations: legality.total_violations,
                    report: Some(report),
                })
            }
            Request::Simulate(s) => {
                t.span("core.check", i, || check(&s.graph, &s.mapping, &s.machine));
                let predicted = t.span("core.evaluate", i, || {
                    Evaluator::new(&s.graph, &s.machine).evaluate(&s.mapping)
                });
                let sim = Simulator::new(s.machine.clone()).with_config(SimConfig {
                    contention: s.contention,
                    ..SimConfig::default()
                });
                let result = t
                    .span("grid.sim", i, || {
                        sim.run(&s.graph, &s.mapping, &s.inputs, &[])
                    })
                    .expect("pool mappings simulate");
                rep.sim_cycles.push(result.cycles_actual as f64);
                Response::Simulated(SimulateReply {
                    cycles_scheduled: result.cycles_scheduled,
                    cycles_actual: result.cycles_actual,
                    slowdown: result.slowdown(),
                    stalled_elements: result.stalled_elements,
                    total_stall_cycles: result.total_stall_cycles,
                    messages_delivered: result.messages_delivered,
                    link_wait_cycles: result.link_wait_cycles,
                    predicted_energy_fj: predicted.energy().raw(),
                    simulated_energy_fj: result.ledger.energy.total().raw(),
                })
            }
            _ => unreachable!("rpc ops send Evaluate or Simulate"),
        };
        let back = wire_out(t, i, corr, &reply, rep);
        t.end(root);
        debug_assert_eq!(rpc_is_simulate(i), matches!(back, Response::Simulated(_)));
        if rpc_verdict(inp, i, &back) != Verdict::Ok {
            rep.mismatched += 1;
        }
    }
}

/// Replay `ops` ops of the workload whose inputs are `inputs`.
pub fn replay(inputs: &Inputs, ops: u64, pool: &ThreadPool) -> (Tracer, Replay) {
    let mut t = Tracer::new();
    let mut rep = Replay {
        ops,
        ..Replay::default()
    };
    match inputs {
        Inputs::Tune(inp) => replay_tune(&mut t, inp, ops, pool, &mut rep),
        Inputs::Session(inp) => replay_session(&mut t, inp, ops, &mut rep),
        Inputs::Rpc(inp) => replay_rpc(&mut t, inp, ops, &mut rep),
    }
    (t, rep)
}

/// Layers whose self time the split reports, in print order.
pub const LAYERS: [&str; 7] = [
    "protocol", "tuner", "flat", "delta", "session", "core", "grid",
];

/// Per-layer numbers from a replay: the per-call medians and, per layer,
/// the mean self time per op on the op's blocking path.
pub struct Split {
    /// `layer.metric` → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Layer → mean self ms per op.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Mean wall time of the op spans (the replayed blocking path), ms.
    pub op_wall_ms: f64,
}

/// Fold a replay's spans into per-layer metrics. `threads` is the
/// tuner pool size the replay ran on.
pub fn split(t: &Tracer, rep: &Replay, threads: usize) -> Split {
    let ops = rep.ops;
    let per = |name| t.per_op(name, ops);
    let sum = |names: &[&str]| -> Vec<f64> {
        let mut v = vec![0.0; ops as usize];
        for n in names {
            for (acc, x) in v.iter_mut().zip(t.per_op(n, ops)) {
                *acc += x;
            }
        }
        v
    };
    let present = |name| t.all(name);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "protocol.req_encode_ms",
        median(&per("protocol.req_encode")),
    );
    m.insert(
        "protocol.req_decode_ms",
        median(&per("protocol.req_decode")),
    );
    m.insert(
        "protocol.reply_encode_ms",
        median(&per("protocol.reply_encode")),
    );
    m.insert(
        "protocol.reply_decode_ms",
        median(&per("protocol.reply_decode")),
    );
    m.insert("protocol.req_kb", median(&rep.req_bytes) / 1024.0);
    m.insert("protocol.reply_kb", median(&rep.reply_bytes) / 1024.0);

    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    layer.insert(
        "protocol",
        sum(&[
            "protocol.req_encode",
            "protocol.req_decode",
            "protocol.reply_encode",
            "protocol.reply_decode",
        ]),
    );

    // tune / fleet: the flat engine runs inside the pooled search and the
    // annealing chains inside the pooled refinement. Their single-thread
    // times are credited to the op as if spread evenly over the pool
    // (capped at the enclosing call), and the rest stays the tuner's.
    let search = per("tuner.search");
    let refine = per("tuner.refine");
    let ctx = per("flat.context");
    let evals = per("flat.eval");
    let anneal = per("delta.anneal");
    let (iters, chains) = rep.anneal.unwrap_or((0, 0));
    let flat: Vec<f64> = (0..ops as usize)
        .map(|i| (ctx[i] + evals[i] / threads as f64).min(search[i]))
        .collect();
    let anneal_in_refine: Vec<f64> = (0..ops as usize)
        .map(|i| (anneal[i] * chains as f64 / chains.clamp(1, threads) as f64).min(refine[i]))
        .collect();
    let tuner: Vec<f64> = (0..ops as usize)
        .map(|i| search[i] - flat[i] + refine[i] - anneal_in_refine[i])
        .collect();
    m.insert("tuner.search_ms", median(&search));
    m.insert("tuner.refine_ms", median(&refine));
    m.insert("tuner.legal_ratio", rep.legal_ratio.unwrap_or(0.0));
    let util: Vec<f64> = (0..ops as usize)
        .filter(|&i| search[i] > 0.0)
        .map(|i| evals[i] / (search[i] * threads as f64))
        .collect();
    m.insert("tuner.pool_util", median(&util));
    m.insert("flat.context_ms", median(&ctx));
    let n_evals = present("flat.eval").len() as f64 / ops.max(1) as f64;
    m.insert("flat.eval_us", median(&evals) * 1e3 / n_evals.max(1.0));
    m.insert(
        "delta.anneal_move_us",
        if iters > 0 {
            median(&anneal) * 1e3 / f64::from(iters)
        } else {
            0.0
        },
    );

    // session: the mirror's repairs and warm tune happen inside
    // apply_batch and SessionState::tune; the rest of those two calls
    // (rehearsal clone, graph edits, bookkeeping) stays the session's.
    let repairs = sum(&[
        "delta.add",
        "delta.remove",
        "delta.retarget",
        "delta.warm_tune",
    ]);
    let apply = per("session.apply");
    let stune = per("session.tune");
    let session: Vec<f64> = (0..ops as usize)
        .map(|i| (apply[i] + stune[i] - repairs[i]).max(0.0))
        .collect();
    let delta: Vec<f64> = (0..ops as usize)
        .map(|i| anneal_in_refine[i] + repairs[i].min(apply[i] + stune[i]))
        .collect();
    m.insert("delta.add_ms", median(&present("delta.add")));
    m.insert("delta.remove_ms", median(&present("delta.remove")));
    m.insert("delta.retarget_ms", median(&present("delta.retarget")));
    m.insert("delta.warm_tune_ms", median(&present("delta.warm_tune")));
    m.insert("session.open_ms", median(&present("session.open")));
    m.insert("session.apply_ms", median(&present("session.apply")));
    m.insert(
        "session.rehearsal_ms",
        median(&present("session.rehearsal")),
    );
    m.insert("session.tune_ms", median(&present("session.tune")));

    // rpc: every call is on the op path.
    m.insert("core.check_us", median(&present("core.check")) * 1e3);
    m.insert("core.evaluate_us", median(&present("core.evaluate")) * 1e3);
    m.insert("grid.sim_ms", median(&present("grid.sim")));
    m.insert("grid.cycles", median(&rep.sim_cycles));

    layer.insert("tuner", tuner);
    layer.insert("flat", flat);
    layer.insert("delta", delta);
    layer.insert("session", session);
    layer.insert("core", sum(&["core.check", "core.evaluate"]));
    layer.insert("grid", per("grid.sim"));
    let self_ms = LAYERS.iter().map(|&l| (l, mean(&layer[l]))).collect();
    Split {
        metrics: m,
        self_ms,
        op_wall_ms: mean(&per("op")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("op", 0);
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        t.end(root);
        let own = t.self_ms();
        assert!(own[1] >= 20.0);
        assert!(own[0] >= 10.0 && own[0] < t.spans[0].ms() - 19.0);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
