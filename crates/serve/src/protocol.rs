//! The wire protocol: length-prefixed frames, JSON or binary payload.
//!
//! Every message on the wire is one **frame**: a 4-byte big-endian
//! payload length followed by the payload. The payload comes in two
//! interchangeable encodings of the *same* serde data model:
//!
//! * **JSON text** — the bring-up encoding; debuggable (`nc` +
//!   eyeballs) and what every client generation speaks.
//! * **Binary envelope** — a [`BINARY_MAGIC`] byte, a version byte, an
//!   8-byte correlation id, then the value in the vendored serde's
//!   compact binary encoding ([`serde::binary`]: tag-prefixed varint
//!   integers, raw IEEE-754 floats, length-prefixed strings), written
//!   straight from the typed request or response and read straight
//!   back into one. Negotiated with [`Request::Hello`] /
//!   [`Response::HelloAck`]; the correlation id lets many requests
//!   ride one connection concurrently and complete out of order.
//!
//! The magic byte is a UTF-8 continuation byte, so no JSON payload can
//! start with it: a receiver sniffs the first byte and accepts either
//! encoding on any frame, which is what keeps old JSON clients working
//! byte-for-byte against new servers.
//!
//! The length prefix makes framing trivial and lets the receiver
//! reject oversized frames *before* buffering them (bounded memory,
//! the same discipline as the admission queue). Malformed input of any
//! kind — truncated frame, oversized length, garbage bytes, a payload
//! of the wrong shape in either encoding — surfaces as a
//! [`WireError`], never a panic and never a hang: the length prefix
//! bounds every read, and decode errors are ordinary values.

use serde::{Deserialize, Serialize};

use fm_autotune::{Refinement, TunedMapping};
use fm_core::cost::CostReport;
use fm_core::dataflow::DataflowGraph;
use fm_core::machine::MachineConfig;
use fm_core::mapping::{Mapping, ResolvedMapping};
use fm_core::mutate::GraphEdit;
use fm_core::search::FigureOfMerit;
use fm_core::value::Value;

use crate::metrics::StatsReply;

/// Default cap on a single frame's payload. Large enough for a
/// several-thousand-node graph with candidates; small enough that a
/// hostile or buggy length prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// A candidate mapping as sent over the wire.
///
/// (`fm_core::search::MappingCandidate` itself does not implement
/// serde; this is its wire twin, converted at the server boundary.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireCandidate {
    /// Label reported back for the winner.
    pub label: String,
    /// The mapping to evaluate.
    pub mapping: Mapping,
}

/// `Tune`: search a candidate list for the best mapping of `graph` on
/// `machine` under `fom`, with optional budgets and annealing
/// refinement. Answered with [`Response::Tuned`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneRequest {
    /// The elaborated dataflow graph to map.
    pub graph: DataflowGraph,
    /// The machine to map onto.
    pub machine: MachineConfig,
    /// The figure of merit to minimize.
    pub fom: FigureOfMerit,
    /// Candidate mappings to rank.
    pub candidates: Vec<WireCandidate>,
    /// Per-request deadline in milliseconds, measured from admission.
    /// Threaded into the tuner's budget; past it the server cancels the
    /// search and returns the best-so-far partial result.
    pub deadline_ms: Option<u64>,
    /// Evaluate at most this many candidates (deterministic prefix).
    pub max_candidates: Option<u64>,
    /// Early-stop after this many candidates without improvement.
    pub convergence_window: Option<u64>,
    /// Multi-chain annealing refinement of the winner.
    pub refinement: Option<Refinement>,
    /// Participate in the server's persistent tuning cache (replay hits,
    /// store misses). `false` forces a cold search.
    pub use_cache: bool,
    /// Cost backend to charge and rank under: `"analytic"` (the
    /// default, also used when absent), `"roofline"`, or `"spatial"`.
    /// An unknown name is refused with a typed `Failed` reply (kind
    /// `"cost-model"`) — never silently defaulted. Old servers ignore
    /// this field; old clients simply never send it.
    #[serde(default)]
    pub cost_model: Option<String>,
}

/// `TuneShard`: evaluate one contiguous **sub-range** of a larger
/// candidate list on behalf of a fleet coordinator (see
/// [`crate::fleet`]). Unlike `Tune`, the reply is only accepted when
/// the *whole* sub-range was evaluated — a partially-evaluated range
/// would make the merged winner depend on where the shard gave up, and
/// the fleet's contract is a winner bit-identical to a single-machine
/// search. Answered with [`Response::TuneSharded`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneShardRequest {
    /// The elaborated dataflow graph to map.
    pub graph: DataflowGraph,
    /// The machine to map onto.
    pub machine: MachineConfig,
    /// The figure of merit to minimize.
    pub fom: FigureOfMerit,
    /// The sub-range's candidates (already sliced by the coordinator).
    pub candidates: Vec<WireCandidate>,
    /// Absolute index of `candidates[0]` in the coordinator's full
    /// list; reply indices are absolute so the merge can tie-break.
    pub start_index: u64,
    /// The coordinator's epoch for this tune. Echoed in the reply; a
    /// reply carrying any other epoch is stale and discarded unmerged.
    pub epoch: u64,
    /// Per-request deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Stream a checksummed [`TuneShardPart`] frame back every this
    /// many evaluated candidates, so the coordinator can merge a
    /// straggler's finished prefix incrementally instead of forfeiting
    /// it. `None` (or 0) keeps the classic single blocking reply.
    pub stream_every: Option<u64>,
    /// Cost backend the coordinator's client asked for; shards must
    /// score under the same model or the merged winner would be
    /// meaningless. Unknown names are refused (kind `"cost-model"`).
    #[serde(default)]
    pub cost_model: Option<String>,
}

/// The winning candidate of one shard's sub-range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardBest {
    /// Absolute candidate index (for deterministic `(score, index)`
    /// merge tie-breaking).
    pub index: u64,
    /// The winning candidate's label.
    pub label: String,
    /// Its score under the requested objective.
    pub score: f64,
    /// The resolved mapping.
    pub resolved: ResolvedMapping,
    /// Its cost report.
    pub report: CostReport,
}

/// The checksummed payload of a [`TuneShardReply`]. Everything the
/// merge consumes lives here, under the checksum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneShardBody {
    /// Echo of the request's `start_index`.
    pub start_index: u64,
    /// Candidates the request carried.
    pub count: u64,
    /// Candidates actually evaluated. The coordinator only merges
    /// replies with `evaluated == count`.
    pub evaluated: u64,
    /// Whether a deadline/disconnect aborted the shard's search.
    pub cancelled: bool,
    /// The sub-range's winner (`None` when nothing in it was legal —
    /// which is information too: the merge must not fall back just
    /// because one range is empty).
    pub best: Option<ShardBest>,
}

/// The answer to a [`TuneShardRequest`]: an epoch echo, a checksum
/// over the canonical serialization of the body, and the body itself.
///
/// The checksum makes byte corruption in transit *detectable* (a frame
/// that decodes to valid JSON with silently altered numbers would
/// otherwise merge a wrong winner); the epoch makes stale replies
/// *identifiable*. Neither defends against a shard that deliberately
/// computes a valid checksum over wrong content — the fleet's threat
/// model is corruption and staleness, not Byzantine shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneShardReply {
    /// Echo of the request epoch.
    pub epoch: u64,
    /// FNV-1a 64 over `epoch` (8 bytes, big-endian) followed by the
    /// canonical JSON serialization of `body`.
    pub checksum: u64,
    /// The checksummed payload.
    pub body: TuneShardBody,
}

/// FNV-1a 64-bit. Not cryptographic — but a single flipped byte always
/// changes it (each step `h = (h ^ b) * PRIME` is bijective in `h` for
/// a fixed byte, so differing prefixes never re-converge). The one
/// shared workspace implementation lives next to the tuning-cache
/// fingerprints; this is a re-export so existing
/// `crate::protocol::fnv1a64` callers keep working.
pub use fm_autotune::fnv1a64;

impl TuneShardReply {
    /// The checksum a well-formed reply carries for `(epoch, body)`.
    pub fn checksum_of(epoch: u64, body: &TuneShardBody) -> u64 {
        let canon = serde_json::to_string(body).expect("shard body serializes");
        let mut bytes = Vec::with_capacity(8 + canon.len());
        bytes.extend_from_slice(&epoch.to_be_bytes());
        bytes.extend_from_slice(canon.as_bytes());
        fnv1a64(&bytes)
    }

    /// Build a reply with the checksum sealed in.
    pub fn seal(epoch: u64, body: TuneShardBody) -> TuneShardReply {
        TuneShardReply {
            epoch,
            checksum: Self::checksum_of(epoch, &body),
            body,
        }
    }

    /// Validate a received reply against the epoch the coordinator
    /// sent. `Err` names the first flaw found.
    pub fn verify(&self, expected_epoch: u64) -> Result<(), ShardReplyFlaw> {
        if self.epoch != expected_epoch {
            return Err(ShardReplyFlaw::StaleEpoch {
                got: self.epoch,
                expected: expected_epoch,
            });
        }
        let want = Self::checksum_of(self.epoch, &self.body);
        if self.checksum != want {
            return Err(ShardReplyFlaw::BadChecksum {
                got: self.checksum,
                expected: want,
            });
        }
        if self.body.cancelled || self.body.evaluated != self.body.count {
            return Err(ShardReplyFlaw::Incomplete {
                evaluated: self.body.evaluated,
                count: self.body.count,
            });
        }
        Ok(())
    }
}

/// Why a shard reply was discarded instead of merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardReplyFlaw {
    /// The reply echoes an epoch the coordinator did not send for this
    /// tune: it answers some earlier request.
    StaleEpoch {
        /// Epoch the reply carried.
        got: u64,
        /// Epoch the coordinator expected.
        expected: u64,
    },
    /// The embedded checksum does not match the body: bytes were
    /// corrupted in transit (or the frame was tampered with).
    BadChecksum {
        /// Checksum the reply carried.
        got: u64,
        /// Checksum recomputed from the received body.
        expected: u64,
    },
    /// The shard did not evaluate its whole sub-range (deadline or
    /// cancellation); merging it would make the winner depend on where
    /// it stopped.
    Incomplete {
        /// Candidates the shard evaluated.
        evaluated: u64,
        /// Candidates the sub-range holds.
        count: u64,
    },
}

impl std::fmt::Display for ShardReplyFlaw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardReplyFlaw::StaleEpoch { got, expected } => {
                write!(f, "stale epoch {got} (expected {expected})")
            }
            ShardReplyFlaw::BadChecksum { got, expected } => {
                write!(f, "checksum mismatch {got:#x} (recomputed {expected:#x})")
            }
            ShardReplyFlaw::Incomplete { evaluated, count } => {
                write!(f, "incomplete range: {evaluated} of {count} evaluated")
            }
        }
    }
}

/// The checksummed payload of a [`TuneShardPart`]: one finished chunk
/// of a streaming shard search. `start_index`/`count` delimit the
/// chunk; `best` is the first-minimum over *this chunk only* (the
/// coordinator folds chunks in ascending order with a strict `<`, so
/// the streamed merge reproduces the flat scan's first minimum
/// exactly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneShardPartBody {
    /// Absolute index of the chunk's first candidate.
    pub start_index: u64,
    /// Candidates this chunk covers. A part is only emitted once the
    /// whole chunk was evaluated — there are no partial parts; an
    /// interrupted chunk is simply never announced.
    pub count: u64,
    /// The chunk's winner (`None` when nothing in it was legal).
    pub best: Option<ShardBest>,
}

/// One streamed partial result: an epoch echo, a checksum over the
/// canonical serialization of the body, and the body. Same integrity
/// contract as [`TuneShardReply`] — corruption is detectable, stale
/// parts are identifiable — applied per chunk, so a straggler's
/// finished prefix survives even when the connection later dies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneShardPart {
    /// Echo of the request epoch.
    pub epoch: u64,
    /// FNV-1a 64 over `epoch` (8 bytes, big-endian) followed by the
    /// canonical JSON serialization of `body`.
    pub checksum: u64,
    /// The checksummed payload.
    pub body: TuneShardPartBody,
}

impl TuneShardPart {
    /// The checksum a well-formed part carries for `(epoch, body)`.
    pub fn checksum_of(epoch: u64, body: &TuneShardPartBody) -> u64 {
        let canon = serde_json::to_string(body).expect("shard part body serializes");
        let mut bytes = Vec::with_capacity(8 + canon.len());
        bytes.extend_from_slice(&epoch.to_be_bytes());
        bytes.extend_from_slice(canon.as_bytes());
        fnv1a64(&bytes)
    }

    /// Build a part with the checksum sealed in.
    pub fn seal(epoch: u64, body: TuneShardPartBody) -> TuneShardPart {
        TuneShardPart {
            epoch,
            checksum: Self::checksum_of(epoch, &body),
            body,
        }
    }

    /// Validate a received part against the epoch the coordinator
    /// sent. `Err` names the first flaw found. (Parts are complete by
    /// construction, so [`ShardReplyFlaw::Incomplete`] never arises
    /// here.)
    pub fn verify(&self, expected_epoch: u64) -> Result<(), ShardReplyFlaw> {
        if self.epoch != expected_epoch {
            return Err(ShardReplyFlaw::StaleEpoch {
                got: self.epoch,
                expected: expected_epoch,
            });
        }
        let want = Self::checksum_of(self.epoch, &self.body);
        if self.checksum != want {
            return Err(ShardReplyFlaw::BadChecksum {
                got: self.checksum,
                expected: want,
            });
        }
        Ok(())
    }
}

/// `SessionOpen`: start a live-mutation session. The server takes
/// ownership of a (graph, machine, objective, candidate list) tuple,
/// cold-derives per-candidate warm state
/// ([`fm_autotune::WarmCache`]), and answers with
/// [`Response::SessionOpened`] carrying the session id and the initial
/// epoch. Subsequent [`SessionEditRequest`] batches mutate the held
/// graph in place; [`SessionTuneRequest`] re-tunes it warm, seeded
/// from the repaired state rather than evaluated from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOpenRequest {
    /// The graph the session will mutate.
    pub graph: DataflowGraph,
    /// The machine it targets (its `tile_bits` is live-resizable).
    pub machine: MachineConfig,
    /// The figure of merit every tune in this session minimizes.
    pub fom: FigureOfMerit,
    /// Candidate mappings ranked by every tune in this session.
    pub candidates: Vec<WireCandidate>,
    /// Evaluate at most this many candidates per tune (deterministic
    /// prefix), for the session's whole life.
    pub max_candidates: Option<u64>,
    /// Early-stop each tune after this many candidates without
    /// improvement.
    pub convergence_window: Option<u64>,
    /// Cost backend every tune in this session charges and ranks
    /// under, frozen at open like the candidate set. Unknown names are
    /// refused (kind `"cost-model"`).
    #[serde(default)]
    pub cost_model: Option<String>,
}

/// The answer to a [`SessionOpenRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOpenedReply {
    /// Handle for all later requests about this session.
    pub session_id: u64,
    /// The session's initial epoch. Every applied edit batch bumps it
    /// by one; edit requests must quote the current value.
    pub epoch: u64,
    /// Candidates the session holds warm state for.
    pub candidates: u64,
}

/// `SessionEdit`: apply one batch of structural edits to a session's
/// graph/machine, atomically — either every edit in the batch applies
/// (and the epoch bumps by one) or none do. The batch is epoch-stamped
/// and checksummed exactly like [`TuneShardPart`]: the epoch pins the
/// graph state the client thinks it is editing, the checksum makes
/// in-transit corruption of the edit list detectable before any edit
/// is applied. Answered with [`Response::SessionEdited`], or
/// [`Response::NoSuchSession`] when the id is unknown or evicted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionEditRequest {
    /// Which session to edit.
    pub session_id: u64,
    /// The epoch the client believes the session is at. A mismatch
    /// means concurrent edits or a lost reply: the batch is refused
    /// (kind `"session"`) and nothing is applied.
    pub epoch: u64,
    /// FNV-1a 64 over `epoch` (8 bytes, big-endian) followed by the
    /// canonical JSON serialization of `edits`.
    pub checksum: u64,
    /// The edits, applied in order.
    pub edits: Vec<GraphEdit>,
}

impl SessionEditRequest {
    /// The checksum a well-formed edit batch carries for
    /// `(epoch, edits)`.
    pub fn checksum_of(epoch: u64, edits: &[GraphEdit]) -> u64 {
        let canon = serde_json::to_string(edits).expect("graph edits serialize");
        let mut bytes = Vec::with_capacity(8 + canon.len());
        bytes.extend_from_slice(&epoch.to_be_bytes());
        bytes.extend_from_slice(canon.as_bytes());
        fnv1a64(&bytes)
    }

    /// Build a batch with the checksum sealed in.
    pub fn seal(session_id: u64, epoch: u64, edits: Vec<GraphEdit>) -> SessionEditRequest {
        SessionEditRequest {
            session_id,
            epoch,
            checksum: Self::checksum_of(epoch, &edits),
            edits,
        }
    }

    /// Does the embedded checksum match the embedded `(epoch, edits)`?
    /// The server refuses the whole batch when it does not — a flipped
    /// byte in an edit list must never half-apply.
    pub fn verify(&self) -> Result<(), u64> {
        let want = Self::checksum_of(self.epoch, &self.edits);
        if self.checksum != want {
            return Err(want);
        }
        Ok(())
    }
}

/// The answer to a [`SessionEditRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionEditedReply {
    /// Echo of the session id.
    pub session_id: u64,
    /// The epoch *after* the batch (request epoch + 1).
    pub epoch: u64,
    /// Edits applied (== the batch length; batches are atomic).
    pub applied: u64,
    /// Total dirty-cone size across the batch: nodes the incremental
    /// repairer actually touched, the session's unit of edit work.
    pub cone: u64,
}

/// `SessionTune`: re-tune a session's current graph, seeded from the
/// warm per-candidate state repaired across all edits so far.
/// Answered with [`Response::SessionTuned`], or
/// [`Response::NoSuchSession`] when the id is unknown or evicted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTuneRequest {
    /// Which session to tune.
    pub session_id: u64,
    /// Per-request deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Cost backend to tune under. Sessions bake the backend at open
    /// ([`SessionOpenRequest::cost_model`]): this field must be absent
    /// or name the same backend, anything else is refused (kind
    /// `"cost-model"`) — a mid-session model switch would invalidate
    /// every warm score.
    #[serde(default)]
    pub cost_model: Option<String>,
}

/// The answer to a [`SessionTuneRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionTunedReply {
    /// Echo of the session id.
    pub session_id: u64,
    /// The epoch the tuned graph is at.
    pub epoch: u64,
    /// Whether the tune ran fully warm: no candidate fell back to a
    /// cold from-scratch rebuild during it.
    pub warm: bool,
    /// Candidates cold-rebuilt during this tune (0 when `warm`).
    pub rebuilds: u64,
    /// The winner and tuner counters, exactly as a cold `Tune` of the
    /// session's current graph would report them.
    pub reply: TuneReply,
}

/// `SessionClose`: retire a session and free its warm state.
/// Answered with [`Response::SessionClosed`], or
/// [`Response::NoSuchSession`] when the id is unknown or evicted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCloseRequest {
    /// Which session to close.
    pub session_id: u64,
}

/// The answer to a [`SessionCloseRequest`]: the session's lifetime
/// counters, for clients that account their own edit streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionClosedReply {
    /// Echo of the session id.
    pub session_id: u64,
    /// The final epoch (== edit batches applied).
    pub epoch: u64,
    /// Individual edits applied over the session's life.
    pub edits_applied: u64,
    /// Tunes served over the session's life.
    pub tunes: u64,
}

/// Typed refusal for session requests naming an id the server does not
/// hold — never issued, already closed, or evicted by the idle-TTL
/// sweeper. Distinct from [`FailReply`] so clients can transparently
/// reopen instead of treating it as a generic failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoSuchSessionReply {
    /// The id the request named.
    pub session_id: u64,
}

/// `Evaluate`: legality-check and analytically cost one resolved
/// mapping. Answered with [`Response::Evaluated`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateRequest {
    /// The graph the mapping is for.
    pub graph: DataflowGraph,
    /// The machine it runs on.
    pub machine: MachineConfig,
    /// The mapping to cost.
    pub mapping: ResolvedMapping,
    /// Per-request deadline in milliseconds (admission-relative).
    pub deadline_ms: Option<u64>,
}

/// `Simulate`: execute one resolved mapping on the cycle-driven grid
/// simulator and report predicted-vs-simulated slowdown. Answered with
/// [`Response::Simulated`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateRequest {
    /// The graph to execute.
    pub graph: DataflowGraph,
    /// The machine to simulate.
    pub machine: MachineConfig,
    /// The mapping to execute.
    pub mapping: ResolvedMapping,
    /// Input tensors, one per graph input (empty for closed graphs).
    pub inputs: Vec<Vec<Value>>,
    /// Model link contention (wormhole occupancy).
    pub contention: bool,
    /// Per-request deadline in milliseconds (admission-relative).
    pub deadline_ms: Option<u64>,
}

/// `Hello`: protocol negotiation, sent as the **first** frame on a
/// connection by clients that speak the binary protocol. Always
/// JSON-encoded (the one encoding every server generation decodes), so
/// detection is self-contained: a server that predates negotiation
/// fails to decode the unknown variant, answers `Failed(protocol)`,
/// and closes — the client then reconnects and stays JSON. A server
/// that understands it answers [`Response::HelloAck`] and switches the
/// connection to binary pipelined framing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloRequest {
    /// Highest binary protocol version the client speaks.
    pub max_version: u8,
    /// Whether the client wants pipelined (correlation-id) dispatch.
    pub pipeline: bool,
}

/// The answer to a [`HelloRequest`]: the negotiated settings. Every
/// frame after this reply (in both directions) uses the binary
/// envelope when `version > 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloAckReply {
    /// Binary protocol version the server selected (the minimum of the
    /// two sides' maxima; never above [`PROTOCOL_BINARY_VERSION`]).
    pub version: u8,
    /// Whether pipelined dispatch is active for this connection.
    pub pipeline: bool,
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Protocol negotiation (see [`HelloRequest`]). First frame only.
    Hello(HelloRequest),
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Mapping search (see [`TuneRequest`]).
    Tune(TuneRequest),
    /// Sub-range search on behalf of a fleet coordinator (see
    /// [`TuneShardRequest`]).
    TuneShard(TuneShardRequest),
    /// Analytic cost of one mapping (see [`EvaluateRequest`]).
    Evaluate(EvaluateRequest),
    /// Cycle-driven simulation of one mapping (see [`SimulateRequest`]).
    Simulate(SimulateRequest),
    /// Open a live-mutation session (see [`SessionOpenRequest`]).
    SessionOpen(SessionOpenRequest),
    /// Apply an edit batch to a session (see [`SessionEditRequest`]).
    SessionEdit(SessionEditRequest),
    /// Warm re-tune of a session's graph (see [`SessionTuneRequest`]).
    SessionTune(SessionTuneRequest),
    /// Retire a session (see [`SessionCloseRequest`]).
    SessionClose(SessionCloseRequest),
    /// Admit a shard into the running fleet roster (see
    /// [`ShardJoinRequest`]); answered with [`Response::Membership`].
    /// Never queued — membership changes must land under saturation.
    ShardJoin(ShardJoinRequest),
    /// Retire a shard from the running fleet roster (see
    /// [`ShardLeaveRequest`]); answered with [`Response::Membership`].
    /// Never queued.
    ShardLeave(ShardLeaveRequest),
    /// Metrics snapshot; answered with [`Response::Stats`]. Never
    /// queued, never `Busy` — stats must be readable under saturation.
    Stats,
    /// Begin graceful drain-then-exit; answered with
    /// [`Response::ShuttingDown`].
    Shutdown,
}

impl Request {
    /// Wire-level name, as used in metrics and logs.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Hello(_) => "hello",
            Request::Ping => "ping",
            Request::Tune(_) => "tune",
            Request::TuneShard(_) => "tune_shard",
            Request::Evaluate(_) => "evaluate",
            Request::Simulate(_) => "simulate",
            Request::SessionOpen(_) => "session_open",
            Request::SessionEdit(_) => "session_edit",
            Request::SessionTune(_) => "session_tune",
            Request::SessionClose(_) => "session_close",
            Request::ShardJoin(_) => "shard_join",
            Request::ShardLeave(_) => "shard_leave",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// The dataflow graph the request carries, if it carries one.
    pub fn graph(&self) -> Option<&DataflowGraph> {
        match self {
            Request::Tune(r) => Some(&r.graph),
            Request::TuneShard(r) => Some(&r.graph),
            Request::Evaluate(r) => Some(&r.graph),
            Request::Simulate(r) => Some(&r.graph),
            Request::SessionOpen(r) => Some(&r.graph),
            _ => None,
        }
    }
}

/// The answer to a [`TuneRequest`]: the winner (if any mapping was
/// legal) plus the tuner's counters, mirroring
/// [`fm_autotune::TuneReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneReply {
    /// The winning mapping (label, resolved mapping, report, score), or
    /// `None` when even the default-mapper fallback was unavailable
    /// (empty graph).
    pub best: Option<TunedMapping>,
    /// Candidates offered.
    pub offered: u64,
    /// Candidates evaluated.
    pub evaluated: u64,
    /// Candidates pruned by budgets or cancellation.
    pub pruned: u64,
    /// Cache participation: `"disabled"`, `"miss"`, `"hit"`, `"stale"`.
    pub cache: String,
    /// Whether the winner is the default-mapper fallback.
    pub fell_back: bool,
    /// Whether the deadline/disconnect cancelled the search (the reply
    /// then covers the evaluated prefix).
    pub cancelled: bool,
    /// Server-side wall time of the tune call, in milliseconds.
    pub wall_ms: f64,
}

/// The answer to an [`EvaluateRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluateReply {
    /// Whether the mapping passed the static legality check.
    pub legal: bool,
    /// Total legality violations (0 when legal).
    pub violations: u64,
    /// The analytic cost report (`None` for illegal mappings — their
    /// cost is not defined).
    pub report: Option<CostReport>,
}

/// The answer to a [`SimulateRequest`]: the analytic prediction next to
/// what the cycle-driven simulator actually measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulateReply {
    /// The mapping's promised makespan (analytic model).
    pub cycles_scheduled: i64,
    /// Cycles the simulator actually took (≥ scheduled).
    pub cycles_actual: i64,
    /// `cycles_actual / cycles_scheduled` — 1.0 means the model's
    /// promise held exactly.
    pub slowdown: f64,
    /// Elements that executed later than scheduled.
    pub stalled_elements: u64,
    /// Total lateness across all elements, in cycles.
    pub total_stall_cycles: u64,
    /// Messages delivered over the NoC.
    pub messages_delivered: u64,
    /// Cycles messages spent blocked on busy links.
    pub link_wait_cycles: u64,
    /// Analytically predicted total energy (fJ).
    pub predicted_energy_fj: f64,
    /// Simulated total energy (fJ) — matches the prediction for legal
    /// mappings by the sim-agreement invariant.
    pub simulated_energy_fj: f64,
}

/// Why a request was refused or failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailReply {
    /// Machine-readable category: `"protocol"`, `"deadline"`,
    /// `"illegal"`, `"sim"`, `"session"`, `"cost-model"` (unknown or
    /// mismatched `cost_model` name), `"graph"` (the request's graph
    /// breaks a construction rule, see
    /// [`DataflowGraph::validate`](fm_core::dataflow::DataflowGraph::validate)),
    /// or `"internal"`.
    pub kind: String,
    /// Human-readable detail.
    pub error: String,
}

/// Explicit backpressure: the admission queue is full. The client
/// should back off and retry; the server has *not* buffered the
/// request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusyReply {
    /// Queue depth at refusal (== capacity).
    pub queue_depth: u64,
    /// Configured queue capacity.
    pub queue_capacity: u64,
}

/// `ShardJoin`: admit `addr` into the coordinator's live fleet roster.
/// Idempotent — joining a live member changes nothing. A returning
/// member revives its learned throughput history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardJoinRequest {
    /// The shard's address (`host:port`), as the coordinator should
    /// dial it.
    pub addr: String,
}

/// `ShardLeave`: retire `addr` from the coordinator's live fleet
/// roster. Idempotent. In-flight sub-ranges owned by the departing
/// shard are re-dispatched from their covered watermark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLeaveRequest {
    /// The shard's address, as configured.
    pub addr: String,
}

/// The answer to [`Request::ShardJoin`] / [`Request::ShardLeave`]: the
/// roster after the change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MembershipReply {
    /// Membership epoch after the request (bumped only when `changed`).
    pub epoch: u64,
    /// Live member addresses, in roster order.
    pub members: Vec<String>,
    /// Whether the request actually changed the roster (idempotent
    /// repeats answer `false`).
    pub changed: bool,
}

/// A server response frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Hello`]: negotiation accepted.
    HelloAck(HelloAckReply),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Tune`].
    Tuned(TuneReply),
    /// Answer to [`Request::TuneShard`].
    TuneSharded(TuneShardReply),
    /// Streamed partial result of a [`Request::TuneShard`] with
    /// `stream_every` set: zero or more of these precede the terminal
    /// [`Response::TuneSharded`] on the same connection.
    TuneShardPart(TuneShardPart),
    /// Answer to [`Request::Evaluate`].
    Evaluated(EvaluateReply),
    /// Answer to [`Request::Simulate`].
    Simulated(SimulateReply),
    /// Answer to [`Request::SessionOpen`].
    SessionOpened(SessionOpenedReply),
    /// Answer to [`Request::SessionEdit`].
    SessionEdited(SessionEditedReply),
    /// Answer to [`Request::SessionTune`].
    SessionTuned(Box<SessionTunedReply>),
    /// Answer to [`Request::SessionClose`].
    SessionClosed(SessionClosedReply),
    /// A session request named an id this server does not hold (never
    /// issued, closed, or evicted by the idle-TTL sweeper). Typed so
    /// clients can transparently reopen.
    NoSuchSession(NoSuchSessionReply),
    /// Answer to [`Request::ShardJoin`] and [`Request::ShardLeave`].
    Membership(MembershipReply),
    /// Answer to [`Request::Stats`]. Boxed: the snapshot (per-endpoint
    /// histograms plus optional per-shard fleet counters) dwarfs the
    /// other variants.
    Stats(Box<StatsReply>),
    /// The admission queue is full; retry later.
    Busy(BusyReply),
    /// The server is draining: acknowledges [`Request::Shutdown`], and
    /// refuses work requests that arrive during the drain.
    ShuttingDown,
    /// The request was admitted but could not be served.
    Failed(FailReply),
}

impl Response {
    /// Wire-level name (for logs and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            Response::HelloAck(_) => "hello-ack",
            Response::Pong => "pong",
            Response::Tuned(_) => "tuned",
            Response::TuneSharded(_) => "tune-sharded",
            Response::TuneShardPart(_) => "tune-shard-part",
            Response::Evaluated(_) => "evaluated",
            Response::Simulated(_) => "simulated",
            Response::SessionOpened(_) => "session-opened",
            Response::SessionEdited(_) => "session-edited",
            Response::SessionTuned(_) => "session-tuned",
            Response::SessionClosed(_) => "session-closed",
            Response::NoSuchSession(_) => "no-such-session",
            Response::Membership(_) => "membership",
            Response::Stats(_) => "stats",
            Response::Busy(_) => "busy",
            Response::ShuttingDown => "shutting-down",
            Response::Failed(_) => "failed",
        }
    }
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// I/O failure mid-frame.
    Io(std::io::Error),
    /// EOF arrived inside a frame (`got` of `expected` payload bytes).
    Truncated {
        /// Bytes the length prefix promised.
        expected: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// The length prefix exceeds the configured maximum; the payload
    /// was *not* read.
    Oversized {
        /// Length the prefix claimed.
        len: usize,
        /// Maximum this endpoint accepts.
        max: usize,
    },
    /// The payload was not valid JSON of the expected shape.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: got {got} of {expected} bytes")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    queue_frame(w, payload)?;
    w.flush()
}

/// Write one frame without flushing. The pipelined writer stacks
/// several frames into one `BufWriter` and flushes once — one syscall
/// for a whole burst of replies instead of one per frame.
pub fn queue_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Largest single allocation step while reading a frame payload.
/// Memory committed to a frame grows with bytes actually received (in
/// steps of this size), never with the length the prefix *claims* — a
/// peer that declares a large-but-legal length and then stalls or
/// disconnects holds at most one chunk beyond what it really sent.
pub const READ_CHUNK: usize = 64 << 10;

/// Read one frame's payload, enforcing `max`. EOF before the first
/// header byte is [`WireError::Closed`], and so is a connection reset
/// or abort there (a peer that hangs up with replies unread resets the
/// connection instead of closing it); EOF anywhere later is
/// [`WireError::Truncated`], and a reset there is [`WireError::Io`]. A
/// length prefix over `max` is rejected before any payload byte is read
/// or buffered, and payload memory is reserved incrementally
/// ([`READ_CHUNK`]) as bytes arrive — never all up front on the
/// strength of the prefix alone. A read that times out (a socket read
/// timeout) is a [`WireError::Io`].
pub fn read_frame(r: &mut impl std::io::Read, max: usize) -> Result<Vec<u8>, WireError> {
    read_frame_polled(r, max, |timed_out| timed_out.map(WireError::Io))
}

/// [`read_frame`] for readers that also watch something besides the
/// socket: a shutdown flag, deadlines, a cancel token. `poll` runs
/// before every read and returns `Some(stop)` to give up on the frame.
/// A read that times out (`WouldBlock`/`TimedOut`, from a socket read
/// timeout) is handed to the next `poll` and then retried, so the read
/// timeout sets how often a silent peer's reader wakes to poll. Framing
/// and transport failures convert into the caller's stop type.
pub(crate) fn read_frame_polled<E: From<WireError>>(
    r: &mut impl std::io::Read,
    max: usize,
    mut poll: impl FnMut(Option<std::io::Error>) -> Option<E>,
) -> Result<Vec<u8>, E> {
    let mut header = [0u8; 4];
    let mut payload = Vec::new();
    // Bytes of the header, then of the payload, received so far; the
    // payload length is known once the header is complete.
    let mut got = 0;
    let mut len: Option<usize> = None;
    let mut timed_out = None;
    loop {
        if let Some(stop) = poll(timed_out.take()) {
            return Err(stop);
        }
        let buf = match len {
            None => &mut header[got..],
            Some(len) => {
                if got == payload.len() {
                    payload.resize(len.min(got + READ_CHUNK), 0);
                }
                &mut payload[got..]
            }
        };
        match r.read(buf) {
            Ok(0) => {
                return Err(match len {
                    None if got == 0 => WireError::Closed,
                    None => WireError::Truncated { expected: 4, got },
                    Some(expected) => WireError::Truncated { expected, got },
                }
                .into())
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                timed_out = Some(e);
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if len.is_none()
                    && got == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                    ) =>
            {
                return Err(WireError::Closed.into())
            }
            Err(e) => return Err(WireError::Io(e).into()),
        }
        if len.is_none() && got == header.len() {
            let claimed = u32::from_be_bytes(header) as usize;
            if claimed > max {
                return Err(WireError::Oversized { len: claimed, max }.into());
            }
            len = Some(claimed);
            got = 0;
        }
        if len == Some(got) {
            return Ok(payload);
        }
    }
}

/// Serialize a request to frame-payload bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    serde_json::to_string(req)
        .expect("requests always serialize")
        .into_bytes()
}

/// Serialize a response to frame-payload bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp)
        .expect("responses always serialize")
        .into_bytes()
}

/// Decode a request from frame-payload bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Decode a response from frame-payload bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Write `req` as one frame.
pub fn write_request(w: &mut impl std::io::Write, req: &Request) -> std::io::Result<()> {
    write_frame(w, &encode_request(req))
}

/// Write `resp` as one frame.
pub fn write_response(w: &mut impl std::io::Write, resp: &Response) -> std::io::Result<()> {
    write_frame(w, &encode_response(resp))
}

/// Read one request frame.
pub fn read_request(r: &mut impl std::io::Read, max: usize) -> Result<Request, WireError> {
    decode_request(&read_frame(r, max)?)
}

/// Read one response frame.
pub fn read_response(r: &mut impl std::io::Read, max: usize) -> Result<Response, WireError> {
    decode_response(&read_frame(r, max)?)
}

// ---- binary framing -------------------------------------------------
//
// A binary payload is an **envelope** around one value:
//
//   byte 0      BINARY_MAGIC (0xB1)
//   byte 1      binary protocol version
//   bytes 2..10 correlation id, big-endian u64
//   bytes 10..  the value in `serde::binary`'s encoding, which is the
//               binary form of the same tree the JSON text renders
//               (same keys, field order and tags), written and read
//               without building that tree
//
// `0xB1` is a UTF-8 continuation byte: no valid JSON text can start
// with it, so one-byte sniffing distinguishes the encodings per frame
// and both can share a connection.

/// First byte of every binary envelope. Chosen from the UTF-8
/// continuation range so it can never collide with the first byte of
/// a JSON text payload.
pub const BINARY_MAGIC: u8 = 0xB1;

/// The binary protocol version this build speaks (and the highest a
/// [`HelloRequest`] from this build advertises).
pub const PROTOCOL_BINARY_VERSION: u8 = 1;

/// Envelope header length: magic, version, correlation id.
pub const BINARY_HEADER: usize = 10;

/// Deepest value nesting the binary decoder accepts.
pub use serde::binary::BINARY_MAX_DEPTH;

/// Does this frame payload carry the binary envelope (vs JSON text)?
pub fn is_binary(payload: &[u8]) -> bool {
    payload.first() == Some(&BINARY_MAGIC)
}

fn encode_envelope(corr: u64, value: &impl Serialize) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(BINARY_MAGIC);
    out.push(PROTOCOL_BINARY_VERSION);
    out.extend_from_slice(&corr.to_be_bytes());
    value.write_binary(&mut out);
    out
}

/// Decode a binary envelope to its correlation id and value. Rejects a
/// wrong magic, an unknown version, truncation anywhere, and trailing
/// garbage after the value — all as typed [`WireError::Malformed`]
/// (never a panic, never over-allocation).
fn decode_envelope<T: Deserialize>(payload: &[u8]) -> Result<(u64, T), WireError> {
    if payload.len() < BINARY_HEADER {
        return Err(WireError::Malformed(format!(
            "binary envelope needs {BINARY_HEADER} header bytes, got {}",
            payload.len()
        )));
    }
    if payload[0] != BINARY_MAGIC {
        return Err(WireError::Malformed(format!(
            "bad binary magic {:#04x}",
            payload[0]
        )));
    }
    if payload[1] == 0 || payload[1] > PROTOCOL_BINARY_VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported binary protocol version {}",
            payload[1]
        )));
    }
    let corr = u64::from_be_bytes(payload[2..BINARY_HEADER].try_into().expect("8 bytes"));
    let value = serde::binary::from_binary(&payload[BINARY_HEADER..])
        .map_err(|e| WireError::Malformed(e.to_string()))?;
    Ok((corr, value))
}

/// Serialize a request to a binary envelope payload.
pub fn encode_request_binary(corr: u64, req: &Request) -> Vec<u8> {
    encode_envelope(corr, req)
}

/// The payload of `Request::TuneShard` for the suffix of `req` from
/// absolute index `from`, carrying `deadline_ms`: the bytes
/// [`encode_request`] — or, with `binary`, [`encode_request_binary`]
/// under correlation id `req.epoch` — writes for that request, built
/// without copying the graph or the candidates.
pub(crate) fn encode_tune_shard_suffix(
    req: &TuneShardRequest,
    from: usize,
    deadline_ms: Option<u64>,
    binary: bool,
) -> Vec<u8> {
    let candidates = &req.candidates[from - req.start_index as usize..];
    let start_index = from as u64;
    // `TuneShardRequest`'s fields, in declaration order.
    let suffix = TuneShardFields([
        ("graph", &req.graph),
        ("machine", &req.machine),
        ("fom", &req.fom),
        ("candidates", &candidates),
        ("start_index", &start_index),
        ("epoch", &req.epoch),
        ("deadline_ms", &deadline_ms),
        ("stream_every", &req.stream_every),
        ("cost_model", &req.cost_model),
    ]);
    match binary {
        true => encode_envelope(req.epoch, &suffix),
        false => serde_json::to_string(&suffix)
            .expect("requests always serialize")
            .into_bytes(),
    }
}

/// `Request::TuneShard`, serialized from borrowed fields.
struct TuneShardFields<'a>([(&'static str, &'a dyn Serialize); 9]);

impl Serialize for TuneShardFields<'_> {
    fn to_json(&self) -> serde::Json {
        let body = self.0.map(|(k, v)| (k.to_string(), v.to_json()));
        let body = serde::Json::Obj(body.into());
        serde::Json::Obj(vec![("TuneShard".to_string(), body)])
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        serde::binary::put_object(out, 1);
        serde::binary::put_key(out, "TuneShard");
        serde::binary::put_object(out, self.0.len());
        for (k, v) in self.0 {
            serde::binary::put_key(out, k);
            v.write_binary(out);
        }
    }
}

/// Serialize a response to a binary envelope payload.
pub fn encode_response_binary(corr: u64, resp: &Response) -> Vec<u8> {
    encode_envelope(corr, resp)
}

/// Decode a request from either encoding, sniffed by the first byte.
/// Returns `(correlation id, request, was_binary)`; JSON payloads get
/// correlation id 0 (the blocking protocol has exactly one in flight).
pub fn decode_request_any(payload: &[u8]) -> Result<(u64, Request, bool), WireError> {
    if is_binary(payload) {
        let (corr, req) = decode_envelope(payload)?;
        Ok((corr, req, true))
    } else {
        Ok((0, decode_request(payload)?, false))
    }
}

/// Decode a response from either encoding, sniffed by the first byte.
/// Returns `(correlation id, response, was_binary)`.
pub fn decode_response_any(payload: &[u8]) -> Result<(u64, Response, bool), WireError> {
    if is_binary(payload) {
        let (corr, resp) = decode_envelope(payload)?;
        Ok((corr, resp, true))
    } else {
        Ok((0, decode_response(payload)?, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &5u32.to_be_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"hello");
        // Second read: clean EOF at a boundary.
        assert!(matches!(read_frame(&mut r, 1024), Err(WireError::Closed)));
    }

    #[test]
    fn oversized_frame_rejected_before_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 30).to_be_bytes());
        // No payload bytes at all — the cap must fire on the header.
        let mut r = std::io::Cursor::new(buf);
        match read_frame(&mut r, 4096) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, 1 << 30);
                assert_eq!(max, 4096);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_and_payload_rejected() {
        let mut r = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(WireError::Truncated { expected: 4, .. })
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"short");
        let mut r = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(WireError::Truncated {
                expected: 100,
                got: 5
            })
        ));
    }

    #[test]
    fn garbage_payload_is_a_malformed_error() {
        assert!(matches!(
            decode_request(b"]]nonsense[["),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_request(&[0xFF, 0xFE, 0x00]),
            Err(WireError::Malformed(_))
        ));
        // Valid JSON, wrong shape.
        assert!(matches!(
            decode_response(b"{\"NoSuchVariant\": 3}"),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn large_frame_reads_back_whole_across_chunk_boundaries() {
        // A payload larger than READ_CHUNK must survive the
        // incremental-allocation path byte-for-byte.
        let payload: Vec<u8> = (0..READ_CHUNK + READ_CHUNK / 2 + 7)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), payload);
    }

    #[test]
    fn lying_length_prefix_holds_one_chunk_not_the_claimed_size() {
        // Prefix claims 8 MiB (legal under the cap) but only 3 bytes
        // follow. The reader must fail with Truncated having grown its
        // buffer by at most one chunk — the `got` in the error proves
        // how little actually arrived.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(8u32 << 20).to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = std::io::Cursor::new(buf);
        match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Err(WireError::Truncated { expected, got }) => {
                assert_eq!(expected, 8 << 20);
                assert_eq!(got, 3);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// A peer that sends a header claiming 8 MiB, three payload bytes,
    /// then nothing: every later read times out, like a socket with a
    /// read timeout. Records the largest buffer it was offered.
    struct StallingPeer {
        sent: Vec<u8>,
        at: usize,
        largest_offer: usize,
    }

    impl std::io::Read for StallingPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_offer = self.largest_offer.max(buf.len());
            if self.at == self.sent.len() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.sent.len() - self.at);
            buf[..n].copy_from_slice(&self.sent[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn poll_hook_stops_a_stalled_frame_holding_one_chunk() {
        let mut sent = (8u32 << 20).to_be_bytes().to_vec();
        sent.extend_from_slice(b"abc");
        let mut peer = StallingPeer {
            sent,
            at: 0,
            largest_offer: 0,
        };
        let mut timeouts = 0;
        let stop = read_frame_polled(&mut peer, DEFAULT_MAX_FRAME, |timed_out| {
            timeouts += usize::from(timed_out.is_some());
            (timeouts == 3).then_some(WireError::Closed)
        });
        assert!(matches!(stop, Err(WireError::Closed)), "got {stop:?}");
        assert_eq!(timeouts, 3, "each timed-out read reaches the hook");
        assert!(
            peer.largest_offer <= READ_CHUNK,
            "reader reserved {} bytes for a frame that sent 3",
            peer.largest_offer
        );
        // Without a hook that stops, the blocking entry point reports
        // the timeout itself.
        peer.at = 0;
        assert!(matches!(
            read_frame(&mut peer, DEFAULT_MAX_FRAME),
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock
        ));
    }

    /// A peer that delivers `sent`, then fails every read with `fail`.
    struct ResettingPeer {
        sent: std::io::Cursor<Vec<u8>>,
        fail: std::io::ErrorKind,
    }

    impl std::io::Read for ResettingPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match std::io::Read::read(&mut self.sent, buf)? {
                0 => Err(self.fail.into()),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn a_reset_at_a_frame_boundary_is_a_hang_up_and_mid_frame_an_error() {
        use std::io::ErrorKind::{ConnectionAborted, ConnectionReset};
        let mut one_frame = Vec::new();
        write_frame(&mut one_frame, b"ping").unwrap();
        for fail in [ConnectionReset, ConnectionAborted] {
            // After a whole frame: the next read is a clean hang-up.
            let mut peer = ResettingPeer {
                sent: std::io::Cursor::new(one_frame.clone()),
                fail,
            };
            assert_eq!(read_frame(&mut peer, 1024).unwrap(), b"ping");
            assert!(matches!(
                read_frame(&mut peer, 1024),
                Err(WireError::Closed)
            ));
            // Inside the header, and inside the payload: an error.
            for cut in [2, one_frame.len() - 1] {
                let mut peer = ResettingPeer {
                    sent: std::io::Cursor::new(one_frame[..cut].to_vec()),
                    fail,
                };
                assert!(
                    matches!(read_frame(&mut peer, 1024), Err(WireError::Io(e)) if e.kind() == fail),
                    "a {fail:?} after {cut} bytes"
                );
            }
        }
    }

    #[test]
    fn shard_reply_seal_verifies_and_flaws_are_detected() {
        let body = TuneShardBody {
            start_index: 40,
            count: 20,
            evaluated: 20,
            cancelled: false,
            best: None,
        };
        let reply = TuneShardReply::seal(9, body.clone());
        assert!(reply.verify(9).is_ok());
        // Wrong epoch: stale.
        assert!(matches!(
            reply.verify(10),
            Err(ShardReplyFlaw::StaleEpoch {
                got: 9,
                expected: 10
            })
        ));
        // Altered body under the same checksum: corrupt.
        let mut tampered = reply.clone();
        tampered.body.start_index = 3;
        assert!(matches!(
            tampered.verify(9),
            Err(ShardReplyFlaw::BadChecksum { .. })
        ));
        // Incomplete range: refused even with a valid checksum.
        let partial = TuneShardReply::seal(
            9,
            TuneShardBody {
                evaluated: 19,
                ..body
            },
        );
        assert!(matches!(
            partial.verify(9),
            Err(ShardReplyFlaw::Incomplete {
                evaluated: 19,
                count: 20
            })
        ));
    }

    #[test]
    fn single_digit_flip_in_serialized_reply_fails_verification() {
        // The corruption the fault proxy injects: one JSON digit
        // flipped, frame and JSON still valid. Every such flip must be
        // caught — by the checksum if the body changed, or by the
        // checksum *comparison* if the stored checksum itself changed.
        let reply = TuneShardReply::seal(
            7,
            TuneShardBody {
                start_index: 10,
                count: 5,
                evaluated: 5,
                cancelled: false,
                best: None,
            },
        );
        let bytes = encode_response(&Response::TuneSharded(reply));
        let mut flipped_any = false;
        for i in 0..bytes.len() {
            if !bytes[i].is_ascii_digit() {
                continue;
            }
            let mut forged = bytes.clone();
            forged[i] = if forged[i] == b'9' {
                b'1'
            } else {
                forged[i] + 1
            };
            // Flips that break JSON shape are caught even earlier.
            if let Ok(Response::TuneSharded(r)) = decode_response(&forged) {
                assert!(r.verify(7).is_err(), "undetected flip at byte {i}");
                flipped_any = true;
            }
        }
        assert!(flipped_any, "at least one flip must decode and be caught");
    }

    #[test]
    fn shard_part_seal_verifies_and_flaws_are_detected() {
        let body = TuneShardPartBody {
            start_index: 16,
            count: 8,
            best: None,
        };
        let part = TuneShardPart::seal(3, body.clone());
        assert!(part.verify(3).is_ok());
        assert!(matches!(
            part.verify(4),
            Err(ShardReplyFlaw::StaleEpoch {
                got: 3,
                expected: 4
            })
        ));
        let mut tampered = part.clone();
        tampered.body.count = 9;
        assert!(matches!(
            tampered.verify(3),
            Err(ShardReplyFlaw::BadChecksum { .. })
        ));
        // Parts round-trip through the response enum.
        let bytes = encode_response(&Response::TuneShardPart(part.clone()));
        match decode_response(&bytes).unwrap() {
            Response::TuneShardPart(p) => assert_eq!(p, part),
            other => panic!("expected TuneShardPart, got {}", other.kind()),
        }
    }

    #[test]
    fn single_digit_flip_in_serialized_part_fails_verification() {
        let part = TuneShardPart::seal(
            11,
            TuneShardPartBody {
                start_index: 24,
                count: 8,
                best: None,
            },
        );
        let bytes = encode_response(&Response::TuneShardPart(part));
        let mut flipped_any = false;
        for i in 0..bytes.len() {
            if !bytes[i].is_ascii_digit() {
                continue;
            }
            let mut forged = bytes.clone();
            forged[i] = if forged[i] == b'9' {
                b'1'
            } else {
                forged[i] + 1
            };
            if let Ok(Response::TuneShardPart(p)) = decode_response(&forged) {
                assert!(p.verify(11).is_err(), "undetected flip at byte {i}");
                flipped_any = true;
            }
        }
        assert!(flipped_any, "at least one flip must decode and be caught");
    }

    #[test]
    fn session_edit_seal_verifies_and_corruption_is_detected() {
        let edits = vec![
            GraphEdit::RemoveNode { id: 4 },
            GraphEdit::ResizeTile { tile_bits: 2048 },
        ];
        let req = SessionEditRequest::seal(17, 3, edits.clone());
        assert_eq!(req.checksum, SessionEditRequest::checksum_of(3, &edits));
        assert!(req.verify().is_ok());
        // An altered edit list under the stale checksum: refused.
        let mut tampered = req.clone();
        tampered.edits[0] = GraphEdit::RemoveNode { id: 5 };
        assert!(tampered.verify().is_err());
        // A re-stamped epoch also invalidates the checksum: the seal
        // binds the batch to the graph state it was built against.
        let mut restamped = req.clone();
        restamped.epoch = 4;
        assert!(restamped.verify().is_err());
    }

    #[test]
    fn single_digit_flip_in_serialized_edit_batch_fails_verification() {
        let req = SessionEditRequest::seal(
            9,
            12,
            vec![
                GraphEdit::RetargetEdge {
                    node: 31,
                    slot: 0,
                    new_dep: 17,
                },
                GraphEdit::RemoveNode { id: 40 },
            ],
        );
        let bytes = encode_request(&Request::SessionEdit(req));
        let mut flipped_any = false;
        for i in 0..bytes.len() {
            if !bytes[i].is_ascii_digit() {
                continue;
            }
            let mut forged = bytes.clone();
            forged[i] = if forged[i] == b'9' {
                b'1'
            } else {
                forged[i] + 1
            };
            if let Ok(Request::SessionEdit(r)) = decode_request(&forged) {
                // A flip inside `session_id` leaves the sealed
                // (epoch, edits) intact — routing, not content.
                if r.session_id != 9 {
                    continue;
                }
                assert!(r.verify().is_err(), "undetected flip at byte {i}");
                flipped_any = true;
            }
        }
        assert!(flipped_any, "at least one flip must decode and be caught");
    }

    #[test]
    fn session_requests_and_replies_round_trip() {
        let open = Request::SessionOpen(SessionOpenRequest {
            graph: DataflowGraph::new("g", 32),
            machine: MachineConfig::n5(2, 2),
            fom: FigureOfMerit::Edp,
            candidates: vec![],
            max_candidates: Some(8),
            convergence_window: None,
            cost_model: Some("spatial".to_string()),
        });
        assert_eq!(open.endpoint(), "session_open");
        match decode_request(&encode_request(&open)).unwrap() {
            Request::SessionOpen(r) => {
                assert_eq!(r.max_candidates, Some(8));
                assert_eq!(r.cost_model.as_deref(), Some("spatial"));
            }
            other => panic!("expected SessionOpen, got {}", other.endpoint()),
        }

        let tune = Request::SessionTune(SessionTuneRequest {
            session_id: 5,
            deadline_ms: Some(250),
            cost_model: None,
        });
        assert_eq!(tune.endpoint(), "session_tune");
        let close = Request::SessionClose(SessionCloseRequest { session_id: 5 });
        assert_eq!(close.endpoint(), "session_close");

        let missing = Response::NoSuchSession(NoSuchSessionReply { session_id: 99 });
        assert_eq!(missing.kind(), "no-such-session");
        match decode_response(&encode_response(&missing)).unwrap() {
            Response::NoSuchSession(r) => assert_eq!(r.session_id, 99),
            other => panic!("expected NoSuchSession, got {}", other.kind()),
        }

        let edited = Response::SessionEdited(SessionEditedReply {
            session_id: 5,
            epoch: 7,
            applied: 3,
            cone: 11,
        });
        assert_eq!(edited.kind(), "session-edited");
        match decode_response(&encode_response(&edited)).unwrap() {
            Response::SessionEdited(r) => {
                assert_eq!((r.epoch, r.applied, r.cone), (7, 3, 11));
            }
            other => panic!("expected SessionEdited, got {}", other.kind()),
        }
    }

    #[test]
    fn ping_round_trips_through_frames() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_request(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Request::Ping
        );
    }

    #[test]
    fn binary_envelope_round_trips_requests_with_correlation_ids() {
        let req = Request::Tune(TuneRequest {
            graph: DataflowGraph::new("g", 32),
            machine: MachineConfig::n5(2, 2),
            fom: FigureOfMerit::Edp,
            candidates: vec![],
            deadline_ms: Some(125),
            max_candidates: None,
            convergence_window: Some(4),
            refinement: None,
            use_cache: true,
            cost_model: Some("roofline".to_string()),
        });
        let payload = encode_request_binary(0xDEAD_BEEF_0042, &req);
        assert!(is_binary(&payload));
        assert_eq!(payload[0], BINARY_MAGIC);
        assert_eq!(payload[1], PROTOCOL_BINARY_VERSION);
        let (corr, got, was_binary) = decode_request_any(&payload).unwrap();
        assert_eq!(corr, 0xDEAD_BEEF_0042);
        assert!(was_binary);
        assert_eq!(got, req);
        // The JSON path still decodes with corr 0 and the same value.
        let (corr, got, was_binary) = decode_request_any(&encode_request(&req)).unwrap();
        assert_eq!(corr, 0);
        assert!(!was_binary);
        assert_eq!(got, req);
    }

    #[test]
    fn binary_and_json_encodings_agree_on_every_scalar_shape() {
        // One response exercising null, bool, signed, float, string,
        // array, object — decoded from binary, re-encoded as JSON, it
        // must be byte-identical to the directly-JSON-encoded original.
        let resp = Response::Tuned(TuneReply {
            best: None,
            offered: 17,
            evaluated: 12,
            pruned: 5,
            cache: "miss".into(),
            fell_back: false,
            cancelled: true,
            wall_ms: 1.5,
        });
        let (corr, decoded, _) = decode_response_any(&encode_response_binary(7, &resp)).unwrap();
        assert_eq!(corr, 7);
        assert_eq!(encode_response(&decoded), encode_response(&resp));
    }

    #[test]
    fn binary_compact_encoding_is_smaller_than_json() {
        let resp = Response::Stats(Box::new(crate::metrics::Metrics::default().snapshot(64)));
        let json = encode_response(&resp).len();
        let binary = encode_response_binary(1, &resp).len();
        assert!(
            binary < json,
            "binary ({binary} bytes) should undercut JSON ({json} bytes)"
        );
    }

    #[test]
    fn truncated_and_malformed_binary_envelopes_are_typed_errors() {
        let payload = encode_request_binary(3, &Request::Ping);
        // Every proper prefix must fail Malformed, never panic.
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    decode_request_any(&payload[..cut]),
                    Err(WireError::Malformed(_)) | Err(WireError::Closed)
                ) || cut == 0,
                "prefix of {cut} bytes not rejected"
            );
        }
        // Unknown version byte.
        let mut wrong_version = payload.clone();
        wrong_version[1] = PROTOCOL_BINARY_VERSION + 1;
        assert!(matches!(
            decode_request_any(&wrong_version),
            Err(WireError::Malformed(_))
        ));
        // Unknown value tag.
        let mut bad_tag = payload.clone();
        bad_tag[BINARY_HEADER] = 0x3F;
        assert!(matches!(
            decode_request_any(&bad_tag),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage after a complete value.
        let mut trailing = payload.clone();
        trailing.push(0x00);
        assert!(matches!(
            decode_request_any(&trailing),
            Err(WireError::Malformed(_))
        ));
        // A lying array count larger than the frame could hold.
        let mut lying = Vec::new();
        lying.push(BINARY_MAGIC);
        lying.push(PROTOCOL_BINARY_VERSION);
        lying.extend_from_slice(&0u64.to_be_bytes());
        serde::binary::put_array(&mut lying, u32::MAX as usize);
        assert!(matches!(
            decode_envelope::<serde::Json>(&lying),
            Err(WireError::Malformed(_))
        ));
    }

    fn tune_of(graph: DataflowGraph) -> Request {
        Request::Tune(TuneRequest {
            graph,
            machine: MachineConfig::n5(2, 2),
            fom: FigureOfMerit::Edp,
            candidates: vec![],
            deadline_ms: None,
            max_candidates: None,
            convergence_window: None,
            refinement: None,
            use_cache: false,
            cost_model: None,
        })
    }

    #[test]
    fn typed_decoder_refuses_a_lying_node_count() {
        // An empty graph's `"nodes": []` patched to claim u32::MAX
        // nodes: the typed decoder must fail on the missing bytes, not
        // reserve room for the claimed count first.
        let mut frame = encode_request_binary(5, &tune_of(DataflowGraph::new("g", 32)));
        let empty_nodes = b"\x05nodes\x07\x00";
        let at = frame
            .windows(empty_nodes.len())
            .position(|w| w == empty_nodes)
            .expect("the frame holds an empty nodes array")
            + empty_nodes.len()
            - 1;
        let mut claim = Vec::new();
        serde::binary::put_varint(&mut claim, u32::MAX as u64);
        frame.splice(at..at + 1, claim);
        assert!(matches!(
            decode_request_any(&frame),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn typed_decoder_refuses_a_neg_chain_past_the_depth_cap() {
        use fm_core::dataflow::CExpr;
        use fm_core::value::Value;
        let chain = |depth: usize| {
            let mut expr = CExpr::konst(Value::real(1.0));
            for _ in 0..depth {
                expr = CExpr::Neg(Box::new(expr));
            }
            let mut g = DataflowGraph::new("deep", 32);
            g.add_node(expr, vec![], vec![0]);
            tune_of(g)
        };
        // The request itself nests a few levels above the expression.
        let shallow = chain(BINARY_MAX_DEPTH / 2);
        let (_, got, _) = decode_request_any(&encode_request_binary(1, &shallow)).unwrap();
        assert_eq!(got, shallow);
        let deep = encode_request_binary(1, &chain(BINARY_MAX_DEPTH + 8));
        assert!(matches!(
            decode_request_any(&deep),
            Err(WireError::Malformed(_))
        ));
        // The tree reader draws the line at the same depth.
        assert!(decode_envelope::<serde::Json>(&deep).is_err());
    }

    #[test]
    fn deeply_nested_binary_values_are_rejected_not_overflowed() {
        let mut payload = Vec::new();
        payload.push(BINARY_MAGIC);
        payload.push(PROTOCOL_BINARY_VERSION);
        payload.extend_from_slice(&0u64.to_be_bytes());
        for _ in 0..(BINARY_MAX_DEPTH + 8) {
            payload.push(0x07); // array of 1 element…
            payload.push(0x01);
        }
        payload.push(0x00); // …bottoming out in a null
        assert!(matches!(
            decode_envelope::<serde::Json>(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn hello_negotiation_frames_round_trip_in_both_encodings() {
        let hello = Request::Hello(HelloRequest {
            max_version: PROTOCOL_BINARY_VERSION,
            pipeline: true,
        });
        assert_eq!(hello.endpoint(), "hello");
        // Hello is sent as JSON (the encoding every server decodes)…
        assert_eq!(decode_request(&encode_request(&hello)).unwrap(), hello);
        // …but like everything else it also survives the binary path.
        let (_, got, _) = decode_request_any(&encode_request_binary(0, &hello)).unwrap();
        assert_eq!(got, hello);

        let ack = Response::HelloAck(HelloAckReply {
            version: 1,
            pipeline: true,
        });
        assert_eq!(ack.kind(), "hello-ack");
        match decode_response(&encode_response(&ack)).unwrap() {
            Response::HelloAck(a) => assert_eq!((a.version, a.pipeline), (1, true)),
            other => panic!("expected HelloAck, got {}", other.kind()),
        }
    }

    #[test]
    fn non_finite_floats_survive_binary_exactly() {
        use serde::Json;
        let v = Json::Arr(vec![
            Json::F64(f64::NAN),
            Json::F64(f64::INFINITY),
            Json::F64(-0.0),
        ]);
        let payload = encode_envelope(9, &v);
        let (corr, got) = decode_envelope::<Json>(&payload).unwrap();
        assert_eq!(corr, 9);
        let items = got.as_arr().unwrap();
        assert!(matches!(items[0], Json::F64(f) if f.is_nan()));
        assert!(matches!(items[1], Json::F64(f) if f.is_infinite() && f > 0.0));
        assert!(matches!(items[2], Json::F64(f) if f == 0.0 && f.is_sign_negative()));
        // The typed path keeps the bits too.
        let nan = f64::from_bits(0x7FF8_0000_0000_0123);
        let resp = Response::Simulated(SimulateReply {
            cycles_scheduled: 1,
            cycles_actual: 1,
            slowdown: nan,
            stalled_elements: 0,
            total_stall_cycles: 0,
            messages_delivered: 0,
            link_wait_cycles: 0,
            predicted_energy_fj: f64::NEG_INFINITY,
            simulated_energy_fj: -0.0,
        });
        match decode_response_any(&encode_response_binary(9, &resp))
            .unwrap()
            .1
        {
            Response::Simulated(r) => {
                assert_eq!(r.slowdown.to_bits(), nan.to_bits());
                assert_eq!(r.predicted_energy_fj, f64::NEG_INFINITY);
                assert_eq!(r.simulated_energy_fj.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("expected Simulated, got {}", other.kind()),
        }
    }
}
