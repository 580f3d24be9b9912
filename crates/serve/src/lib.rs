//! # fm-serve: mapping-as-a-service
//!
//! A std-only daemon that puts the whole F&M toolchain — autotuning
//! searches (`fm-autotune`), cost evaluation (`fm-core`), and
//! cycle-level simulation (`fm-grid`) — behind one TCP socket, so a
//! compiler, a sweep script, or a CI job can ask for mappings without
//! linking the crates or paying cold-start costs per query. One
//! resident server amortises the tuner thread pool and the persistent
//! tuning cache across every request.
//!
//! ## Protocol
//!
//! Length-prefixed frames: each frame is a 4-byte big-endian length
//! followed by that many bytes of payload ([`protocol`]). A payload is
//! either JSON (the original wire format, still accepted verbatim) or
//! the compact binary envelope — a `0xB1` magic byte, a codec version,
//! an 8-byte correlation id, then the varint-packed binary encoding of
//! the same externally-tagged value tree the JSON form serializes.
//! Clients opt in per connection with a `Hello` handshake; servers
//! that predate negotiation answer `Failed{kind:"protocol"}` and the
//! client transparently falls back to JSON. Requests:
//!
//! | request | answer | what it does |
//! |---|---|---|
//! | `Hello` | `HelloAck` | negotiate binary framing + pipelining (never queued) |
//! | `Ping` | `Pong` | liveness |
//! | `Tune` | `Tuned` | ranked mapping search via the shared tuner + cache |
//! | `TuneShard` | `TuneSharded` | one sub-range of a fleet tune (checksummed, epoch-stamped) |
//! | `Evaluate` | `Evaluated` | legality + predicted [`CostReport`](fm_core::cost::CostReport) |
//! | `Simulate` | `Simulated` | cycle-level run, predicted-vs-simulated slowdown |
//! | `Stats` | `Stats` | live metrics snapshot (never queued) |
//! | `SessionOpen` | `SessionOpened` | register a live graph + candidate set, get a session id |
//! | `SessionEdit` | `SessionEdited` | apply a sealed, epoch-stamped edit batch to the session graph |
//! | `SessionTune` | `SessionTuned` | warm re-tune seeded from repaired candidate costs ([`session`]) |
//! | `SessionClose` | `SessionClosed` | retire the session, report lifetime tallies |
//! | `ShardJoin` | `Membership` | admit a shard into the running fleet roster (never queued) |
//! | `ShardLeave` | `Membership` | retire a shard; its in-flight suffixes re-dispatch (never queued) |
//! | `Shutdown` | `ShuttingDown` | drain admitted work, then exit |
//!
//! On a negotiated pipelined connection the client may keep many
//! requests in flight; replies carry the request's correlation id and
//! return in completion order, so a cheap `Ping` overtakes a long
//! `Tune` queued ahead of it. A connection that never negotiated keeps
//! one request in flight and gets each reply in its request's
//! encoding, in request order. Queued `Tune` requests with identical
//! bodies are deduplicated into one search whose answer fans out to
//! every waiter (`--dedup off` disables this).
//!
//! Any work request may instead receive `Busy` (bounded admission
//! queue is full — retry later) or `Failed` (typed error). Session
//! requests naming an unknown, closed, or idle-evicted session get the
//! typed `NoSuchSession` reply, so clients can transparently reopen
//! instead of pattern-matching error strings.
//!
//! ## Production plumbing
//!
//! * bounded admission with explicit backpressure ([`server`]),
//! * per-request deadlines threaded into tuner budgets plus a
//!   [`CancelToken`](fm_autotune::CancelToken) so expired or
//!   disconnected clients stop burning cores mid-search,
//! * graceful drain-then-exit shutdown,
//! * lock-free in-process metrics ([`metrics`]): per-endpoint request
//!   counters and latency histograms (p50/p95/p99), queue depth,
//!   cache hit rate,
//! * fault-tolerant sharded search ([`fleet`]): a server started with
//!   `--fleet host:port,...` partitions each eligible `Tune` across
//!   backend shards and merges by `(score, index)` — bit-identical to
//!   a single-machine tune even under dead, slow, or frame-corrupting
//!   shards (deterministically testable via [`fault`]),
//! * elastic membership ([`membership`]): shards join and leave the
//!   running fleet (`ShardJoin`/`ShardLeave`), EWMA throughput weights
//!   persist across coordinator restarts in a corrupt-tolerant JSON
//!   ledger, and retries, hedges, departures and throughput cliffs all
//!   re-dispatch a range's unfinished suffix through one path.
//!
//! ## Quickstart
//!
//! ```no_run
//! use fm_serve::client::Client;
//! use fm_serve::server::{Server, ServerConfig};
//!
//! let handle = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! client.ping().unwrap();
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.ping.received, 1);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

pub mod client;
pub mod fault;
pub mod fleet;
pub mod membership;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError};
pub use fault::{FaultAction, FaultPlan, FaultProxy};
pub use fleet::{Fleet, FleetConfig};
pub use membership::{LedgerDoc, LedgerEntry, Membership, LEDGER_SCHEMA_VERSION};
pub use metrics::{
    EndpointStats, FleetStatsReply, LatencyStats, SessionStatsReply, ShardStats, StatsReply,
};
pub use protocol::{
    BusyReply, EvaluateReply, EvaluateRequest, FailReply, HelloAckReply, HelloRequest,
    MembershipReply, NoSuchSessionReply, Request, Response, SessionCloseRequest,
    SessionClosedReply, SessionEditRequest, SessionEditedReply, SessionOpenRequest,
    SessionOpenedReply, SessionTuneRequest, SessionTunedReply, ShardJoinRequest, ShardLeaveRequest,
    ShardReplyFlaw, SimulateReply, SimulateRequest, TuneReply, TuneRequest, TuneShardBody,
    TuneShardReply, TuneShardRequest, WireCandidate, WireError, DEFAULT_MAX_FRAME,
    PROTOCOL_BINARY_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{EditOutcome, SessionRegistry, SessionState, SessionTuneOutcome};
