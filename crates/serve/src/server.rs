//! The daemon: acceptor, one loop per connection, bounded admission
//! queue, worker pool, deadlines, cancellation, and graceful drain.
//!
//! ```text
//!                 ┌─────────────────────────── Shared ────────────────────────────┐
//! client ──TCP──▶ acceptor ──▶ reader ──try_admit──▶ [bounded queue] ──▶ worker   │
//!   ▲             │            │  ledger: corr → (cancel, deadline)      │        │
//!   │             │            │  full → `Busy` (never buffered)         │        │
//!   │             │            ▼  inline replies                         │        │
//!   └──TCP────────writer ◀───── reply (mpsc) ◀───────────────────────────┘        │
//!                 │               metrics ◀── everyone                            │
//!                 └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! Design rules, in order:
//!
//! * **bounded memory** — a request is either executing, in the
//!   fixed-capacity queue, or refused with [`Response::Busy`]; there is
//!   no unbounded buffer anywhere (frames are length-checked before
//!   they are read, the queue before it is pushed);
//! * **one loop per connection** — every accepted connection gets a
//!   reader, which answers `Hello`/`Ping`/`Stats`/membership/`Shutdown`
//!   inline and admits work, and a writer thread that owns the write
//!   half and sends each reply in its request's encoding. A connection
//!   that negotiated pipelining keeps any number of requests in flight,
//!   answered in completion order; one that did not — JSON clients and
//!   fleet shard links — keeps one, so its replies keep request order;
//! * **deadlines propagate** — a request's `deadline_ms` becomes a
//!   tuner [`Budget::deadline`](fm_autotune::Budget) *and* a
//!   [`CancelToken`] in its connection's in-flight ledger. The reader
//!   wakes at least every 25 ms; it cancels a token whose deadline has
//!   passed, and every token when the peer hangs up, so an expired or
//!   abandoned request stops burning cores between candidate
//!   evaluations and still receives its best-so-far partial result (if
//!   the peer is still connected to read it);
//! * **drain, then exit** — shutdown closes admission first; admitted
//!   requests run to completion and their replies are delivered before
//!   any thread exits.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use serde::Serialize;

use fm_autotune::{Budget, CacheStatus, CancelToken, TuneReport, Tuner, TuningCache};
use fm_core::cost::Evaluator;
use fm_core::search::MappingCandidate;
use fm_costmodel::CostModelKind;
use fm_grid::{SimConfig, Simulator};
use fm_workspan::ThreadPool;

use crate::fleet::{Fleet, FleetConfig};
use crate::metrics::{Metrics, StatsReply};
use crate::protocol::{
    decode_request_any, encode_response, encode_response_binary, queue_frame, read_frame_polled,
    BusyReply, EvaluateReply, EvaluateRequest, FailReply, HelloAckReply, MembershipReply,
    NoSuchSessionReply, Request, Response, SessionCloseRequest, SessionClosedReply,
    SessionEditRequest, SessionEditedReply, SessionOpenRequest, SessionOpenedReply,
    SessionTuneRequest, SessionTunedReply, ShardBest, SimulateReply, SimulateRequest, TuneReply,
    TuneRequest, TuneShardBody, TuneShardPart, TuneShardPartBody, TuneShardReply, TuneShardRequest,
    WireError, DEFAULT_MAX_FRAME, PROTOCOL_BINARY_VERSION,
};
use crate::session::{EditOutcome, SessionRegistry, SessionState};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing admitted requests (each `Tune`
    /// additionally fans candidates across the shared tuner pool).
    pub workers: usize,
    /// Threads in the shared `fm-workspan` pool reused across requests.
    pub tuner_threads: usize,
    /// Admission-queue capacity: requests beyond this are refused with
    /// `Busy`, never buffered.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Directory for the persistent tuning cache shared by `Tune`
    /// requests with `use_cache`; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Largest accepted frame payload.
    pub max_frame: usize,
    /// Run as a fleet coordinator over these shards: eligible `Tune`
    /// requests are partitioned across the backends and merged (see
    /// [`crate::fleet`]). `None` serves every request locally.
    pub fleet: Option<FleetConfig>,
    /// Scripted per-candidate slowdown for `TuneShard` work, in
    /// milliseconds: a bench/chaos hook that makes *this* server a
    /// deterministic straggler. Applied identically on the blocking and
    /// streaming paths (it models slow compute, not slow frames), so
    /// comparisons between the two stay fair. `None` in production.
    pub straggle_ms_per_candidate: Option<u64>,
    /// Evict sessions idle for at least this long (no edit, tune, or
    /// close touched them). `None` keeps sessions until closed — fine
    /// for trusted clients, a leak under crash-prone ones.
    pub session_ttl: Option<Duration>,
    /// Coalesce queued `Tune` requests with identical content (same
    /// graph, machine, objective, candidates, and search knobs —
    /// deadlines excluded) into one search whose result fans out to
    /// every waiter. The search is deterministic, so the waiters get
    /// bit-identical winners to the searches they skipped. The batch
    /// runs under the *first* request's cancellation token; a waiter
    /// disconnecting does not stop it.
    pub dedup_tunes: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServerConfig {
            workers: 2,
            tuner_threads: cores.min(8),
            queue_capacity: 64,
            default_deadline_ms: None,
            cache_dir: None,
            max_frame: DEFAULT_MAX_FRAME,
            fleet: None,
            straggle_ms_per_candidate: None,
            session_ttl: None,
            dedup_tunes: true,
        }
    }
}

/// Where a request's responses go: the writer of the connection that
/// read it, addressed like the request. `corr` is the request's
/// correlation id (0 for JSON, which carries none); `binary` says
/// whether replies go out as binary envelopes carrying it. They do on
/// a pipelined connection and for binary requests; a JSON request on a
/// connection that did not negotiate is answered in JSON.
#[derive(Clone)]
struct Reply {
    corr: u64,
    binary: bool,
    tx: mpsc::Sender<Outbound>,
}

/// One response on its way to a connection's writer.
struct Outbound {
    corr: u64,
    binary: bool,
    resp: Response,
}

impl Reply {
    /// Deliver the response; `false` means the connection side is gone
    /// (the reply is dropped, never an error for the worker).
    fn send(&self, resp: Response) -> bool {
        let out = Outbound {
            corr: self.corr,
            binary: self.binary,
            resp,
        };
        self.tx.send(out).is_ok()
    }
}

/// One admitted request, waiting for (or undergoing) execution.
struct Job {
    request: Request,
    accepted: Instant,
    deadline: Option<Instant>,
    cancel: CancelToken,
    /// Dedup key for queued `Tune` coalescing: content hash plus the
    /// full canonical bytes (equality is checked on the bytes, so an
    /// FNV collision can never merge two different searches).
    fingerprint: Option<(u64, Arc<Vec<u8>>)>,
    reply: Reply,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    config: ServerConfig,
    metrics: Metrics,
    pool: ThreadPool,
    cache: Option<TuningCache>,
    fleet: Option<Arc<Fleet>>,
    sessions: SessionRegistry,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// The `Stats` reply. Each gauge is read from its owner first — queue
    /// depth from the queue, open sessions from the registry, the fleet
    /// section from its membership table and breakers — and then the
    /// counters, so no metrics lock is held while another is taken.
    fn stats(&self) -> StatsReply {
        let queue_depth = self.queue.lock().jobs.len() as u64;
        let open = self.sessions.len() as u64;
        let fleet = self.fleet.as_ref().map(|f| f.membership().stats());
        let mut stats = self.metrics.snapshot(self.config.queue_capacity);
        stats.queue_depth = queue_depth;
        stats.sessions.open = open;
        stats.fleet = fleet;
        stats
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Idempotently begin the drain: close admission, wake everyone.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut q = self.queue.lock();
            q.closed = true;
        }
        self.queue_cv.notify_all();
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection; it re-checks the flag on wake.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Push unless full or closed, returning the depth after the push;
    /// `None` means refused (the job is dropped — it was never
    /// buffered).
    fn try_admit(&self, job: Job) -> Option<usize> {
        let depth = {
            let mut q = self.queue.lock();
            if q.closed || q.jobs.len() >= self.config.queue_capacity {
                return None;
            }
            q.jobs.push_back(job);
            q.jobs.len()
        };
        self.queue_cv.notify_one();
        Some(depth)
    }

    /// Blocking pop; `None` once the queue is closed *and* empty (the
    /// drain guarantee: every admitted job is handed to a worker).
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock();
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            self.queue_cv.wait_for(&mut q, Duration::from_millis(100));
        }
    }

    /// Remove every queued job whose dedup fingerprint equals `key`
    /// (hash *and* canonical bytes — a hash collision never merges
    /// two different searches). The caller answers them all from one
    /// execution.
    fn take_matching(&self, key: &(u64, Arc<Vec<u8>>)) -> Vec<Job> {
        let mut taken = Vec::new();
        let mut q = self.queue.lock();
        let mut kept = VecDeque::with_capacity(q.jobs.len());
        for job in q.jobs.drain(..) {
            let dup = job
                .fingerprint
                .as_ref()
                .is_some_and(|(h, b)| *h == key.0 && **b == *key.1);
            if dup {
                taken.push(job);
            } else {
                kept.push_back(job);
            }
        }
        q.jobs = kept;
        taken
    }
}

/// Dedup key for a queued `Tune`: [`word_hash`] over the binary
/// encoding of everything that determines the search result — the same
/// components the tuning cache fingerprints — plus the admission knobs
/// that shape the reply. Deadlines are deliberately excluded: two
/// callers asking the same question with different patience still share
/// one search.
/// Each component's encoding is self-delimiting, so their
/// concatenation needs no separator, and it keeps every float's bits:
/// two requests share a key only if every component is bit-identical.
fn tune_dedup_key(req: &TuneRequest) -> (u64, Arc<Vec<u8>>) {
    let mut bytes = Vec::new();
    req.graph.write_binary(&mut bytes);
    req.machine.write_binary(&mut bytes);
    req.fom.write_binary(&mut bytes);
    req.candidates.write_binary(&mut bytes);
    req.max_candidates.write_binary(&mut bytes);
    req.convergence_window.write_binary(&mut bytes);
    req.refinement.write_binary(&mut bytes);
    req.use_cache.write_binary(&mut bytes);
    req.cost_model.write_binary(&mut bytes);
    (word_hash(&bytes), Arc::new(bytes))
}

/// A hash of `bytes` that takes eight of them per step (a
/// multiply-rotate mix over little-endian words, the length folded in
/// first). It keys the admission queue's dedup matches only: it is
/// never stored or sent, and a match on it is confirmed byte for byte,
/// so it need agree with no other hash.
fn word_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let mut words = bytes.chunks_exact(8);
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    for w in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    h ^ (h >> 32)
}

/// Resolve a request's optional `cost_model` name. Unknown names are a
/// typed refusal (kind `"cost-model"`), never a silent fall-back to
/// the default — a client asking for a model this server doesn't
/// implement must find out, not get analytic numbers labeled as
/// something else.
fn parse_cost_model(name: Option<&str>) -> Result<CostModelKind, FailReply> {
    match name {
        None => Ok(CostModelKind::Analytic),
        Some(n) => CostModelKind::from_name(n).ok_or_else(|| FailReply {
            kind: "cost-model".to_string(),
            error: format!("unknown cost model {n:?} (expected analytic, roofline, or spatial)"),
        }),
    }
}

/// Apply a `ShardJoin`/`ShardLeave` to the fleet roster. Handled
/// inline (never queued), like `Stats`: membership changes must land
/// even — especially — when the admission queue is saturated with work
/// for the very shard that is leaving. On a non-coordinator server the
/// request is a typed refusal.
fn membership_change(shared: &Shared, addr: &str, join: bool) -> Response {
    let Some(fleet) = &shared.fleet else {
        return Response::Failed(FailReply {
            kind: "illegal".to_string(),
            error: "not a fleet coordinator (start with --fleet)".to_string(),
        });
    };
    let roster = fleet.membership();
    let (epoch, changed) = if join {
        roster.join(addr)
    } else {
        roster.leave(addr)
    };
    Response::Membership(MembershipReply {
        epoch,
        members: roster.members(),
        changed,
    })
}

/// A running server. Obtain with [`Server::start`]; stop with
/// [`ServerHandle::shutdown`] + [`ServerHandle::join`] (or a wire
/// [`Request::Shutdown`]).
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// acceptor and worker threads.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let cache = config.cache_dir.as_ref().and_then(TuningCache::open);
        let fleet = config.fleet.clone().map(Fleet::new);
        let shared = Arc::new(Shared {
            pool: ThreadPool::with_threads(config.tuner_threads.max(1)),
            metrics: Metrics::default(),
            cache,
            fleet,
            sessions: SessionRegistry::default(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
            conn_handles: Mutex::new(Vec::new()),
            config,
        });

        let mut workers: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fm-serve-worker-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawn worker")
            })
            .collect();

        // Idle-session sweeper: wakes a few times per TTL (but at
        // least every 500 ms, so shutdown join is never held hostage
        // by a long TTL) and evicts sessions untouched for a full TTL.
        if let Some(ttl) = shared.config.session_ttl {
            let shared = Arc::clone(&shared);
            let tick = (ttl / 4).clamp(Duration::from_millis(25), Duration::from_millis(500));
            workers.push(
                std::thread::Builder::new()
                    .name("fm-serve-session-sweeper".to_string())
                    .spawn(move || {
                        while !shared.is_shutdown() {
                            std::thread::sleep(tick);
                            let evicted = shared.sessions.evict_idle(ttl);
                            if evicted > 0 {
                                shared.metrics.count(|s| s.sessions.evicted += evicted);
                            }
                        }
                    })
                    .expect("spawn session sweeper"),
            );
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fm-serve-acceptor".to_string())
                .spawn(move || acceptor_main(&shared, listener))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Live metrics snapshot (same data as the `Stats` endpoint).
    pub fn stats(&self) -> StatsReply {
        self.shared.stats()
    }

    /// Begin the graceful drain (idempotent, non-blocking): admission
    /// closes immediately, admitted requests still complete.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the server to finish: blocks until shutdown is
    /// triggered (by [`ServerHandle::shutdown`] or a wire
    /// [`Request::Shutdown`]), the queue drains, every reply is
    /// delivered, and all threads exit. Returns the final stats.
    pub fn join(mut self) -> StatsReply {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        loop {
            let handle = self.shared.conn_handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats()
    }

    /// Convenience: trigger the drain and wait it out.
    pub fn shutdown_and_join(self) -> StatsReply {
        self.shutdown();
        self.join()
    }
}

fn acceptor_main(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.is_shutdown() {
                    break;
                }
                shared.metrics.count(|s| s.connections += 1);
                let shared2 = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("fm-serve-conn".to_string())
                    .spawn(move || serve_connection(&shared2, stream))
                    .expect("spawn connection thread");
                let mut handles = shared.conn_handles.lock();
                // An exited thread keeps its stack until its handle is
                // joined or dropped: let go of the closed connections'
                // handles, or a server dialled once per request (a fleet
                // shard) grows by one thread stack per connection.
                handles.retain(|h| !h.is_finished());
                handles.push(handle);
            }
            Err(_) => {
                if shared.is_shutdown() {
                    break;
                }
            }
        }
    }
}

/// How long a connection's reader waits — in a socket read, or for its
/// in-flight requests to finish — before it checks its requests'
/// deadlines (and, in a read, the shutdown flag) again.
const POLL: Duration = Duration::from_millis(25);

/// A request in flight on one connection: its cancel token and deadline.
type InFlight = (CancelToken, Option<Instant>);

/// A connection's in-flight requests by correlation id: its
/// cancellation and drain state. The reader inserts an id before
/// admission; the writer retires it when it takes the terminal reply,
/// before writing it (streamed `TuneShardPart` frames keep the entry
/// alive), so a peer holding its reply never finds the request still in
/// flight. The reader cancels what outlives its deadline; everything is
/// cancelled when the peer or the socket goes; a draining connection
/// waits for the ledger to empty.
#[derive(Default)]
struct Ledger {
    inflight: Mutex<HashMap<u64, InFlight>>,
    emptied: Condvar,
}

impl Ledger {
    /// Record an admitted request; returns how many are now in flight.
    fn admit(&self, corr: u64, cancel: CancelToken, deadline: Option<Instant>) -> u64 {
        let mut inflight = self.inflight.lock();
        inflight.insert(corr, (cancel, deadline));
        inflight.len() as u64
    }

    fn retire(&self, corr: u64) {
        let mut inflight = self.inflight.lock();
        inflight.remove(&corr);
        if inflight.is_empty() {
            self.emptied.notify_all();
        }
    }

    /// Cancel and forget everything in flight: nobody is left to read
    /// the answers.
    fn cancel_all(&self, metrics: &Metrics) {
        let mut inflight = self.inflight.lock();
        for (cancel, _) in inflight.values() {
            cancel_once(cancel, metrics);
        }
        inflight.clear();
        self.emptied.notify_all();
    }

    /// Block until nothing is in flight, cancelling requests as their
    /// deadlines pass.
    fn wait_empty(&self, metrics: &Metrics) {
        let mut inflight = self.inflight.lock();
        while !inflight.is_empty() {
            self.emptied.wait_for(&mut inflight, POLL);
            expire_deadlines(&inflight, metrics);
        }
    }
}

/// Cancel every in-flight request whose deadline has passed.
fn expire_deadlines(inflight: &HashMap<u64, InFlight>, metrics: &Metrics) {
    let now = Instant::now();
    for (cancel, deadline) in inflight.values() {
        if deadline.is_some_and(|d| now >= d) {
            cancel_once(cancel, metrics);
        }
    }
}

/// Cancel a request, counting it in `Stats.cancelled` the first time.
fn cancel_once(cancel: &CancelToken, metrics: &Metrics) {
    if !cancel.is_cancelled() {
        metrics.count(|s| s.cancelled += 1);
        cancel.cancel();
    }
}

/// Why a connection's reader stopped before a whole frame arrived.
enum ReadStop {
    /// The server is draining.
    Shutdown,
    /// The peer hung up ([`WireError::Closed`]) or broke the framing.
    Wire(WireError),
}

impl From<WireError> for ReadStop {
    fn from(e: WireError) -> ReadStop {
        ReadStop::Wire(e)
    }
}

/// Serve one accepted connection. This thread reads frames, answers
/// inline requests and admits work; a writer thread
/// ([`connection_writer`]) owns the socket's write half.
///
/// A connection starts with one request in flight: the reader holds
/// each frame until the previous request's reply is on its way, so
/// replies keep request order, which is all a JSON peer (no correlation
/// id) can match on. A `Hello` that negotiates pipelining lifts the
/// limit: requests are admitted as fast as they arrive and answered in
/// completion order, matched by the correlation id in each envelope.
///
/// When the peer hangs up or breaks the framing, everything still in
/// flight is cancelled; when the server drains, the connection stops
/// reading and lingers until every admitted request's reply is written.
fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Outbound>();
    let ledger = Arc::new(Ledger::default());
    let writer = {
        let ledger = Arc::clone(&ledger);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("fm-serve-conn-writer".to_string())
            .spawn(move || connection_writer(&shared, write_half, &rx, &ledger))
            .expect("spawn connection writer")
    };

    let metrics = &shared.metrics;
    let mut pipelined = false;
    let draining = loop {
        let frame = read_frame_polled(&mut stream, shared.config.max_frame, |_| {
            expire_deadlines(&ledger.inflight.lock(), metrics);
            shared.is_shutdown().then_some(ReadStop::Shutdown)
        });
        let decoded = match frame {
            Ok(payload) => decode_request_any(&payload).map_err(|e| (corr_of(&payload), e)),
            // Server-wide drain: stop reading, but deliver every
            // admitted reply before closing.
            Err(ReadStop::Shutdown) => break true,
            Err(ReadStop::Wire(WireError::Closed)) => break false,
            Err(ReadStop::Wire(e)) => Err((0, e)),
        };
        if !pipelined {
            ledger.wait_empty(metrics);
        }
        let (corr, request, was_binary) = match decoded {
            Ok(t) => t,
            Err((corr, e)) => {
                // The framing state is unrecoverable: answer, then
                // close. A frame that did not decode has no trusted
                // encoding, so unless the connection negotiated binary
                // the answer is JSON, which every peer reads.
                metrics.count(|s| s.protocol_errors += 1);
                let _ = tx.send(Outbound {
                    corr,
                    binary: pipelined,
                    resp: Response::Failed(FailReply {
                        kind: "protocol".to_string(),
                        error: e.to_string(),
                    }),
                });
                break false;
            }
        };
        // One count per frame: its encoding and, for the endpoints
        // `Stats` counts, its receipt (a ping completes as it arrives).
        let endpoint = request.endpoint();
        metrics.count(|s| {
            *match was_binary {
                true => &mut s.binary_requests,
                false => &mut s.json_requests,
            } += 1;
            if let Some(e) = s.endpoint_mut(endpoint) {
                e.received += 1;
                e.completed += u64::from(endpoint == "ping");
            }
        });
        let reply = Reply {
            corr,
            binary: pipelined || was_binary,
            tx: tx.clone(),
        };

        let sent = match request {
            // Version negotiation: meet the client at the highest
            // version both sides speak. Pipelining needs the binary
            // envelope (correlation ids live in its header), so a
            // pipeline request only sticks when a binary version was
            // agreed. A repeated Hello on a pipelined connection is
            // just re-acked.
            Request::Hello(h) => {
                let version = h.max_version.min(PROTOCOL_BINARY_VERSION);
                let pipeline = h.pipeline && version > 0;
                if !pipelined && version > 0 {
                    metrics.count(|s| s.binary_connections += 1);
                }
                pipelined |= pipeline;
                reply.send(Response::HelloAck(HelloAckReply { version, pipeline }))
            }
            Request::Ping => reply.send(Response::Pong),
            // Stats bypasses admission entirely: it must answer even —
            // especially — when the queue is full. The reply counts
            // itself received, not yet completed.
            Request::Stats => {
                let t0 = Instant::now();
                let snap = shared.stats();
                metrics.answered(endpoint, false, [t0]);
                reply.send(Response::Stats(Box::new(snap)))
            }
            Request::ShardJoin(j) => reply.send(membership_change(shared, &j.addr, true)),
            Request::ShardLeave(l) => reply.send(membership_change(shared, &l.addr, false)),
            Request::Shutdown => {
                reply.send(Response::ShuttingDown);
                shared.begin_shutdown();
                break true;
            }
            work @ (Request::Tune(_)
            | Request::TuneShard(_)
            | Request::Evaluate(_)
            | Request::Simulate(_)
            | Request::SessionOpen(_)
            | Request::SessionEdit(_)
            | Request::SessionTune(_)
            | Request::SessionClose(_)) => {
                if shared.is_shutdown() {
                    reply.send(Response::ShuttingDown);
                    break true;
                }
                admit(shared, &ledger, work, reply)
            }
        };
        if !sent {
            break false;
        }
    };

    if draining {
        ledger.wait_empty(metrics);
    } else {
        ledger.cancel_all(metrics);
    }
    drop(tx); // the writer's recv() disconnects once workers finish
    let _ = writer.join();
}

/// Admit one work request: enter it in the connection's ledger and the
/// queue, or answer `Busy` (`ShuttingDown` once the queue has closed)
/// without buffering it. `false` means the writer is gone.
fn admit(shared: &Shared, ledger: &Ledger, work: Request, reply: Reply) -> bool {
    let accepted = Instant::now();
    let deadline = work_deadline_ms(&work, shared.config.default_deadline_ms)
        .map(|ms| accepted + Duration::from_millis(ms));
    let cancel = CancelToken::new();
    let fingerprint = match &work {
        Request::Tune(t) if shared.config.dedup_tunes => Some(tune_dedup_key(t)),
        _ => None,
    };
    let inflight = ledger.admit(reply.corr, cancel.clone(), deadline);
    let job = Job {
        request: work,
        accepted,
        deadline,
        cancel,
        fingerprint,
        reply: reply.clone(),
    };
    let queued = shared.try_admit(job);
    shared.metrics.count(|s| {
        s.inflight_peak = s.inflight_peak.max(inflight);
        match queued {
            Some(depth) => s.queue_peak = s.queue_peak.max(depth as u64),
            None => s.busy_rejections += 1,
        }
    });
    if queued.is_some() {
        return true;
    }
    ledger.retire(reply.corr);
    reply.send(if shared.is_shutdown() {
        Response::ShuttingDown
    } else {
        Response::Busy(BusyReply {
            queue_depth: shared.config.queue_capacity as u64,
            queue_capacity: shared.config.queue_capacity as u64,
        })
    })
}

/// The effective deadline for a work request: its own `deadline_ms` if
/// present, else the server default. Open/edit/close are bookkeeping,
/// not searches: they run to completion rather than racing a default
/// deadline into a half-opened session.
fn work_deadline_ms(work: &Request, default_ms: Option<u64>) -> Option<u64> {
    match work {
        Request::Tune(t) => t.deadline_ms.or(default_ms),
        Request::TuneShard(t) => t.deadline_ms.or(default_ms),
        Request::Evaluate(e) => e.deadline_ms.or(default_ms),
        Request::Simulate(s) => s.deadline_ms.or(default_ms),
        Request::SessionTune(t) => t.deadline_ms.or(default_ms),
        Request::SessionOpen(_) | Request::SessionEdit(_) | Request::SessionClose(_) => None,
        _ => unreachable!("only work requests reach here"),
    }
}

/// Best-effort correlation id of a frame that failed to decode, so the
/// protocol error lands on the right in-flight request when possible.
fn corr_of(payload: &[u8]) -> u64 {
    use crate::protocol::{is_binary, BINARY_HEADER};
    if is_binary(payload) && payload.len() >= BINARY_HEADER {
        u64::from_be_bytes(payload[2..10].try_into().expect("8 bytes"))
    } else {
        0
    }
}

/// The write half of a connection: sole owner of outbound frames.
/// Bursts of completions are coalesced — every message already sitting
/// in the channel is queued into one `BufWriter`, then flushed together
/// — so N small replies cost one syscall, not N.
fn connection_writer(
    shared: &Shared,
    stream: TcpStream,
    rx: &mpsc::Receiver<Outbound>,
    ledger: &Ledger,
) {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::with_capacity(64 << 10, &stream);
    // The channel disconnects once the reader has exited and every
    // worker reply is delivered.
    while let Ok(out) = rx.recv() {
        let mut ok = write_one(&mut w, &out, ledger);
        while ok {
            match rx.try_recv() {
                Ok(out) => ok = write_one(&mut w, &out, ledger),
                Err(_) => break,
            }
        }
        if !ok || w.flush().is_err() {
            // The socket died: cancel everything in flight (which also
            // frees a reader waiting for the ledger to empty), and slam
            // the read half so the reader wakes promptly.
            ledger.cancel_all(&shared.metrics);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
    }
    let _ = w.flush();
}

/// Retire the reply's correlation id — unless it is a streamed part,
/// which keeps the request in flight — and queue its frame (no flush)
/// in the encoding of the request it answers.
fn write_one(w: &mut impl std::io::Write, out: &Outbound, ledger: &Ledger) -> bool {
    if !matches!(out.resp, Response::TuneShardPart(_)) {
        ledger.retire(out.corr);
    }
    let payload = if out.binary {
        encode_response_binary(out.corr, &out.resp)
    } else {
        encode_response(&out.resp)
    };
    queue_frame(w, &payload).is_ok()
}

fn worker_main(shared: &Arc<Shared>) {
    while let Some(job) = shared.pop() {
        let Job {
            request,
            accepted,
            deadline,
            cancel,
            fingerprint,
            reply,
        } = job;
        let endpoint_name = request.endpoint();

        // A request that expired while queued is not worth starting —
        // except Tune, whose contract is "best effort within the
        // deadline": it still answers, with the fallback mapping.
        let expired = deadline.is_some_and(|d| Instant::now() >= d);
        if expired {
            shared.metrics.count(|s| s.deadline_expired += 1);
            cancel.cancel();
        }

        // Dedup-batched admission: claim every queued Tune asking the
        // identical question *before* running it, then answer them all
        // from the one deterministic search. An expired primary skips
        // the claim — fanning a degraded best-effort fallback out to
        // waiters whose own deadlines may still be generous would
        // trade their correctness for speed.
        let waiters = match (&fingerprint, expired) {
            (Some(key), false) => shared.take_matching(key),
            _ => Vec::new(),
        };
        let replies = 1 + waiters.len();

        // Every engine indexes by the graph's construction rules
        // (`deps < id`, slot counts, input reads in range), so a graph
        // that breaks one is refused here, before any of them runs.
        let invalid = request.graph().and_then(|g| g.validate().err());
        // A fleet tune banks what it learned about the machines in the
        // weight ledger once its reply is on its way.
        let mut fleet_tuned = None;
        let response = catch_unwind(AssertUnwindSafe(|| {
            if let Some(error) = invalid {
                return Response::Failed(FailReply {
                    kind: "graph".to_string(),
                    error: error.to_string(),
                });
            }
            match request {
                Request::Tune(req) => match parse_cost_model(req.cost_model.as_deref()) {
                    Err(refusal) => Response::Failed(refusal),
                    Ok(kind) => match &shared.fleet {
                        Some(fleet) if fleet.eligible(&req) => {
                            let evaluator =
                                Evaluator::new(&req.graph, &req.machine).with_cost_model(kind);
                            let pool = &shared.pool;
                            let reply = fleet.tune(&req, &evaluator, &cancel, deadline, pool);
                            fleet_tuned = Some(fleet);
                            Response::Tuned(observed(shared, &evaluator, reply, replies))
                        }
                        _ => exec_tune(shared, req, &cancel, deadline, replies),
                    },
                },
                Request::TuneShard(req) => exec_tune_shard(shared, req, &cancel, deadline, &reply),
                Request::Evaluate(_) | Request::Simulate(_) if expired => {
                    Response::Failed(FailReply {
                        kind: "deadline".to_string(),
                        error: "deadline expired before execution".to_string(),
                    })
                }
                Request::Evaluate(req) => exec_evaluate(req),
                Request::Simulate(req) => exec_simulate(req),
                Request::SessionOpen(req) => exec_session_open(shared, req),
                Request::SessionEdit(req) => exec_session_edit(shared, req),
                Request::SessionTune(req) => exec_session_tune(shared, req, &cancel, deadline),
                Request::SessionClose(req) => exec_session_close(shared, req),
                other => Response::Failed(FailReply {
                    kind: "internal".to_string(),
                    error: format!("{} is not a queued request", other.endpoint()),
                }),
            }
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "request execution panicked".to_string());
            Response::Failed(FailReply {
                kind: "internal".to_string(),
                error: msg,
            })
        });

        // Fan the one answer out to every coalesced waiter, with full
        // per-waiter accounting (each was a real admitted request; the
        // books must reconcile exactly as if each had run).
        let failed = matches!(response, Response::Failed(_));
        let admitted = waiters.iter().map(|w| w.accepted);
        shared.metrics.answered(
            endpoint_name,
            failed,
            std::iter::once(accepted).chain(admitted),
        );
        if !waiters.is_empty() {
            shared.metrics.count(|s| {
                s.dedup_batches += 1;
                s.dedup_waiters_served += waiters.len() as u64;
            });
        }
        for waiter in &waiters {
            waiter.reply.send(response.clone());
        }
        // The connection may be gone (disconnect) — then the send
        // fails and the result is simply dropped.
        reply.send(response);
        // Off the reply path, before this worker takes its next job.
        if let Some(fleet) = fleet_tuned {
            fleet.membership().persist();
        }
    }
}

fn exec_tune(
    shared: &Shared,
    req: TuneRequest,
    cancel: &CancelToken,
    deadline: Option<Instant>,
    replies: usize,
) -> Response {
    let TuneRequest {
        graph,
        machine,
        fom,
        candidates,
        max_candidates,
        convergence_window,
        refinement,
        use_cache,
        cost_model,
        ..
    } = req;
    let cost_model = match parse_cost_model(cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let evaluator = Evaluator::new(&graph, &machine).with_cost_model(cost_model);
    let candidates: Vec<MappingCandidate> = candidates
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    let mut budget = Budget::unlimited();
    if let Some(n) = max_candidates {
        budget.max_candidates = Some(n as usize);
    }
    if let Some(w) = convergence_window {
        budget.convergence_window = Some(w as usize);
    }
    if let Some(d) = deadline {
        budget.deadline = Some(d.saturating_duration_since(Instant::now()));
    }
    let mut tuner = Tuner::new(&evaluator, &graph, &machine, fom)
        .with_pool(&shared.pool)
        .with_budget(budget)
        .with_cancel(cancel.clone());
    if let Some(r) = refinement {
        tuner = tuner.with_refinement(r);
    }
    if use_cache {
        if let Some(cache) = &shared.cache {
            tuner = tuner.with_cache(cache.clone());
        }
    }
    let report = tuner.tune(&candidates);
    if report.cache != CacheStatus::Disabled {
        shared.metrics.count(|s| {
            *match report.cache {
                CacheStatus::Hit => &mut s.cache_hits,
                CacheStatus::Miss => &mut s.cache_misses,
                _ => &mut s.cache_stale,
            } += 1;
        });
    }
    Response::Tuned(observed(shared, &evaluator, tune_reply(report), replies))
}

/// The wire reply for a tuner's report.
fn tune_reply(report: TuneReport) -> TuneReply {
    TuneReply {
        best: report.best,
        offered: report.offered as u64,
        evaluated: report.evaluated as u64,
        pruned: report.pruned as u64,
        cache: report.cache.to_string(),
        fell_back: report.fell_back,
        cancelled: report.cancelled,
        wall_ms: report.wall.as_secs_f64() * 1e3,
    }
}

/// Record a served tune's winner in the cost-model observatory, under
/// `evaluator`'s backend, once per reply it is sent as (a dedup batch
/// answers every waiter with the primary's reply). Local, fleet and
/// session tunes all answer through here.
fn observed(
    shared: &Shared,
    evaluator: &Evaluator<'_>,
    reply: TuneReply,
    replies: usize,
) -> TuneReply {
    if let Some(best) = &reply.best {
        let point = evaluator.roofline(&best.report);
        let kind = evaluator.cost_model();
        shared.metrics.observe(kind, &point, &best.report, replies);
    }
    reply
}

/// Open a session: build the warm cache once from the initial graph and
/// register the state. The per-session budget is fixed at open time so
/// every `SessionTune` against this session searches the same way a
/// cold `Tune` with these knobs would.
fn exec_session_open(shared: &Shared, req: SessionOpenRequest) -> Response {
    let SessionOpenRequest {
        graph,
        machine,
        fom,
        candidates,
        max_candidates,
        convergence_window,
        cost_model,
    } = req;
    let cost_model = match parse_cost_model(cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let candidates: Vec<MappingCandidate> = candidates
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    let n = candidates.len() as u64;
    let mut budget = Budget::unlimited();
    if let Some(n) = max_candidates {
        budget.max_candidates = Some(n as usize);
    }
    if let Some(w) = convergence_window {
        budget.convergence_window = Some(w as usize);
    }
    let state = SessionState::open(graph, machine, fom, candidates, budget, cost_model);
    let session_id = shared.sessions.open(state);
    shared.metrics.count(|s| s.sessions.opened += 1);
    Response::SessionOpened(SessionOpenedReply {
        session_id,
        epoch: 0,
        candidates: n,
    })
}

/// Apply one sealed edit batch to a session. The checksum gate runs
/// before the session is even looked up — a corrupt batch never
/// touches state. All batch outcomes short of `Applied` leave the
/// session exactly as it was (all-or-nothing, see
/// [`SessionState::apply_batch`]).
fn exec_session_edit(shared: &Shared, req: SessionEditRequest) -> Response {
    if let Err(want) = req.verify() {
        return Response::Failed(FailReply {
            kind: "session".to_string(),
            error: format!(
                "edit batch checksum mismatch: got {:#018x}, recomputed {want:#018x}; \
                 refusing the whole batch",
                req.checksum
            ),
        });
    }
    let Some(slot) = shared.sessions.get(req.session_id) else {
        return no_such_session(shared, req.session_id);
    };
    let mut state = slot.lock();
    match state.apply_batch(req.epoch, &req.edits) {
        EditOutcome::Applied {
            epoch,
            applied,
            cone,
        } => {
            shared.metrics.edited(applied, cone);
            Response::SessionEdited(SessionEditedReply {
                session_id: req.session_id,
                epoch,
                applied,
                cone,
            })
        }
        EditOutcome::StaleEpoch { got, expected } => Response::Failed(FailReply {
            kind: "session".to_string(),
            error: format!("stale epoch {got} (session is at {expected}); batch not applied"),
        }),
        EditOutcome::Rejected { index, error } => Response::Failed(FailReply {
            kind: "session".to_string(),
            error: format!("edit {index} refused: {error}; batch not applied"),
        }),
    }
}

/// Re-tune a session from its warm cache. Repaired candidate costs make
/// this cheap after small edits; the reply says whether the tune ran
/// fully warm (`rebuilds == 0`) so clients can tell repair apart from
/// a silent cold rebuild.
fn exec_session_tune(
    shared: &Shared,
    req: SessionTuneRequest,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> Response {
    let requested = match parse_cost_model(req.cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let Some(slot) = shared.sessions.get(req.session_id) else {
        return no_such_session(shared, req.session_id);
    };
    let mut state = slot.lock();
    // The backend is baked at open: warm per-candidate scores are only
    // comparable under the model that produced them, so a mid-session
    // switch is refused rather than silently re-ranked.
    if req.cost_model.is_some() && requested != state.cost_model() {
        return Response::Failed(FailReply {
            kind: "cost-model".to_string(),
            error: format!(
                "session {} was opened under cost model {:?} but the tune asked for {:?}; \
                 open a new session to switch models",
                req.session_id,
                state.cost_model().name(),
                requested.name()
            ),
        });
    }
    let out = state.tune(deadline, cancel);
    shared.metrics.count(|s| match out.warm {
        true => s.sessions.warm_tunes += 1,
        false => {
            s.sessions.cold_tunes += 1;
            s.sessions.cold_rebuilds += out.rebuilds;
        }
    });
    Response::SessionTuned(Box::new(SessionTunedReply {
        session_id: req.session_id,
        epoch: out.epoch,
        warm: out.warm,
        rebuilds: out.rebuilds,
        reply: observed(shared, &state.evaluator(), tune_reply(out.report), 1),
    }))
}

/// Close a session and report its lifetime tallies. Closing an unknown
/// (or already-evicted) id is the same typed miss as editing one.
fn exec_session_close(shared: &Shared, req: SessionCloseRequest) -> Response {
    match shared.sessions.remove(req.session_id) {
        Some(slot) => {
            let state = slot.lock();
            shared.metrics.count(|s| s.sessions.closed += 1);
            Response::SessionClosed(SessionClosedReply {
                session_id: req.session_id,
                epoch: state.epoch,
                edits_applied: state.edits_applied,
                tunes: state.tunes,
            })
        }
        None => no_such_session(shared, req.session_id),
    }
}

/// The typed miss for a request naming an unknown (or evicted) session.
fn no_such_session(shared: &Shared, session_id: u64) -> Response {
    shared.metrics.count(|s| s.sessions.no_such += 1);
    Response::NoSuchSession(NoSuchSessionReply { session_id })
}

/// Cancellably sleep `n × ms` (the scripted-straggler hook), in small
/// slices so a deadline or disconnect interrupts promptly. Returns
/// `false` when interrupted.
fn straggle(
    ms_per_candidate: u64,
    n: u64,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> bool {
    let mut left = Duration::from_millis(ms_per_candidate.saturating_mul(n));
    while !left.is_zero() {
        if cancel.is_cancelled() || deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        let slice = left.min(Duration::from_millis(10));
        std::thread::sleep(slice);
        left -= slice;
    }
    true
}

/// Evaluate one contiguous sub-range of a fleet tune: a plain budgeted
/// tune (no refinement, no cache — raw candidate scores are what the
/// coordinator's `(score, index)` merge needs), sealed into a
/// checksummed, epoch-stamped reply. A deadline or disconnect that
/// stops the sweep early still answers — with `evaluated < count`, so
/// the coordinator discards the reply as incomplete rather than
/// merging a winner that depends on where the shard gave up.
///
/// With `stream_every = Some(k)`, the range is evaluated in chunks of
/// `k` and each finished chunk is announced with a sealed
/// [`Response::TuneShardPart`] through `reply` (the connection's writer
/// sends it as it arrives); without, the whole range is one chunk.
/// Chunks are evaluated in ascending index order and each part carries
/// the chunk-local first minimum, so the coordinator's ascending
/// strict-`<` fold over parts reproduces the flat scan's first minimum
/// exactly. The terminal reply still covers the whole range — an
/// interrupted range answers incomplete, with the best of its finished
/// chunks only, but every part already emitted stands on its own.
fn exec_tune_shard(
    shared: &Shared,
    req: TuneShardRequest,
    cancel: &CancelToken,
    deadline: Option<Instant>,
    reply: &Reply,
) -> Response {
    let TuneShardRequest {
        graph,
        machine,
        fom,
        candidates,
        start_index,
        epoch,
        stream_every,
        cost_model,
        ..
    } = req;
    let cost_model = match parse_cost_model(cost_model.as_deref()) {
        Ok(kind) => kind,
        Err(refusal) => return Response::Failed(refusal),
    };
    let evaluator = Evaluator::new(&graph, &machine).with_cost_model(cost_model);
    let candidates: Vec<MappingCandidate> = candidates
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    let count = candidates.len() as u64;
    let straggle_ms = shared.config.straggle_ms_per_candidate.unwrap_or(0);
    // A blocking request is one chunk covering the whole range, and its
    // part is not sent: the terminal reply says the same.
    let stream = stream_every.filter(|&k| k > 0);
    let chunk = stream.map_or(candidates.len(), |k| k as usize);

    let run_slice = |slice: &[MappingCandidate]| {
        let mut budget = Budget::unlimited();
        if let Some(d) = deadline {
            budget.deadline = Some(d.saturating_duration_since(Instant::now()));
        }
        Tuner::new(&evaluator, &graph, &machine, fom)
            .with_pool(&shared.pool)
            .with_budget(budget)
            .with_cancel(cancel.clone())
            .tune_range(slice)
    };
    // A chunk's best is its in-range winner, if any: the coordinator
    // builds the default-mapper fallback once for the whole list.
    let slice_best = |lo: usize, report: TuneReport| {
        report.best_index.zip(report.best).map(|(i, b)| ShardBest {
            index: start_index + (lo + i) as u64,
            label: b.label,
            score: b.score,
            resolved: b.resolved,
            report: b.report,
        })
    };

    let mut evaluated = 0u64;
    let mut cancelled = false;
    let mut best: Option<ShardBest> = None;
    let mut lo = 0usize;
    while lo < candidates.len() {
        let hi = (lo + chunk).min(candidates.len());
        let n = (hi - lo) as u64;
        if straggle_ms > 0 && !straggle(straggle_ms, n, cancel, deadline) {
            cancelled = true;
            break;
        }
        let report = run_slice(&candidates[lo..hi]);
        if report.cancelled || (report.evaluated as u64) < n {
            // Interrupted mid-chunk: the chunk is never announced; the
            // terminal reply admits the shortfall.
            evaluated += report.evaluated as u64;
            cancelled = true;
            break;
        }
        evaluated += n;
        let chunk_best = slice_best(lo, report);
        // Ascending chunks + strict `<` keep the earliest minimum.
        match (&best, &chunk_best) {
            (Some(b), Some(c)) if c.score < b.score => best = chunk_best.clone(),
            (None, Some(_)) => best = chunk_best.clone(),
            _ => {}
        }
        if stream.is_some() {
            let part = TuneShardPart::seal(
                epoch,
                TuneShardPartBody {
                    start_index: start_index + lo as u64,
                    count: n,
                    best: chunk_best,
                },
            );
            shared.metrics.count(|s| s.tune_shard_parts += 1);
            if !reply.send(Response::TuneShardPart(part)) {
                // The connection is gone: nobody will read further
                // frames. Stop burning cores.
                cancel.cancel();
                cancelled = true;
                break;
            }
        }
        lo = hi;
    }
    let body = TuneShardBody {
        start_index,
        count,
        evaluated,
        cancelled,
        best,
    };
    Response::TuneSharded(TuneShardReply::seal(epoch, body))
}

fn exec_evaluate(req: EvaluateRequest) -> Response {
    let EvaluateRequest {
        graph,
        machine,
        mapping,
        ..
    } = req;
    if mapping.place.len() != graph.len() || mapping.time.len() != graph.len() {
        return Response::Failed(FailReply {
            kind: "illegal".to_string(),
            error: format!(
                "mapping covers {} nodes but the graph has {}",
                mapping.place.len(),
                graph.len()
            ),
        });
    }
    // One flat pass gives the verdict and, when legal, the report.
    let report = match Evaluator::new(&graph, &machine).evaluate_checked(&mapping) {
        Ok(report) => report,
        Err(violations) => {
            return Response::Evaluated(EvaluateReply {
                legal: false,
                violations,
                report: None,
            })
        }
    };
    Response::Evaluated(EvaluateReply {
        legal: true,
        violations: 0,
        report: Some(report),
    })
}

fn exec_simulate(req: SimulateRequest) -> Response {
    let SimulateRequest {
        graph,
        machine,
        mapping,
        inputs,
        contention,
        ..
    } = req;
    if mapping.place.len() != graph.len() || mapping.time.len() != graph.len() {
        return Response::Failed(FailReply {
            kind: "illegal".to_string(),
            error: format!(
                "mapping covers {} nodes but the graph has {}",
                mapping.place.len(),
                graph.len()
            ),
        });
    }
    let predicted = match Evaluator::new(&graph, &machine).evaluate_checked(&mapping) {
        Ok(report) => report,
        Err(violations) => {
            return Response::Failed(FailReply {
                kind: "illegal".to_string(),
                error: format!(
                    "mapping is illegal ({violations} violations); the simulator only executes legal mappings"
                ),
            })
        }
    };
    let sim = Simulator::new(machine).with_config(SimConfig {
        contention,
        ..SimConfig::default()
    });
    match sim.run(&graph, &mapping, &inputs, &[]) {
        Ok(result) => Response::Simulated(SimulateReply {
            cycles_scheduled: result.cycles_scheduled,
            cycles_actual: result.cycles_actual,
            slowdown: result.slowdown(),
            stalled_elements: result.stalled_elements,
            total_stall_cycles: result.total_stall_cycles,
            messages_delivered: result.messages_delivered,
            link_wait_cycles: result.link_wait_cycles,
            predicted_energy_fj: predicted.energy().raw(),
            simulated_energy_fj: result.ledger.energy.total().raw(),
        }),
        Err(e) => Response::Failed(FailReply {
            kind: "sim".to_string(),
            error: e.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::dataflow::{CExpr, DataflowGraph};
    use fm_core::legality::check;
    use fm_core::machine::MachineConfig;
    use fm_core::mapping::ResolvedMapping;
    use fm_core::value::Value;

    /// A four-node chain, the last node an output.
    fn chain() -> DataflowGraph {
        let mut g = DataflowGraph::new("chain", 32);
        let mut prev = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        for i in 1..4 {
            let step = CExpr::dep(0).add(CExpr::konst(Value::real(2.0)));
            prev = g.add_node(step, vec![prev], vec![i]);
        }
        g.mark_output(prev);
        g
    }

    #[test]
    fn word_hash_separates_lengths_and_every_tail_byte() {
        let bytes: Vec<u8> = (0..=40u8).collect();
        let hashes: Vec<u64> = (0..=bytes.len()).map(|n| word_hash(&bytes[..n])).collect();
        let mut distinct = hashes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), hashes.len(), "prefixes collide: {hashes:?}");
        // Zero padding of the tail word is not mistaken for data.
        assert_ne!(word_hash(&[1]), word_hash(&[1, 0]));
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x80;
            assert_ne!(word_hash(&flipped), word_hash(&bytes), "byte {at}");
        }
        assert_eq!(word_hash(&bytes), word_hash(&bytes.clone()));
    }

    #[test]
    fn closed_connections_release_their_threads() {
        let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let held = || server.shared.conn_handles.lock().len();
        for _ in 0..8 {
            drop(TcpStream::connect(addr).unwrap());
        }
        // Each accept lets go of the connections that closed before it,
        // so a few more short connections leave at most the newest two
        // held. Keeping every handle would hold one more thread per
        // connection, 9 to 58 here.
        let released = (0..50).any(|_| {
            drop(TcpStream::connect(addr).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            held() <= 2
        });
        assert!(released, "closed connections still hold {} threads", held());
        server.shutdown_and_join();
    }

    #[test]
    fn rpc_handlers_answer_with_the_checker_total_and_the_evaluator_report() {
        let g = chain();
        let m = MachineConfig::linear(4);
        let mut tiny = m.clone();
        tiny.tile_bits = 1;
        let table = |place: [(i64, i64); 4], time: [i64; 4]| ResolvedMapping {
            place: place.to_vec(),
            time: time.to_vec(),
        };
        let serial = table([(0, 0); 4], [0, 1, 2, 3]);
        let illegal = [
            (
                "off-grid",
                table([(0, 0), (-1, 0), (9, 2), (0, 0)], [0, 1, 2, 3]),
                &m,
            ),
            ("negative time", table([(0, 0); 4], [-1, 0, 1, 2]), &m),
            (
                "causality",
                table([(0, 0), (3, 0), (0, 0), (1, 0)], [0, 0, 1, 1]),
                &m,
            ),
            ("over capacity", serial.clone(), &tiny),
        ];
        for (what, rm, machine) in illegal {
            let want = check(&g, &rm, machine).total_violations;
            assert!(want > 0, "{what} must be illegal");
            let reply = exec_evaluate(EvaluateRequest {
                graph: g.clone(),
                machine: machine.clone(),
                mapping: rm.clone(),
                deadline_ms: None,
            });
            assert!(
                matches!(&reply, Response::Evaluated(r)
                    if !r.legal && r.violations == want && r.report.is_none()),
                "{what}: {reply:?}"
            );
            let reply = exec_simulate(SimulateRequest {
                graph: g.clone(),
                machine: machine.clone(),
                mapping: rm,
                inputs: Vec::new(),
                contention: false,
                deadline_ms: None,
            });
            let refusal = format!(
                "mapping is illegal ({want} violations); the simulator only executes legal mappings"
            );
            assert!(
                matches!(&reply, Response::Failed(f) if f.kind == "illegal" && f.error == refusal),
                "{what}: {reply:?}"
            );
        }

        let want = Evaluator::new(&g, &m).evaluate(&serial);
        let reply = exec_evaluate(EvaluateRequest {
            graph: g.clone(),
            machine: m.clone(),
            mapping: serial.clone(),
            deadline_ms: None,
        });
        let Response::Evaluated(r) = reply else {
            panic!("legal Evaluate answered {reply:?}")
        };
        assert!(r.legal && r.violations == 0);
        // Debug formatting prints every float exactly, so equal strings
        // mean equal bits.
        assert_eq!(
            format!("{:?}", r.report),
            format!("{:?}", Some(want.clone()))
        );
        let reply = exec_simulate(SimulateRequest {
            graph: g,
            machine: m,
            mapping: serial,
            inputs: Vec::new(),
            contention: false,
            deadline_ms: None,
        });
        let Response::Simulated(sim) = reply else {
            panic!("legal Simulate answered {reply:?}")
        };
        assert_eq!(
            sim.predicted_energy_fj.to_bits(),
            want.energy().raw().to_bits()
        );
    }
}
