//! Servers, set-up, the closed-loop load generator and the `Stats`
//! reconciliation.
//!
//! One client thread drives one binary pipelined connection. `tune`,
//! `session` and `fleet` keep one op in flight; `rpc` keeps a fixed
//! window of requests in flight on the same connection.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fm_serve::client::{Client, ClientError};
use fm_serve::fleet::FleetConfig;
use fm_serve::metrics::{EndpointStats, StatsReply};
use fm_serve::protocol::{Request, Response, SessionEditRequest, SessionTuneRequest};
use fm_serve::server::{Server, ServerConfig, ServerHandle};

use crate::procfs;
use crate::stats::MIN_SAMPLES;
use crate::workload::{
    evaluated_matches, rpc_is_simulate, simulated_matches, tuned_matches, Inputs, Kind, RpcInputs,
    SessionInputs, TuneInputs, PERIOD, SESSIONS,
};

/// Requests the `rpc` client keeps in flight (well under the default
/// admission queue of 64, so none is refused).
pub const RPC_WINDOW: usize = 4;

/// Shard servers behind the `fleet` coordinator.
pub const SHARDS: usize = 2;

/// A timed phase stops here even if it has too few samples, keeping a
/// run inside its time limit.
const HARD_CAP: Duration = Duration::from_secs(100);

/// The servers of one workload. The client talks to the last one.
pub struct Topology {
    servers: Vec<ServerHandle>,
}

impl Topology {
    /// Start `kind`'s servers with `ServerConfig::default()`: one server,
    /// or for `fleet` two shards and a coordinator built with
    /// `FleetConfig::new` in front of them.
    ///
    /// The shards stand for two machines but share this one. Each gets
    /// an equal share of the default tuner threads, so that both
    /// searching at once run no more pool threads than there are cores,
    /// and the coordinator splits candidates equally: its throughput
    /// weights would measure the shards' contention for the same cores,
    /// not their speed, and move the split from run to run.
    pub fn start(kind: Kind) -> Topology {
        let start = |config| Server::start("127.0.0.1:0", config).expect("bind a loopback port");
        let mut servers = Vec::new();
        if kind == Kind::Fleet {
            let shard = || ServerConfig {
                tuner_threads: (ServerConfig::default().tuner_threads / SHARDS).max(1),
                ..ServerConfig::default()
            };
            let shards: Vec<ServerHandle> = (0..SHARDS).map(|_| start(shard())).collect();
            let addrs = shards.iter().map(|s| s.local_addr().to_string()).collect();
            servers.extend(shards);
            servers.push(start(ServerConfig {
                fleet: Some(FleetConfig {
                    weighted: false,
                    ..FleetConfig::new(addrs)
                }),
                ..ServerConfig::default()
            }));
        } else {
            servers.push(start(ServerConfig::default()));
        }
        Topology { servers }
    }

    /// The client-facing server.
    pub fn front(&self) -> SocketAddr {
        self.servers
            .last()
            .expect("a topology has a server")
            .local_addr()
    }

    /// Every server's address, front last.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(ServerHandle::local_addr).collect()
    }

    /// Drain and join every server, front first.
    pub fn stop(mut self) {
        while let Some(server) = self.servers.pop() {
            server.shutdown_and_join();
        }
    }
}

/// Client-side counts for one endpoint, in the server's terms.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Replies other than `Failed` and `Busy` (what the server counts as
    /// completed).
    pub completed: u64,
    /// `Failed` replies.
    pub failed: u64,
    /// `Busy` replies.
    pub busy: u64,
}

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The answer equals the reference.
    Ok,
    /// Busy, Failed, NoSuchSession or ShuttingDown.
    Refused,
    /// An answer that differs from the reference.
    Mismatch,
}

fn refusal(resp: &Response) -> Verdict {
    match resp {
        Response::Busy(_)
        | Response::Failed(_)
        | Response::NoSuchSession(_)
        | Response::ShuttingDown => Verdict::Refused,
        _ => Verdict::Mismatch,
    }
}

/// A set-up topology with its connected client and per-session cursors.
pub struct Live {
    /// The servers.
    pub topo: Topology,
    client: Client,
    /// `(session id, revisions applied)` per session.
    sessions: Vec<(u64, u64)>,
    /// Client-side counts per endpoint.
    pub tally: BTreeMap<&'static str, Tally>,
    /// Candidates rebuilt cold, summed over `SessionTune` replies.
    pub rebuilds: u64,
    /// Next op index (ops are numbered across warm-up and timed phase).
    next_op: u64,
}

impl Live {
    /// Close the connection, then drain and join the servers.
    pub fn stop(self) {
        drop(self.client);
        self.topo.stop();
    }

    fn record(&mut self, endpoint: &'static str, resp: &Response) {
        let t = self.tally.entry(endpoint).or_default();
        t.sent += 1;
        match resp {
            Response::Failed(_) => t.failed += 1,
            Response::Busy(_) => t.busy += 1,
            _ => t.completed += 1,
        }
    }

    fn call(&mut self, endpoint: &'static str, req: &Request) -> Result<Response, ClientError> {
        let resp = self.client.call(req)?;
        self.record(endpoint, &resp);
        Ok(resp)
    }
}

/// What a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each op answered correctly, ms.
    pub latencies_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or mismatched.
    pub failed: u64,
    /// Ops whose answer differed from the reference.
    pub mismatched: u64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Process CPU over the phase, s.
    pub cpu_s: f64,
    /// A transport error ended the phase early.
    pub transport_error: Option<String>,
}

impl Phase {
    fn add(&mut self, verdict: Verdict, latency: Duration) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => self.latencies_ms.push(latency.as_secs_f64() * 1e3),
            Verdict::Refused => self.failed += 1,
            Verdict::Mismatch => {
                self.failed += 1;
                self.mismatched += 1;
            }
        }
    }

    /// Fold another phase's op counts into this one.
    pub fn absorb(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        if self.transport_error.is_none() {
            self.transport_error.clone_from(&other.transport_error);
        }
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many ops (warm-up).
    Ops(u64),
    /// After this long and at least [`MIN_SAMPLES`] samples, or at
    /// [`HARD_CAP`].
    Time(Duration),
}

impl Stop {
    /// Is issuing done, with `issued` ops sent so far?
    fn done(self, issued: u64, phase: &Phase, elapsed: Duration) -> bool {
        match self {
            Stop::Ops(n) => issued >= n,
            Stop::Time(d) => {
                (elapsed >= d && phase.latencies_ms.len() >= MIN_SAMPLES) || elapsed >= HARD_CAP
            }
        }
    }
}

/// Start `kind`'s servers, connect and negotiate (`Hello`), open the
/// sessions, and run `warmup` untimed ops. `open` is the prebuilt
/// `SessionOpen` request (session workload only).
pub fn setup(
    kind: Kind,
    inputs: &Inputs,
    open: Option<&Request>,
    warmup: u64,
) -> Result<(Live, Phase), String> {
    let topo = Topology::start(kind);
    let client = Client::connect(topo.front()).map_err(|e| format!("connect: {e}"))?;
    if !client.is_binary() || !client.is_pipelined() {
        return Err("the server did not negotiate binary pipelining".to_string());
    }
    let mut live = Live {
        topo,
        client,
        sessions: Vec::new(),
        tally: BTreeMap::new(),
        rebuilds: 0,
        next_op: 0,
    };
    if let Some(open) = open {
        for _ in 0..SESSIONS {
            match live.call("session_open", open) {
                Ok(Response::SessionOpened(o)) => live.sessions.push((o.session_id, 0)),
                Ok(other) => return Err(format!("SessionOpen answered {}", other.kind())),
                Err(e) => return Err(format!("SessionOpen: {e}")),
            }
        }
    }
    let warm = run_phase(&mut live, inputs, Stop::Ops(warmup));
    Ok((live, warm))
}

/// Drive `live` until `stop`, timing every op from just before its
/// request is encoded until its reply is decoded and checked.
pub fn run_phase(live: &mut Live, inputs: &Inputs, stop: Stop) -> Phase {
    let mut phase = Phase::default();
    let cpu0 = procfs::process_cpu_s();
    let start = Instant::now();
    let result = match inputs {
        Inputs::Rpc(rpc) => rpc_loop(live, rpc, stop, start, &mut phase),
        _ => {
            let mut result = Ok(());
            while !stop.done(phase.attempted, &phase, start.elapsed()) {
                let i = live.next_op;
                live.next_op += 1;
                let op = match inputs {
                    Inputs::Tune(t) => tune_op(live, t, i),
                    Inputs::Session(s) => session_op(live, s, i),
                    Inputs::Rpc(_) => unreachable!("rpc runs pipelined"),
                };
                match op {
                    Ok((verdict, latency)) => phase.add(verdict, latency),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            result
        }
    };
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_s = procfs::process_cpu_s() - cpu0;
    if let Err(e) = result {
        phase.attempted += 1;
        phase.failed += 1;
        phase.transport_error = Some(e.to_string());
    }
    phase
}

fn tune_op(live: &mut Live, t: &TuneInputs, i: u64) -> Result<(Verdict, Duration), ClientError> {
    let k = (i % t.requests.len() as u64) as usize;
    let t0 = Instant::now();
    let resp = live.call("tune", &t.requests[k])?;
    let verdict = match &resp {
        Response::Tuned(r) if tuned_matches(r, &t.expected[k]) => Verdict::Ok,
        other => refusal(other),
    };
    Ok((verdict, t0.elapsed()))
}

/// One revision: the session's next sealed batch, then `SessionTune`.
fn session_op(
    live: &mut Live,
    s: &SessionInputs,
    i: u64,
) -> Result<(Verdict, Duration), ClientError> {
    let slot = (i % SESSIONS as u64) as usize;
    let (id, rev) = live.sessions[slot];
    let r = (rev % PERIOD as u64) as usize;
    let edit = Request::SessionEdit(SessionEditRequest::seal(
        id,
        rev,
        s.scripts[slot][r].clone(),
    ));
    let tune = Request::SessionTune(SessionTuneRequest {
        session_id: id,
        deadline_ms: None,
        cost_model: None,
    });
    let t0 = Instant::now();
    let edited = live.call("session_edit", &edit)?;
    match edited {
        Response::SessionEdited(e) if e.epoch == rev + 1 => live.sessions[slot].1 = rev + 1,
        other => return Ok((refusal(&other), t0.elapsed())),
    }
    let tuned = live.call("session_tune", &tune)?;
    let verdict = match &tuned {
        Response::SessionTuned(t) => {
            live.rebuilds += t.rebuilds;
            if t.epoch == rev + 1 && tuned_matches(&t.reply, &s.expected[slot][r]) {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            }
        }
        other => refusal(other),
    };
    Ok((verdict, t0.elapsed()))
}

/// The request of rpc op `i` and its endpoint name.
pub fn rpc_request(rpc: &RpcInputs, i: u64) -> (&Request, &'static str) {
    let pair = &rpc.pool[rpc.order[(i % rpc.order.len() as u64) as usize]];
    if rpc_is_simulate(i) {
        (&pair.simulate, "simulate")
    } else {
        (&pair.evaluate, "evaluate")
    }
}

/// Check rpc op `i`'s reply against the reference.
pub fn rpc_verdict(rpc: &RpcInputs, i: u64, resp: &Response) -> Verdict {
    let pair = &rpc.pool[rpc.order[(i % rpc.order.len() as u64) as usize]];
    match (rpc_is_simulate(i), resp) {
        (false, Response::Evaluated(r)) if evaluated_matches(r, &pair.evaluated) => Verdict::Ok,
        (true, Response::Simulated(r)) if simulated_matches(r, &pair.simulated) => Verdict::Ok,
        (_, other) => refusal(other),
    }
}

/// Pipelined rpc: keep [`RPC_WINDOW`] requests in flight until `stop`,
/// then drain.
fn rpc_loop(
    live: &mut Live,
    rpc: &RpcInputs,
    stop: Stop,
    start: Instant,
    phase: &mut Phase,
) -> Result<(), ClientError> {
    let mut inflight: HashMap<u64, (u64, &'static str, Instant)> = HashMap::new();
    loop {
        while inflight.len() < RPC_WINDOW
            && !stop.done(
                phase.attempted + inflight.len() as u64,
                phase,
                start.elapsed(),
            )
        {
            let i = live.next_op;
            live.next_op += 1;
            let (req, endpoint) = rpc_request(rpc, i);
            let t0 = Instant::now();
            let corr = live.client.send_request(req)?;
            inflight.insert(corr, (i, endpoint, t0));
        }
        if inflight.is_empty() {
            return Ok(());
        }
        let (corr, resp) = live.client.recv_response()?;
        let Some((i, endpoint, t0)) = inflight.remove(&corr) else {
            continue;
        };
        let verdict = rpc_verdict(rpc, i, &resp);
        let latency = t0.elapsed();
        live.record(endpoint, &resp);
        phase.add(verdict, latency);
    }
}

/// Process CPU of the idle servers over `window`, as a percentage of
/// one core.
pub fn idle_cpu_pct(window: Duration) -> f64 {
    let ns0 = procfs::live_threads_cpu_ns();
    let t0 = Instant::now();
    std::thread::sleep(window);
    let busy = procfs::live_threads_cpu_ns().saturating_sub(ns0) as f64;
    busy / t0.elapsed().as_nanos() as f64 * 100.0
}

/// `Stats` of every server of `live`, fetched over the wire, front last.
pub fn fetch_stats(live: &Live) -> Result<Vec<StatsReply>, String> {
    live.topo
        .addrs()
        .into_iter()
        .map(|addr| {
            Client::connect(addr)
                .and_then(|mut c| c.stats())
                .map_err(|e| format!("Stats from {addr}: {e}"))
        })
        .collect()
}

fn endpoint<'s>(stats: &'s StatsReply, name: &str) -> &'s EndpointStats {
    match name {
        "tune" => &stats.tune,
        "evaluate" => &stats.evaluate,
        "simulate" => &stats.simulate,
        "session_open" => &stats.session_open,
        "session_edit" => &stats.session_edit,
        "session_tune" => &stats.session_tune,
        other => panic!("no endpoint {other}"),
    }
}

/// Check the front server's per-endpoint `received`, `completed` and
/// `failed` (and its `Busy` count) against the client's own counts and,
/// for a fleet, that the shards received every sub-range the
/// coordinator sent. Returns the mismatches found.
pub fn reconcile(live: &Live) -> Result<(Vec<StatsReply>, Vec<String>), String> {
    // A fleet's shard counters trail the coordinator's by at most a
    // frame in flight; give them a moment to land.
    let mut stats = fetch_stats(live)?;
    for _ in 0..20 {
        if shard_gap(&stats).is_none() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        stats = fetch_stats(live)?;
    }
    let front = stats.last().expect("a topology has a server");
    let mut problems = Vec::new();
    let mut busy = 0;
    for (&name, t) in &live.tally {
        let e = endpoint(front, name);
        if (e.received, e.completed, e.failed) != (t.sent, t.completed, t.failed) {
            problems.push(format!(
                "{name}: server received/completed/failed {}/{}/{}, client {}/{}/{}",
                e.received, e.completed, e.failed, t.sent, t.completed, t.failed
            ));
        }
        busy += t.busy;
    }
    if front.busy_rejections != busy {
        problems.push(format!(
            "busy: server {}, client {busy}",
            front.busy_rejections
        ));
    }
    if let Some(gap) = shard_gap(&stats) {
        problems.push(gap);
    }
    Ok((stats, problems))
}

/// For a fleet: do the shards' `tune_shard.received` add up to the
/// coordinator's per-shard sends?
fn shard_gap(stats: &[StatsReply]) -> Option<String> {
    let fleet = stats.last()?.fleet.as_ref()?;
    let sent: u64 = fleet.shards.iter().map(|s| s.sends).sum();
    let received: u64 = stats[..stats.len() - 1]
        .iter()
        .map(|s| s.tune_shard.received)
        .sum();
    (sent != received)
        .then(|| format!("tune_shard: coordinator sent {sent}, shards received {received}"))
}
