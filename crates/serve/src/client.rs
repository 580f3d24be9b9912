//! Blocking client for the `fm-serve` daemon.
//!
//! [`Client::connect`] negotiates the wire protocol on connect: it
//! sends a JSON [`Request::Hello`] and, when the server acknowledges,
//! switches the connection to the compact binary envelope with
//! pipelining. A server that predates negotiation answers the unknown
//! request with a protocol failure (or just closes); the client then
//! transparently reconnects and speaks classic JSON — old servers and
//! new clients interoperate, as do old clients and new servers (an
//! un-negotiated connection is served JSON byte-for-byte as before).
//! [`Client::connect_json`] skips negotiation outright.
//!
//! The typed helpers ([`Client::tune`], [`Client::evaluate`],
//! [`Client::simulate`], …) are one-at-a-time request/reply in either
//! encoding. On a negotiated connection [`Client::send_request`] /
//! [`Client::recv_response`] additionally expose pipelining: queue
//! many requests, then match completions (which arrive in *completion*
//! order) by correlation id. [`ClientError::Busy`] is its own variant
//! so load generators can count and back off.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use fm_core::mutate::GraphEdit;

use crate::metrics::StatsReply;
use crate::protocol::{
    decode_response_any, encode_request_binary, read_frame, read_response, write_frame,
    write_request, BusyReply, EvaluateReply, EvaluateRequest, FailReply, HelloRequest,
    MembershipReply, NoSuchSessionReply, Request, Response, SessionCloseRequest,
    SessionClosedReply, SessionEditRequest, SessionEditedReply, SessionOpenRequest,
    SessionOpenedReply, SessionTuneRequest, SessionTunedReply, ShardJoinRequest, ShardLeaveRequest,
    SimulateReply, SimulateRequest, TuneReply, TuneRequest, TuneShardPart, TuneShardReply,
    TuneShardRequest, WireError, DEFAULT_MAX_FRAME, PROTOCOL_BINARY_VERSION,
};

/// What went wrong with a request, from the client's point of view.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server refused admission: its queue is full. Back off and
    /// retry.
    Busy(BusyReply),
    /// The server is draining and no longer admits work.
    ShuttingDown,
    /// The server executed the request and reported a failure
    /// (`kind` is one of
    /// `protocol`/`deadline`/`illegal`/`sim`/`session`/`internal`).
    Failed(FailReply),
    /// The session named in a session request does not exist on the
    /// server — never opened, already closed, or evicted idle. Distinct
    /// from [`ClientError::Failed`] so callers can transparently reopen
    /// instead of pattern-matching error strings.
    NoSuchSession(NoSuchSessionReply),
    /// The request named a `cost_model` the server does not implement
    /// (or one that conflicts with the session's). Typed separately
    /// from [`ClientError::Failed`] because the right recovery —
    /// re-send under a supported model — is mechanical, not a retry.
    UnknownCostModel(FailReply),
    /// The server answered with a response variant that does not match
    /// the request (protocol confusion; should not happen).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Busy(b) => write!(
                f,
                "server busy: queue {}/{} full",
                b.queue_depth, b.queue_capacity
            ),
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::Failed(e) => write!(f, "request failed ({}): {}", e.kind, e.error),
            ClientError::NoSuchSession(r) => {
                write!(f, "no such session: {} (closed or evicted?)", r.session_id)
            }
            ClientError::UnknownCostModel(e) => write!(f, "cost model refused: {}", e.error),
            ClientError::Unexpected(kind) => write!(f, "unexpected response variant: {kind}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// Is this a transient refusal worth retrying after a pause?
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy(_))
    }

    /// Did the server report the session as gone? The right recovery is
    /// to reopen (the session id is dead for good — ids are never
    /// reused), not to retry.
    pub fn is_no_such_session(&self) -> bool {
        matches!(self, ClientError::NoSuchSession(_))
    }

    /// Did the server refuse the request's `cost_model` name?
    pub fn is_unknown_cost_model(&self) -> bool {
        matches!(self, ClientError::UnknownCostModel(_))
    }
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    /// Resolved addresses kept for the negotiation-fallback reconnect.
    addrs: Vec<SocketAddr>,
    /// Per-address bound used when dialing (`None` = OS default).
    connect_timeout: Option<Duration>,
    /// Negotiated: frames carry the binary envelope.
    binary: bool,
    /// Negotiated: the server completes this connection's requests
    /// out of order, matched by correlation id.
    pipeline: bool,
    next_corr: u64,
}

impl Client {
    /// Connect to a running server and negotiate the wire protocol
    /// (binary + pipelining when the server supports it, transparent
    /// JSON fallback when it predates negotiation).
    ///
    /// Uses the OS-default (blocking, unbounded) connect; callers with
    /// a deadline should use [`Client::connect_timeout`] so a
    /// black-holed address fails fast instead of hanging.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_json(addr)?.negotiate()
    }

    /// Connect with a bounded connect timeout per resolved address —
    /// thread a request deadline here so an unresponsive (SYN-dropping)
    /// server costs at most `timeout` per address instead of the OS
    /// default, which can be minutes. Negotiates like
    /// [`Client::connect`].
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(WireError::Io)?.collect();
        let stream = Client::dial(&addrs, Some(timeout))?;
        Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            addrs,
            connect_timeout: Some(timeout),
            binary: false,
            pipeline: false,
            next_corr: 0,
        }
        .negotiate()
    }

    /// Connect *without* negotiating: the connection speaks classic
    /// length-prefixed JSON, exactly like a client that predates the
    /// binary protocol. (Also what [`Client::connect`] degrades to
    /// against an old server.)
    pub fn connect_json(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(WireError::Io)?.collect();
        let stream = Client::dial(&addrs, None)?;
        Ok(Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            addrs,
            connect_timeout: None,
            binary: false,
            pipeline: false,
            next_corr: 0,
        })
    }

    fn dial(addrs: &[SocketAddr], timeout: Option<Duration>) -> Result<TcpStream, ClientError> {
        let mut last: Option<std::io::Error> = None;
        for addr in addrs {
            let attempt = match timeout {
                Some(t) => TcpStream::connect_timeout(addr, t),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Wire(WireError::Io(last.unwrap_or_else(
            || {
                std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "address resolved to nothing",
                )
            },
        ))))
    }

    /// Offer the highest version we speak, in JSON (the one encoding
    /// every server understands). A modern server acks and the
    /// connection goes binary; an old one answers the unknown request
    /// with a protocol failure — or just hangs up — and we reconnect
    /// to speak JSON, which it does understand. Requests are never
    /// silently lost either way: negotiation happens strictly before
    /// the first real request.
    fn negotiate(mut self) -> Result<Client, ClientError> {
        let hello = Request::Hello(HelloRequest {
            max_version: PROTOCOL_BINARY_VERSION,
            pipeline: true,
        });
        if write_request(&mut self.stream, &hello).is_err() {
            return self.fall_back_to_json();
        }
        match read_response(&mut self.stream, self.max_frame) {
            Ok(Response::HelloAck(ack)) => {
                self.binary = ack.version > 0;
                self.pipeline = ack.pipeline && self.binary;
                Ok(self)
            }
            Ok(_) | Err(_) => self.fall_back_to_json(),
        }
    }

    fn fall_back_to_json(mut self) -> Result<Client, ClientError> {
        self.binary = false;
        self.pipeline = false;
        // The old server closed the connection after the unknown
        // request; a fresh one starts with clean framing state.
        self.stream = Client::dial(&self.addrs, self.connect_timeout)?;
        Ok(self)
    }

    /// Did negotiation land on the binary envelope?
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Did negotiation enable out-of-order pipelining?
    pub fn is_pipelined(&self) -> bool {
        self.pipeline
    }

    /// Cap accepted response frames (mirror of the server-side cap).
    pub fn with_max_frame(mut self, max: usize) -> Client {
        self.max_frame = max;
        self
    }

    /// Queue one request without waiting for its reply. On a binary
    /// connection the returned correlation id names the reply frame
    /// ([`Client::recv_response`] echoes it); on a JSON connection
    /// replies come back strictly in request order and the id is
    /// always 0. Frames queued back-to-back share socket writes — this
    /// is the client half of pipelining.
    pub fn send_request(&mut self, request: &Request) -> Result<u64, ClientError> {
        if self.binary {
            self.next_corr += 1;
            let corr = self.next_corr;
            write_frame(&mut self.stream, &encode_request_binary(corr, request))
                .map_err(WireError::Io)?;
            Ok(corr)
        } else {
            write_request(&mut self.stream, request).map_err(WireError::Io)?;
            Ok(0)
        }
    }

    /// Read one response frame, whichever in-flight request it
    /// answers, with its correlation id (0 on JSON connections).
    pub fn recv_response(&mut self) -> Result<(u64, Response), ClientError> {
        let payload = read_frame(&mut self.stream, self.max_frame)?;
        let (corr, resp, _was_binary) = decode_response_any(&payload)?;
        Ok((corr, resp))
    }

    /// Send one request and read its response, raw.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let corr = self.send_request(request)?;
        loop {
            let (rcorr, resp) = self.recv_response()?;
            // Replies to abandoned correlation ids (a pipelined burst
            // cut short by an error) are drained, not surfaced.
            if !self.binary || rcorr == corr {
                return Ok(resp);
            }
        }
    }

    /// Shared unwrap: split out the refusals every endpoint can get.
    fn checked(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.call(request)? {
            Response::Busy(b) => Err(ClientError::Busy(b)),
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            Response::Failed(e) if e.kind == "cost-model" => Err(ClientError::UnknownCostModel(e)),
            Response::Failed(e) => Err(ClientError::Failed(e)),
            Response::NoSuchSession(r) => Err(ClientError::NoSuchSession(r)),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.checked(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Run a tuning search on the server.
    pub fn tune(&mut self, request: TuneRequest) -> Result<TuneReply, ClientError> {
        match self.checked(&Request::Tune(request))? {
            Response::Tuned(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Run one shard-range sub-search, collecting any streamed
    /// [`TuneShardPart`] frames (in arrival order) until the terminal
    /// [`TuneShardReply`] lands. With `stream_every: None` the parts
    /// vector is simply empty. Frames are returned as received —
    /// verification (epoch echo, checksum, completeness) is the
    /// caller's job, exactly as it is the fleet coordinator's.
    pub fn tune_shard(
        &mut self,
        request: TuneShardRequest,
    ) -> Result<(Vec<TuneShardPart>, TuneShardReply), ClientError> {
        let corr = self.send_request(&Request::TuneShard(request))?;
        let mut parts = Vec::new();
        loop {
            let (rcorr, resp) = self.recv_response()?;
            if self.binary && rcorr != corr {
                continue; // stray reply to an abandoned id
            }
            match resp {
                Response::TuneShardPart(part) => parts.push(part),
                Response::TuneSharded(reply) => return Ok((parts, reply)),
                Response::Busy(b) => return Err(ClientError::Busy(b)),
                Response::ShuttingDown => return Err(ClientError::ShuttingDown),
                Response::Failed(e) if e.kind == "cost-model" => {
                    return Err(ClientError::UnknownCostModel(e))
                }
                Response::Failed(e) => return Err(ClientError::Failed(e)),
                other => return Err(ClientError::Unexpected(other.kind())),
            }
        }
    }

    /// Evaluate one mapping's predicted cost.
    pub fn evaluate(&mut self, request: EvaluateRequest) -> Result<EvaluateReply, ClientError> {
        match self.checked(&Request::Evaluate(request))? {
            Response::Evaluated(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Execute one mapping in the cycle-level simulator.
    pub fn simulate(&mut self, request: SimulateRequest) -> Result<SimulateReply, ClientError> {
        match self.checked(&Request::Simulate(request))? {
            Response::Simulated(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Open a live-mutation session: the server keeps the graph,
    /// machine, candidate set, and warm tuning state resident under the
    /// returned session id.
    pub fn session_open(
        &mut self,
        request: SessionOpenRequest,
    ) -> Result<SessionOpenedReply, ClientError> {
        match self.checked(&Request::SessionOpen(request))? {
            Response::SessionOpened(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Apply a batch of graph edits to a session, sealing it (epoch
    /// stamp + checksum) on the way out. `epoch` must be the session's
    /// current epoch — the value returned by the previous open/edit
    /// reply — or the server refuses the whole batch.
    pub fn session_edit(
        &mut self,
        session_id: u64,
        epoch: u64,
        edits: Vec<GraphEdit>,
    ) -> Result<SessionEditedReply, ClientError> {
        let request = SessionEditRequest::seal(session_id, epoch, edits);
        match self.checked(&Request::SessionEdit(request))? {
            Response::SessionEdited(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Re-tune a session warm: candidate costs are repaired from the
    /// edit stream instead of recomputed, and the winner is
    /// bit-identical to a cold tune of the current graph.
    pub fn session_tune(
        &mut self,
        session_id: u64,
        deadline_ms: Option<u64>,
    ) -> Result<SessionTunedReply, ClientError> {
        let request = SessionTuneRequest {
            session_id,
            deadline_ms,
            cost_model: None,
        };
        match self.checked(&Request::SessionTune(request))? {
            Response::SessionTuned(r) => Ok(*r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Close a session, releasing its resident state.
    pub fn session_close(&mut self, session_id: u64) -> Result<SessionClosedReply, ClientError> {
        match self.checked(&Request::SessionClose(SessionCloseRequest { session_id }))? {
            Response::SessionClosed(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Admit a shard into a coordinator's running fleet roster
    /// (idempotent; answered with the roster after the change).
    pub fn shard_join(&mut self, addr: &str) -> Result<MembershipReply, ClientError> {
        let req = Request::ShardJoin(ShardJoinRequest {
            addr: addr.to_string(),
        });
        match self.checked(&req)? {
            Response::Membership(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Retire a shard from a coordinator's running fleet roster
    /// (idempotent; in-flight suffixes re-dispatch to survivors).
    pub fn shard_leave(&mut self, addr: &str) -> Result<MembershipReply, ClientError> {
        let req = Request::ShardLeave(ShardLeaveRequest {
            addr: addr.to_string(),
        });
        match self.checked(&req)? {
            Response::Membership(r) => Ok(r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Fetch the live metrics snapshot.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.checked(&Request::Stats)? {
            Response::Stats(r) => Ok(*r),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(other.kind())),
        }
    }

    /// Set the socket read timeout (useful for probing liveness
    /// without hanging the caller).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Wire(WireError::Io(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A loopback listener that answers no SYN: its accept queue is
    /// shrunk to the minimum and filled with connections nobody
    /// accepts, so the kernel drops every further SYN and a connect
    /// sits in SYN retry, as it would against a black-holed route.
    /// Returns the listener's address and what keeps the hole open.
    fn black_hole() -> (SocketAddr, std::net::TcpListener, Vec<TcpStream>) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn listen(fd: i32, backlog: i32) -> i32;
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Re-listening on a listening socket only resizes its queue.
        // SAFETY: `listen` reads nothing but its two integer arguments,
        // and the descriptor is a live socket owned by `listener`.
        assert_eq!(unsafe { listen(listener.as_raw_fd(), 0) }, 0);
        let mut queued = Vec::new();
        for _ in 0..16 {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Ok(stream) => queued.push(stream),
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    return (addr, listener, queued);
                }
                Err(e) => panic!("filling the accept queue failed: {e}"),
            }
        }
        panic!("the accept queue never filled after 16 connections");
    }

    #[test]
    fn connect_timeout_is_bounded_on_black_holed_address() {
        // Nothing answers the SYN, so a plain connect would sit in SYN
        // retry for the OS default (minutes). The bounded variant must
        // return — with an error, since no connection forms — in ~the
        // requested timeout.
        let (addr, _listener, _queued) = black_hole();
        let t0 = Instant::now();
        let result = Client::connect_timeout(addr, Duration::from_millis(250));
        assert!(result.is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "bounded connect took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn connect_timeout_fails_fast_on_closed_port() {
        // Bind an ephemeral port, note it, and close it again: nothing
        // listens there, so the bounded connect must fail (refused)
        // well inside the timeout rather than hanging.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let t0 = Instant::now();
        let result = Client::connect_timeout(("127.0.0.1", port), Duration::from_millis(250));
        assert!(result.is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "refused connect took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn connect_timeout_reports_unresolvable_addresses() {
        // A malformed address (no port) fails to resolve before any
        // lookup could start.
        let result = Client::connect_timeout("127.0.0.1", Duration::from_millis(100));
        assert!(matches!(result, Err(ClientError::Wire(WireError::Io(_)))));
    }
}
