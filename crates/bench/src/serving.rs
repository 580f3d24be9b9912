//! What the serving experiments (E15–E17, E19, E21) share: the
//! workload graph, its candidate list, the tune request that carries
//! them, the single-machine winner every served answer is checked
//! against, and the latency quantile their tables report.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fm_autotune::{TunedMapping, Tuner};
use fm_core::affine::IdxExpr;
use fm_core::cost::Evaluator;
use fm_core::dataflow::{CExpr, DataflowGraph};
use fm_core::machine::MachineConfig;
use fm_core::mapping::{AffineMap, Mapping, PlaceExpr};
use fm_core::search::{FigureOfMerit, MappingCandidate};
use fm_core::value::Value;
use fm_serve::client::Client;
use fm_serve::fleet::FleetConfig;
use fm_serve::protocol::{TuneRequest, WireCandidate};
use fm_serve::server::{Server, ServerConfig, ServerHandle};

/// `n` independent constant nodes, in a graph called `name`.
pub fn wide(name: &str, n: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new(name, 32);
    for i in 0..n {
        g.add_node(CExpr::konst(Value::real(i as f64)), vec![], vec![i as i64]);
    }
    g
}

/// Legal fold-onto-`w`-PEs candidates (place `i mod w`, time `i div w`).
pub fn candidates(n: usize, cols: u32) -> Vec<WireCandidate> {
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

/// An uncached `Time` tune of `graph` over the first `ncand`
/// [`candidates`].
pub fn tune_request(graph: &DataflowGraph, machine: &MachineConfig, ncand: usize) -> TuneRequest {
    TuneRequest {
        graph: graph.clone(),
        machine: machine.clone(),
        fom: FigureOfMerit::Time,
        candidates: candidates(ncand, machine.cols),
        deadline_ms: None,
        max_candidates: None,
        convergence_window: None,
        refinement: None,
        use_cache: false,
        cost_model: None,
    }
}

/// The winner one in-process `Tuner::tune` picks for [`tune_request`].
pub fn direct_winner(graph: &DataflowGraph, machine: &MachineConfig, ncand: usize) -> TunedMapping {
    let evaluator = Evaluator::new(graph, machine);
    let cands: Vec<MappingCandidate> = candidates(ncand, machine.cols)
        .into_iter()
        .map(|c| MappingCandidate::new(c.label, c.mapping))
        .collect();
    Tuner::new(&evaluator, graph, machine, FigureOfMerit::Time)
        .tune(&cands)
        .best
        .expect("direct tuner found a winner")
}

/// Is `got` the `expected` winner, bit for bit (label, score bits,
/// resolved tables)?
pub fn same_winner(got: &TunedMapping, expected: &TunedMapping) -> bool {
    got.label == expected.label
        && got.score.to_bits() == expected.score.to_bits()
        && got.resolved == expected.resolved
}

/// One [`tune_request`] through `client`: its latency in ms, and
/// whether it returned `expected`.
pub fn timed_tune(
    client: &mut Client,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    ncand: usize,
    expected: &TunedMapping,
) -> (f64, bool) {
    let t = Instant::now();
    let reply = client
        .tune(tune_request(graph, machine, ncand))
        .expect("tune");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, same_winner(&reply.best.expect("a winner"), expected))
}

/// `tunes` sequential [`timed_tune`]s over one connection to `addr`:
/// their latencies sorted ascending, the whole sequence's wall-clock
/// in ms, and whether every one returned `expected`.
pub fn drive(
    addr: SocketAddr,
    graph: &DataflowGraph,
    machine: &MachineConfig,
    ncand: usize,
    tunes: usize,
    expected: &TunedMapping,
) -> (Vec<f64>, f64, bool) {
    let mut client = Client::connect(addr).expect("connect");
    let mut lat = Vec::with_capacity(tunes);
    let mut identical = true;
    let t0 = Instant::now();
    for _ in 0..tunes {
        let (ms, same) = timed_tune(&mut client, graph, machine, ncand, expected);
        lat.push(ms);
        identical &= same;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    lat.sort_by(|a, b| a.total_cmp(b));
    (lat, wall_ms, identical)
}

/// The nearest-rank `q` quantile of ascending `sorted` latencies; 0
/// when there are none.
pub fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A fleet over `shards` whose connects and backoffs are tightened so
/// fault handling happens in bench time; the production defaults only
/// stretch the same machinery.
pub fn fleet(shards: Vec<String>, attempt_timeout: Duration) -> FleetConfig {
    let mut f = FleetConfig::new(shards);
    f.connect_timeout = Duration::from_millis(200);
    f.attempt_timeout = attempt_timeout;
    f.backoff_base = Duration::from_millis(5);
    f.backoff_max = Duration::from_millis(40);
    f
}

/// A server on an ephemeral port with `config`.
pub fn start(config: ServerConfig) -> ServerHandle {
    Server::start("127.0.0.1:0", config).expect("bind")
}

/// A coordinator on an ephemeral port, fronting `fleet`.
pub fn coordinator(fleet: FleetConfig) -> ServerHandle {
    start(ServerConfig {
        fleet: Some(fleet),
        ..ServerConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_picks_sorted_ranks() {
        let lat = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_ms(&lat, 0.50), 2.0);
        assert_eq!(quantile_ms(&lat, 0.99), 4.0);
        assert_eq!(quantile_ms(&lat, 1.0), 4.0);
        assert_eq!(quantile_ms(&[], 0.5), 0.0);
    }
}
