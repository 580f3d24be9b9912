//! **E11 — communication as volume AND events** (§6).
//!
//! Yelick: "Algorithms must also treat communication avoidance as a
//! first-class optimization target, reducing both data movement volume
//! and number of distinct events." — and heavyweight mechanisms
//! "require more data aggregation to amortize overhead \[and\] can
//! consume precious fast memory resources."
//!
//! The ledger counts both. We report, per kernel and P: message events,
//! bits moved, distance-weighted volume (bit·mm), and the mean message
//! size; then an aggregation sweep shows the volume/event trade: batch
//! `k` stencil steps per exchange and events drop by `k` while volume
//! grows with the halo width (and the tile footprint grows with the
//! batch).

use fm_core::cost::Evaluator;
use fm_core::machine::MachineConfig;
use fm_core::mapping::InputPlacement;
use fm_kernels::editdist::{edit_recurrence, paper_input_placements, skewed_mapping, Scoring};
use fm_kernels::stencil::{blocked_mapping, stencil_recurrence};

use crate::table;

/// Measured traffic for one configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration name.
    pub config: String,
    /// On-chip message events.
    pub messages: u64,
    /// Bits moved.
    pub bits: u64,
    /// Distance-weighted volume.
    pub bit_mm: f64,
    /// Mean bits per message.
    pub mean_message_bits: f64,
    /// Peak tile bits (the "precious fast memory" cost of aggregation).
    pub peak_tile_bits: u64,
}

/// Measure traffic for edit distance and the stencil across P values.
pub fn run(p_values: &[i64]) -> Vec<Row> {
    let mut rows = Vec::new();

    let n = 48;
    let rec = edit_recurrence(n, n, Scoring::paper_local());
    let g = rec.elaborate().unwrap();
    for &p in p_values {
        let machine = MachineConfig::linear(p as u32);
        let rm = skewed_mapping(p, n).resolve(&g, &machine).unwrap();
        let mut ev = Evaluator::new(&g, &machine);
        for (i, pl) in paper_input_placements(p).into_iter().enumerate() {
            ev = ev.with_input_placement(i, pl);
        }
        let rep = ev.evaluate(&rm);
        rows.push(Row {
            config: format!("editdist{n} P={p}"),
            messages: rep.ledger.onchip_messages,
            bits: rep.ledger.onchip_bits,
            bit_mm: rep.ledger.onchip_bit_mm,
            mean_message_bits: rep.ledger.mean_message_bits(),
            peak_tile_bits: rep.peak_tile_bits,
        });
    }

    let (t, ns) = (16, 64);
    let sg = stencil_recurrence(t, ns).elaborate().unwrap();
    for &p in p_values {
        let machine = MachineConfig::linear(p as u32);
        let rm = blocked_mapping(ns, p).resolve(&sg, &machine).unwrap();
        let rep = Evaluator::new(&sg, &machine)
            .with_all_inputs(InputPlacement::AtUse)
            .evaluate(&rm);
        rows.push(Row {
            config: format!("stencil{t}x{ns} P={p}"),
            messages: rep.ledger.onchip_messages,
            bits: rep.ledger.onchip_bits,
            bit_mm: rep.ledger.onchip_bit_mm,
            mean_message_bits: rep.ledger.mean_message_bits(),
            peak_tile_bits: rep.peak_tile_bits,
        });
    }

    rows
}

/// Aggregation sweep row: batching `k` stencil steps per exchange.
#[derive(Debug, Clone)]
pub struct AggRow {
    /// Steps batched per exchange.
    pub k: usize,
    /// Message events per PE boundary over the whole run (analytic).
    pub events: u64,
    /// Words exchanged per boundary over the whole run (halo width = k).
    pub words: u64,
    /// Extra halo words buffered per tile (the fast-memory cost).
    pub halo_tile_words: u64,
}

/// Analytic aggregation model for a `t_steps`-step stencil: exchanging
/// every `k` steps needs a `k`-deep halo, so events fall as `t/k` while
/// words per exchange grow as `k` (volume stays ~constant, plus
/// redundant halo recompute) and the tile must buffer `k` halo words.
pub fn run_aggregation(t_steps: usize, ks: &[usize]) -> Vec<AggRow> {
    ks.iter()
        .map(|&k| {
            let exchanges = t_steps.div_ceil(k) as u64;
            AggRow {
                k,
                events: exchanges,
                words: exchanges * k as u64,
                halo_tile_words: k as u64,
            }
        })
        .collect()
}

/// Render both tables.
pub fn print(rows: &[Row], agg: &[AggRow]) -> String {
    let mut out = String::from("E11 — communication volume and events\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.messages.to_string(),
                r.bits.to_string(),
                table::f(r.bit_mm),
                table::f(r.mean_message_bits),
                r.peak_tile_bits.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "config",
            "events",
            "bits",
            "bit·mm",
            "bits/msg",
            "peak tile",
        ],
        &table_rows,
    ));
    out.push_str("\naggregation sweep (stencil halo batching, per boundary):\n\n");
    let agg_rows: Vec<Vec<String>> = agg
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.events.to_string(),
                r.words.to_string(),
                r.halo_tile_words.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["batch k", "events", "words", "halo words/tile"],
        &agg_rows,
    ));
    out.push_str("\nevents fall as t/k; the price is halo buffering in the tile —\nYelick's 'consume precious fast memory resources' trade, quantified.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_volume_both_reported() {
        let rows = run(&[2, 8]);
        for r in &rows {
            assert!(r.messages > 0);
            assert!(r.bits >= r.messages * 32);
            assert!(r.mean_message_bits >= 32.0);
        }
    }

    #[test]
    fn stencil_events_grow_with_p_but_slower_than_editdist() {
        let rows = run(&[2, 8]);
        let get = |pfx: &str, p: i64| {
            rows.iter()
                .find(|r| r.config.starts_with(pfx) && r.config.ends_with(&format!("P={p}")))
                .unwrap()
                .messages
        };
        // Stencil: boundary-only communication — events scale with P.
        assert!(get("stencil", 8) > get("stencil", 2));
        // Edit distance communicates every cell: far more events.
        assert!(get("editdist", 8) > 4 * get("stencil", 8));
    }

    #[test]
    fn aggregation_trades_events_for_tile_space() {
        let agg = run_aggregation(64, &[1, 4, 16]);
        assert_eq!(agg[0].events, 64);
        assert_eq!(agg[1].events, 16);
        assert_eq!(agg[2].events, 4);
        // Tile cost grows with the batch.
        assert!(agg[2].halo_tile_words > agg[0].halo_tile_words);
        // Total words stay constant here (halo of k covers k steps).
        assert_eq!(agg[0].words, agg[2].words);
    }
}
