//! Mechanical lowering of (function, mapping) to an architecture
//! description.
//!
//! "An algorithm expressed in this model also directly specifies a
//! domain-specific architecture. Given a definition and mapping,
//! lowering the specification to hardware (e.g., in Verilog or Chisel)
//! is a mechanical process."
//!
//! [`lower`] extracts, from a mapped graph, exactly what a hardware
//! generator needs: the grid bounding box actually used, the op mix
//! each PE must support, the issue width and tile capacity each PE
//! needs, link utilization, and the off-chip interface width. The
//! result serializes (serde) and renders as a human-readable RTL
//! sketch — the mechanical step the paper asserts, demonstrated.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use fm_costmodel::OpClass;

use crate::cost::Evaluator;
use crate::dataflow::DataflowGraph;
use crate::machine::MachineConfig;
use crate::mapping::ResolvedMapping;

/// Per-PE requirements extracted from the mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeRequirements {
    /// Functional units needed: op class → count of ops of that class
    /// the PE executes over the whole run (a generator would instance
    /// one unit per class; counts inform pipelining).
    pub op_mix: BTreeMap<String, u64>,
    /// Maximum elements this PE evaluates in one cycle.
    pub issue_width: u32,
    /// Peak live bits this PE's tile must hold.
    pub tile_bits: u64,
}

/// A lowered architecture description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchitectureDescr {
    /// Derived from the graph name.
    pub name: String,
    /// Columns in the used bounding box.
    pub cols: u32,
    /// Rows in the used bounding box.
    pub rows: u32,
    /// Clock period in ps.
    pub clock_ps: f64,
    /// Datapath width in bits.
    pub width_bits: u32,
    /// The *maximum* per-PE requirements (a homogeneous array must meet
    /// the worst case).
    pub pe: PeRequirements,
    /// NoC link width in bits.
    pub link_width_bits: u32,
    /// Total off-chip traffic in bits (sizes the DRAM interface).
    pub offchip_bits: u64,
    /// Total cycles of the schedule (for throughput/II calculations).
    pub cycles: i64,
}

/// Lower a mapped function to an architecture description.
///
/// The mapping is assumed legal. `offchip_bits` should come from the
/// cost report's ledger (`offchip_bits`), since input placement policy
/// lives there; pass 0 for a fully on-chip design.
pub fn lower(
    graph: &DataflowGraph,
    rm: &ResolvedMapping,
    machine: &MachineConfig,
    offchip_bits: u64,
) -> ArchitectureDescr {
    // Bounding box of used PEs.
    let (mut max_x, mut max_y) = (0i64, 0i64);
    for &(x, y) in &rm.place {
        max_x = max_x.max(x);
        max_y = max_y.max(y);
    }

    // Per-PE op mix and issue width.
    let mut op_mix: BTreeMap<(i64, i64), BTreeMap<String, u64>> = BTreeMap::new();
    let mut issue: BTreeMap<((i64, i64), i64), u32> = BTreeMap::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        let pe = rm.place[id];
        let mix = op_mix.entry(pe).or_default();
        for op in n.expr.op_kinds(graph.width_bits) {
            *mix.entry(class_name(op.class).to_string()).or_insert(0) += 1;
        }
        *issue.entry((pe, rm.time[id])).or_insert(0) += 1;
    }
    // Worst-case PE: union of op mixes with max counts, max issue, max
    // tile peak.
    let mut worst_mix: BTreeMap<String, u64> = BTreeMap::new();
    for mix in op_mix.values() {
        for (k, v) in mix {
            let e = worst_mix.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
    }
    let worst_issue = issue.values().copied().max().unwrap_or(0);
    let worst_tile = Evaluator::new(graph, machine).evaluate(rm).peak_tile_bits;

    ArchitectureDescr {
        name: {
            // Sanitize to a legal RTL identifier.
            let base: String = graph
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            format!("{base}_array")
        },
        cols: (max_x + 1) as u32,
        rows: (max_y + 1) as u32,
        clock_ps: machine.clock_period().raw(),
        width_bits: graph.width_bits,
        pe: PeRequirements {
            op_mix: worst_mix,
            issue_width: worst_issue,
            tile_bits: worst_tile,
        },
        link_width_bits: machine.link_width_bits,
        offchip_bits,
        cycles: rm.makespan(),
    }
}

fn class_name(c: OpClass) -> &'static str {
    match c {
        OpClass::AddLike => "alu_addsub",
        OpClass::Multiply => "multiplier",
        OpClass::Logic => "logic",
        OpClass::SramBit => "sram_port",
        OpClass::Move => "mover",
    }
}

/// A violation found by [`ArchitectureDescr::check_fits`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FitError {
    /// The design needs a wider grid than the machine provides.
    Grid {
        /// Required (cols, rows).
        required: (u32, u32),
        /// Available (cols, rows).
        available: (u32, u32),
    },
    /// The design needs more issue slots per cycle than a PE has.
    IssueWidth {
        /// Required issue width.
        required: u32,
        /// Available issue width.
        available: u32,
    },
    /// The design needs more tile storage than a PE has.
    TileBits {
        /// Required bits.
        required: u64,
        /// Available bits.
        available: u64,
    },
}

impl ArchitectureDescr {
    /// Verify that this lowered design fits a machine — grid extent,
    /// issue width, tile capacity. The paper's §4 (Martonosi) argues
    /// for "formal specifications that support automated full-stack
    /// verification"; this is that check at the mapping/machine
    /// interface: lowering gives a *specification* of requirements,
    /// and fitting is decidable by inspection.
    pub fn check_fits(&self, machine: &MachineConfig) -> Vec<FitError> {
        let mut errors = Vec::new();
        if self.cols > machine.cols || self.rows > machine.rows {
            errors.push(FitError::Grid {
                required: (self.cols, self.rows),
                available: (machine.cols, machine.rows),
            });
        }
        if self.pe.issue_width > machine.issue_width {
            errors.push(FitError::IssueWidth {
                required: self.pe.issue_width,
                available: machine.issue_width,
            });
        }
        if self.pe.tile_bits > machine.tile_bits {
            errors.push(FitError::TileBits {
                required: self.pe.tile_bits,
                available: machine.tile_bits,
            });
        }
        errors
    }

    /// Render a structural RTL sketch (Verilog-flavored pseudocode).
    /// This is documentation of the mechanical lowering, not synthesizable
    /// RTL: the real generator would emit one PE module with the listed
    /// units plus the mesh interconnect.
    pub fn rtl_sketch(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "// Generated from function '{}' — mechanical lowering (F&M §3)\n",
            self.name
        ));
        s.push_str(&format!(
            "module {} #(parameter W = {}) (input clk, input rst);\n",
            self.name, self.width_bits
        ));
        s.push_str(&format!(
            "  // {} x {} PE mesh, clock {:.0} ps, schedule length {} cycles\n",
            self.cols, self.rows, self.clock_ps, self.cycles
        ));
        s.push_str(&format!(
            "  genvar gx, gy;\n  generate\n    for (gy = 0; gy < {}; gy = gy + 1) begin : row\n      for (gx = 0; gx < {}; gx = gx + 1) begin : col\n",
            self.rows, self.cols
        ));
        s.push_str(&format!(
            "        pe #(.W(W), .ISSUE({}), .TILE_BITS({})) u_pe (.clk(clk), .rst(rst));\n",
            self.pe.issue_width, self.pe.tile_bits
        ));
        for (unit, count) in &self.pe.op_mix {
            s.push_str(&format!(
                "        // unit {unit}: {count} ops over the schedule\n"
            ));
        }
        s.push_str("      end\n    end\n  endgenerate\n");
        s.push_str(&format!(
            "  // mesh links: {} bits/cycle; off-chip interface: {} bits total\n",
            self.link_width_bits, self.offchip_bits
        ));
        s.push_str("endmodule\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::CExpr;
    use crate::mapping::Mapping;
    use crate::value::Value;

    fn small_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new("kernel", 32);
        let a = g.add_node(CExpr::konst(Value::real(1.0)), vec![], vec![0]);
        let b = g.add_node(
            CExpr::dep(0).mul(CExpr::konst(Value::real(2.0))),
            vec![a],
            vec![1],
        );
        let c = g.add_node(CExpr::dep(0).add(CExpr::dep(1)), vec![a, b], vec![2]);
        g.mark_output(c);
        g
    }

    #[test]
    fn lowering_extracts_bounding_box() {
        let g = small_graph();
        let m = MachineConfig::n5(8, 8);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (2, 1), (2, 1)],
            time: vec![0, 3, 6],
        };
        let arch = lower(&g, &rm, &m, 0);
        assert_eq!(arch.cols, 3);
        assert_eq!(arch.rows, 2);
        assert_eq!(arch.cycles, 7);
    }

    #[test]
    fn op_mix_worst_case_per_pe() {
        let g = small_graph();
        let m = MachineConfig::n5(4, 4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let arch = lower(&g, &rm, &m, 0);
        assert_eq!(arch.pe.op_mix.get("multiplier"), Some(&1));
        assert_eq!(arch.pe.op_mix.get("alu_addsub"), Some(&1));
        assert_eq!(arch.pe.issue_width, 1);
    }

    #[test]
    fn tile_bits_sized_from_liveness() {
        let g = small_graph();
        let m = MachineConfig::n5(4, 4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let arch = lower(&g, &rm, &m, 0);
        assert!(arch.pe.tile_bits >= 64); // a and b live simultaneously
    }

    #[test]
    fn serde_round_trip() {
        let g = small_graph();
        let m = MachineConfig::n5(4, 4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let arch = lower(&g, &rm, &m, 128);
        let s = serde_json::to_string(&arch).unwrap();
        let back: ArchitectureDescr = serde_json::from_str(&s).unwrap();
        assert_eq!(back, arch);
    }

    #[test]
    fn lowered_design_fits_its_own_machine() {
        let g = small_graph();
        let m = MachineConfig::n5(4, 4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let arch = lower(&g, &rm, &m, 0);
        assert!(arch.check_fits(&m).is_empty());
    }

    #[test]
    fn fit_check_finds_undersized_machines() {
        let g = small_graph();
        let m = MachineConfig::n5(8, 8);
        let rm = ResolvedMapping {
            place: vec![(0, 0), (5, 3), (5, 3)],
            time: vec![0, 3, 6],
        };
        let arch = lower(&g, &rm, &m, 0);
        let tiny = {
            let mut t = MachineConfig::n5(2, 2);
            t.tile_bits = 8;
            t
        };
        let errors = arch.check_fits(&tiny);
        assert!(errors.iter().any(|e| matches!(e, FitError::Grid { .. })));
        assert!(errors
            .iter()
            .any(|e| matches!(e, FitError::TileBits { .. })));
    }

    #[test]
    fn rtl_sketch_mentions_grid_and_units() {
        let g = small_graph();
        let m = MachineConfig::n5(4, 4);
        let rm = Mapping::serial(&g).resolve(&g, &m).unwrap();
        let arch = lower(&g, &rm, &m, 0);
        let rtl = arch.rtl_sketch();
        assert!(rtl.contains("module kernel_array"));
        assert!(rtl.contains("multiplier"));
        assert!(rtl.contains("generate"));
    }
}
