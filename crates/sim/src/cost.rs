//! Static per-block cost model: a dual-issue in-order scoreboard.
//!
//! For every basic block the model computes the cycles an in-order,
//! two-wide Pentium-class pipeline needs to issue and complete the block's
//! instructions, honouring register dependences and instruction latencies.
//! Dynamic effects (cache misses, branch mispredictions) are added by the
//! interpreter at run time on top of these static costs. The decoded
//! function images of [`crate::image`] drive the scoreboard while they
//! decode each block, so costs come out of the same single pass.

use fegen_rtl::node::{Mode, RtxCode};

/// Latency/penalty constants of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Instructions issued per cycle.
    pub issue_width: u64,
    /// L1 data-cache miss penalty (cycles).
    pub dcache_miss: u64,
    /// Instruction-cache miss penalty per missing line (cycles).
    pub icache_miss: u64,
    /// Branch misprediction penalty (cycles).
    pub mispredict: u64,
    /// Fixed call/return overhead (cycles).
    pub call_overhead: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            issue_width: 2,
            dcache_miss: 20,
            icache_miss: 10,
            mispredict: 8,
            call_overhead: 10,
        }
    }
}

/// Issue latency of one node of a `set` source: the slowest node of the
/// source tree bounds the instruction's latency.
pub(crate) fn node_latency(code: RtxCode, mode: Mode) -> u64 {
    match (code, mode) {
        (RtxCode::Mult, Mode::DF) => 5,
        (RtxCode::Mult, _) => 4,
        (RtxCode::Div, Mode::DF) => 30,
        (RtxCode::Div, _) => 16,
        (RtxCode::Mod, _) => 16,
        (RtxCode::Plus | RtxCode::Minus | RtxCode::Neg, Mode::DF) => 3,
        (RtxCode::Float | RtxCode::Fix | RtxCode::FloatExtend, _) => 3,
        _ => 1,
    }
}

/// The static cost of one basic block, computed one instruction at a time:
/// an in-order dual-issue scoreboard (register readiness, issue slots,
/// latencies) plus a register-pressure spill estimate.
///
/// Register state is dense and reset by stamp, so one scoreboard serves
/// every block of a function without clearing or allocating per block.
#[derive(Debug, Default)]
pub(crate) struct Scoreboard {
    /// Cycle at which each register's value is ready (valid when
    /// `ready_stamp[r] == stamp`; absent registers are ready at 0).
    ready: Vec<u64>,
    ready_stamp: Vec<u32>,
    /// Whether the register was already counted for spills this block.
    seen_stamp: Vec<u32>,
    stamp: u32,
    cycle: u64,
    slot: u64,
    done_max: u64,
    issued: bool,
    distinct: u64,
}

impl Scoreboard {
    /// Starts a new block.
    pub(crate) fn begin_block(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamps wrapped: forget every stale mark.
            self.ready_stamp.fill(0);
            self.seen_stamp.fill(0);
            self.stamp = 1;
        }
        self.cycle = 0;
        self.slot = 0;
        self.done_max = 0;
        self.issued = false;
        self.distinct = 0;
    }

    fn grow(&mut self, r: u32) {
        let need = r as usize + 1;
        if need > self.ready.len() {
            self.ready.resize(need, 0);
            self.ready_stamp.resize(need, 0);
            self.seen_stamp.resize(need, 0);
        }
    }

    /// Counts `r` toward the block's register pressure.
    pub(crate) fn touch(&mut self, r: u32) {
        self.grow(r);
        let seen = &mut self.seen_stamp[r as usize];
        if *seen != self.stamp {
            *seen = self.stamp;
            self.distinct += 1;
        }
    }

    /// Cycle at which register `r` is ready.
    pub(crate) fn ready_at(&self, r: u32) -> u64 {
        match self.ready_stamp.get(r as usize) {
            Some(&s) if s == self.stamp => self.ready[r as usize],
            _ => 0,
        }
    }

    /// Issues one instruction whose operands are ready at `earliest` and
    /// which completes `latency` cycles after issue; returns its
    /// completion cycle.
    pub(crate) fn issue(&mut self, earliest: u64, latency: u64, model: &CostModel) -> u64 {
        if self.slot >= model.issue_width {
            self.cycle += 1;
            self.slot = 0;
        }
        if earliest > self.cycle {
            self.cycle = earliest;
            self.slot = 0;
        }
        self.slot += 1;
        self.issued = true;
        let done = self.cycle + latency;
        self.done_max = self.done_max.max(done);
        done
    }

    /// Records that register `r` is ready at cycle `at`.
    pub(crate) fn define(&mut self, r: u32, at: u64) {
        self.grow(r);
        self.ready[r as usize] = at;
        self.ready_stamp[r as usize] = self.stamp;
    }

    /// The finished block's `(cycles, spill)`: cycles to execute it once
    /// (dependences and issue bound, at least one for a non-empty block)
    /// and its spill overhead — beyond eight live integer registers a
    /// Pentium must spill, each excess register costing roughly a store
    /// plus a (likely L1-hit) reload per block execution.
    pub(crate) fn finish_block(&self) -> (u64, u64) {
        (
            self.done_max.max(u64::from(self.issued)),
            self.distinct.saturating_sub(8) * 3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{function_index, FuncImage};
    use fegen_rtl::lower::lower_program;

    fn lower(src: &str) -> fegen_rtl::RtlProgram {
        lower_program(&fegen_lang::parse_program(src).unwrap()).unwrap()
    }

    /// Static cost of every block of the program's first function.
    fn costs(src: &str) -> Vec<u64> {
        let p = lower(src);
        let image = FuncImage::build(
            &p,
            &function_index(&p),
            &p.functions[0],
            &CostModel::default(),
        );
        image.blocks.iter().map(|b| b.cost).collect()
    }

    /// Issue-bound cycles of a one-block function: its cost minus the
    /// spill estimate, recounted here from the registers its `set`s name.
    fn issue_cycles(src: &str) -> u64 {
        let p = lower(src);
        let mut regs = std::collections::HashSet::new();
        for insn in &p.functions[0].insns {
            if let fegen_rtl::node::InsnBody::Set { dest, src } = &insn.body {
                let mut used = Vec::new();
                src.regs_used(&mut used);
                dest.regs_used(&mut used);
                regs.extend(used);
            }
        }
        let spill = (regs.len() as u64).saturating_sub(8) * 3;
        costs(src)[0] - spill
    }

    #[test]
    fn longer_blocks_cost_more() {
        let a = costs("int f(int x) { return x + 1; }");
        let b = costs("int f(int x) { int t; t = x + 1; t = t * 3; t = t - x; return t; }");
        assert!(b[0] > a[0]);
    }

    #[test]
    fn division_dominates_cost() {
        let div = costs("int f(int x) { return x / 3; }");
        let add = costs("int f(int x) { return x + 3; }");
        assert!(div[0] >= add[0] + 10);
    }

    #[test]
    fn independent_ops_pair_up() {
        // Eight independent adds: ≈ 4 issue cycles + 1 latency.
        let ind = issue_cycles(
            "void f(int a, int b) {\n\
               int t0; int t1; int t2; int t3; int t4; int t5; int t6; int t7;\n\
               t0 = a + 1; t1 = a + 2; t2 = a + 3; t3 = a + 4;\n\
               t4 = b + 1; t5 = b + 2; t6 = b + 3; t7 = b + 4;\n\
             }",
        );
        // Eight chained adds: ≥ 8 cycles.
        let dep = issue_cycles(
            "void f(int a) {\n\
               int t;\n\
               t = a + 1; t = t + 2; t = t + 3; t = t + 4;\n\
               t = t + 1; t = t + 2; t = t + 3; t = t + 4;\n\
             }",
        );
        assert!(dep > ind, "dependent {dep} vs independent {ind}");
    }

    #[test]
    fn spill_cost_kicks_in_beyond_eight_regs() {
        let mut sb = Scoreboard::default();
        sb.begin_block();
        for r in 0..8 {
            sb.touch(r);
            sb.touch(r);
        }
        assert_eq!(sb.finish_block().1, 0, "eight registers fit");
        for r in 100..104 {
            sb.touch(r);
        }
        assert_eq!(sb.finish_block().1, 4 * 3, "each excess register costs 3");
        // The next block starts from a clean slate.
        sb.begin_block();
        sb.touch(0);
        assert_eq!(sb.finish_block(), (0, 0));
    }

    #[test]
    fn register_pressure_raises_block_cost() {
        // Twelve registers live in one block cost spills on top of the
        // issue-bound cycles of the same adds over four registers.
        let mut wide = String::new();
        let mut narrow = String::new();
        for k in 0..12 {
            wide.push_str(&format!("int t{k}; t{k} = x + {k};\n"));
            narrow.push_str(&format!("t{} = x + {k};\n", k % 3));
        }
        let wide = costs(&format!("void f(int x) {{ {wide} }}"));
        let narrow = costs(&format!(
            "void f(int x) {{ int t0; int t1; int t2; {narrow} }}"
        ));
        assert!(
            wide[0] > narrow[0],
            "wide {} vs narrow {}",
            wide[0],
            narrow[0]
        );
    }

    #[test]
    fn ready_times_reset_between_blocks() {
        let model = CostModel::default();
        let mut sb = Scoreboard::default();
        sb.begin_block();
        let done = sb.issue(0, 30, &model);
        sb.define(5, done);
        assert_eq!(sb.ready_at(5), 30);
        sb.begin_block();
        assert_eq!(
            sb.ready_at(5),
            0,
            "a new block starts with every register ready"
        );
    }

    #[test]
    fn empty_block_costs_at_most_one() {
        let c = costs("void f() { }");
        assert!(c[0] <= 1);
    }
}
