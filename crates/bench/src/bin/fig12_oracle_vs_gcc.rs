//! Figure 12 + §VII-A limit study: per-benchmark oracle vs GCC speedups.
//! See [`Pass::fig12`] for the figure and its paper result shape.

use fegen_bench::figures::{print_figures, Pass};

fn main() -> std::process::ExitCode {
    print_figures(&[("fig12_oracle_vs_gcc", Pass::fig12)])
}
