//! Figure 2(b): the mesa motivating-example loop, Baseline/Oracle/GCC/GCC-Tree/Ours.
//! See [`Pass::fig02`] for the figure and its paper result shape.

use fegen_bench::figures::{print_figures, Pass};

fn main() -> std::process::ExitCode {
    print_figures(&[("fig02_motivating", Pass::fig02)])
}
