//! Figure 15: the same learner (C4.5) over different feature sets.
//! See [`Pass::fig15`] for the figure and its paper result shape.

use fegen_bench::figures::{print_figures, Pass};

fn main() -> std::process::ExitCode {
    print_figures(&[("fig15_tree_comparison", Pass::fig15)])
}
