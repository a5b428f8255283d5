//! Figure 13: GCC vs stateML (SVM) vs our technique, per benchmark.
//! See [`Pass::fig13`] for the figure and its paper result shape.

use fegen_bench::figures::{print_figures, Pass};

fn main() -> std::process::ExitCode {
    print_figures(&[("fig13_comparison", Pass::fig13)])
}
