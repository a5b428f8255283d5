//! Figure 14: the stateML features on a few loops of the tiny suite.
//! See [`Pass::fig14`] for the figure and its paper result shape.

use fegen_bench::figures::{print_figures, Pass};

fn main() -> std::process::ExitCode {
    print_figures(&[("fig14_stateml_features", Pass::fig14)])
}
