//! Figure 16: the features found in one cross-validation fold.
//! See [`Pass::fig16`] for the figure and its paper result shape.

use fegen_bench::figures::{print_figures, Pass};

fn main() -> std::process::ExitCode {
    print_figures(&[("fig16_best_features", Pass::fig16)])
}
