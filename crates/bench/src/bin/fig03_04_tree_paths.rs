//! Figures 3–4: the decision paths of the learned trees on the mesa loop.
//! See [`Pass::fig03_04`] for the figure and its paper result shape.

use fegen_bench::figures::{print_figures, Pass};

fn main() -> std::process::ExitCode {
    print_figures(&[("fig03_04_tree_paths", Pass::fig03_04)])
}
