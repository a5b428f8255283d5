//! Runs every figure in paper order in one process, from one measured
//! suite (see [`fegen_bench::figures`]). Accepts the figure binaries'
//! flags (`--paper`, `--seed N`, `--folds N`, `--dataset-dir DIR`, ...);
//! stdout is the concatenation of the seven figure binaries' stdout.

use fegen_bench::figures::{print_figures, FIGURES};

fn main() -> std::process::ExitCode {
    print_figures(&FIGURES)
}
