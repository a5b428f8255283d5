//! Diagnostics: loop-level quality of each method (scratch tool), on
//! stderr. Accepts the figure binaries' flags.

use fegen_bench::figures::Pass;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pass = Pass::from_args()?;
    eprint!("{}", pass.diag()?);
    Ok(())
}
