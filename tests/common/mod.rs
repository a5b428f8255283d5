//! Helpers shared by integration tests.

use fegen::core::ir::IrNode;
use fegen::suite::SuiteConfig;

/// Every loop of a generated suite, exported as the campaign exports it.
/// Runs on a few threads: exporting recomputes each function's CFG per
/// loop, which makes the paper suite slow in debug builds.
pub fn suite_loops(config: &SuiteConfig) -> Vec<IrNode> {
    let suite = fegen::suite::generate_suite(config);
    std::thread::scope(|scope| {
        let workers: Vec<_> = suite
            .chunks(suite.len().div_ceil(4))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut loops = Vec::new();
                    for bench in chunk {
                        let rtl = fegen::rtl::lower::lower_program(&bench.program)
                            .expect("suite program lowers");
                        for func in &rtl.functions {
                            for region in &func.loops {
                                loops.push(fegen::rtl::export::export_loop(
                                    func,
                                    region,
                                    &rtl.layout,
                                ));
                            }
                        }
                    }
                    loops
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("export thread"))
            .collect()
    })
}
