//! The shared experiment pipeline: compile the suite, generate training
//! data (per-loop cycle tables), export loop IR and hand-feature vectors.
//!
//! Every stage is a fallible `try_*` function returning [`PipelineError`],
//! which names the stage, the benchmark and — where it applies — the loop
//! site or cross-validation fold that failed.

use fegen_core::ir::IrNode;
use fegen_rtl::export::export_loop;
use fegen_rtl::heuristic::{gcc_default_factor, gcc_features, GccParams};
use fegen_rtl::lower::lower_program;
use fegen_rtl::stateml::stateml_features;
use fegen_rtl::RtlProgram;
use fegen_sim::oracle::{
    kernel_functions, loop_sites, program_with_factors, relevant_kernel_calls, run_workload,
    CallSpec, LoopMeasurement, LoopSite, OracleConfig, OracleError, ProgramSnapshot,
    SnapshotStats, Workload,
};
use fegen_sim::{Arg, SimConfig};
use fegen_suite::{ArgDesc, Benchmark, SuiteConfig};
use std::collections::HashMap;
use std::fmt;

/// A typed failure of the experiment pipeline, naming the stage and the
/// benchmark (and loop site / CV fold where applicable) that failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A generated benchmark failed to lower to RTL.
    Compile {
        /// Benchmark name.
        bench: String,
        /// Lowering error text.
        detail: String,
    },
    /// Measuring one loop site's cycle table failed.
    Measure {
        /// Benchmark name.
        bench: String,
        /// Loop site (`func#loop`).
        site: String,
        /// Measurement error text.
        detail: String,
    },
    /// A loop site reported by discovery no longer resolves in the program.
    MissingSite {
        /// Benchmark name.
        bench: String,
        /// Loop site (`func#loop`).
        site: String,
    },
    /// The baseline (no-unrolling) workload run failed.
    Baseline {
        /// Benchmark name.
        bench: String,
        /// Simulator error text.
        detail: String,
    },
    /// Deploying a factor assignment (unrolling or re-running the
    /// workload) failed.
    Deploy {
        /// Benchmark name.
        bench: String,
        /// Unroll/simulator error text.
        detail: String,
    },
    /// A feature search failed.
    Search {
        /// Cross-validation fold index (0-based); `None` for the search
        /// over the whole suite.
        fold: Option<usize>,
        /// The underlying search error (names the candidate situation:
        /// e.g. no viable candidate after N generations).
        source: fegen_core::SearchError,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile { bench, detail } => {
                write!(f, "compile stage: benchmark `{bench}` fails to lower: {detail}")
            }
            PipelineError::Measure {
                bench,
                site,
                detail,
            } => write!(
                f,
                "measure stage: benchmark `{bench}`, site {site}: {detail}"
            ),
            PipelineError::MissingSite { bench, site } => write!(
                f,
                "measure stage: benchmark `{bench}` has no loop at site {site}"
            ),
            PipelineError::Baseline { bench, detail } => {
                write!(f, "baseline stage: benchmark `{bench}`: {detail}")
            }
            PipelineError::Deploy { bench, detail } => {
                write!(f, "deploy stage: benchmark `{bench}`: {detail}")
            }
            PipelineError::Search {
                fold: Some(fold),
                source,
            } => write!(f, "search stage: fold {fold}: {source}"),
            PipelineError::Search { fold: None, source } => {
                write!(f, "search stage: whole suite: {source}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Search { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A suite benchmark lowered to RTL with its executable workload.
#[derive(Debug, Clone)]
pub struct CompiledBenchmark {
    /// Benchmark name.
    pub name: String,
    /// Suite of origin.
    pub suite: fegen_suite::SuiteName,
    /// The lowered program.
    pub rtl: RtlProgram,
    /// The workload (init + kernel calls).
    pub workload: Workload,
}

/// Converts a suite argument descriptor into a simulator argument.
pub fn to_sim_arg(a: &ArgDesc) -> Arg {
    match a {
        ArgDesc::Int(v) => Arg::Int(*v),
        ArgDesc::Float(v) => Arg::Float(*v),
        ArgDesc::Array(n) => Arg::Array(n.clone()),
    }
}

/// Lowers a suite benchmark and builds its workload.
pub fn try_compile(b: &Benchmark) -> Result<CompiledBenchmark, PipelineError> {
    let rtl = lower_program(&b.program).map_err(|e| PipelineError::Compile {
        bench: b.name.clone(),
        detail: e.to_string(),
    })?;
    let to_calls = |calls: &[fegen_suite::CallDesc]| -> Vec<CallSpec> {
        calls
            .iter()
            .map(|c| CallSpec {
                func: c.func.clone(),
                args: c.args.iter().map(to_sim_arg).collect(),
            })
            .collect()
    };
    Ok(CompiledBenchmark {
        name: b.name.clone(),
        suite: b.suite,
        rtl,
        workload: Workload {
            init: to_calls(&b.init),
            kernels: to_calls(&b.kernels),
        },
    })
}

/// Fork-once compile state for one benchmark: parse → lower → loop
/// discovery → baseline warmup performed exactly once, plus the shared
/// [`ProgramSnapshot`] every per-factor measurement forks from.
///
/// The pre-unroll RTL is immutable once built; its [`content
/// digest`](RtlProgram::content_digest) is folded into the campaign
/// fingerprint so a dataset records exactly which compile state produced
/// it. [`BenchmarkSnapshot::fork`] measures one `(site, factor)` cell by
/// cloning only the mutable state of that cell — the site function's
/// unrolled body and a fresh machine — and is bit-identical to the scratch
/// path ([`fegen_sim::oracle::measure_site`] on the pre-unroll RTL).
#[derive(Debug)]
pub struct BenchmarkSnapshot {
    /// The compiled benchmark (name, suite, pre-unroll RTL, workload).
    pub cb: CompiledBenchmark,
    /// Functions reachable from the workload's kernel calls (sorted).
    pub kernel_funcs: Vec<String>,
    /// Loop sites of the kernel functions, in discovery order.
    pub sites: Vec<LoopSite>,
    /// Baseline (no unrolling anywhere) total workload cycles.
    pub baseline_cycles: f64,
    /// Content digest of the pre-unroll RTL.
    pub digest: u64,
    snapshot: ProgramSnapshot,
    /// Kernel calls reaching each kernel function, precomputed once.
    relevant: HashMap<String, Vec<CallSpec>>,
}

impl BenchmarkSnapshot {
    /// Compiles `b` and builds its fork-once state.
    ///
    /// # Errors
    ///
    /// Returns the same errors, with the same messages, that the scratch
    /// pipeline's setup stage (compile → discovery → baseline) raises.
    pub fn try_build(b: &Benchmark, oracle: &OracleConfig) -> Result<Self, PipelineError> {
        Self::try_from_compiled(try_compile(b)?, oracle)
    }

    /// Builds the fork-once state for an already-compiled benchmark.
    ///
    /// # Errors
    ///
    /// As [`BenchmarkSnapshot::try_build`], minus compilation.
    pub fn try_from_compiled(
        cb: CompiledBenchmark,
        oracle: &OracleConfig,
    ) -> Result<Self, PipelineError> {
        let kernel_funcs = kernel_functions(&cb.rtl, &cb.workload);
        let sites = loop_sites(&cb.rtl, &cb.workload);
        let baseline_cycles = run_workload(&cb.rtl, &cb.workload, &oracle.sim).map_err(|e| {
            PipelineError::Baseline {
                bench: cb.name.clone(),
                detail: e.to_string(),
            }
        })? as f64;
        let snapshot = ProgramSnapshot::build(&cb.rtl, &kernel_funcs, &cb.workload, oracle)
            .map_err(|e| PipelineError::Compile {
                bench: cb.name.clone(),
                detail: format!("snapshot: {e}"),
            })?;
        let relevant = kernel_funcs
            .iter()
            .map(|f| (f.clone(), relevant_kernel_calls(&cb.rtl, &cb.workload, f)))
            .collect();
        let digest = cb.rtl.content_digest();
        Ok(BenchmarkSnapshot {
            cb,
            kernel_funcs,
            sites,
            baseline_cycles,
            digest,
            snapshot,
            relevant,
        })
    }

    /// Forks one `(site, factor)` cell off the shared compile state and
    /// returns the site function's exclusive cycles.
    ///
    /// # Errors
    ///
    /// Exactly the errors the scratch path raises for this cell.
    pub fn fork(&self, site: &LoopSite, factor: usize) -> Result<f64, OracleError> {
        let relevant = self
            .relevant
            .get(&site.func)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        self.snapshot
            .fork(site, factor, relevant)
            .map(|c| c as f64)
    }

    /// One site's full cycle table over factors `0..=max_factor`, by
    /// forking each factor.
    ///
    /// # Errors
    ///
    /// As [`BenchmarkSnapshot::fork`]; the error type matches the scratch
    /// path's so failure messages (and therefore quarantine records) are
    /// identical in both modes.
    pub fn measure_site(&self, site: &LoopSite) -> Result<LoopMeasurement, OracleError> {
        let max_factor = self.snapshot.config().max_factor;
        let mut cycles = Vec::with_capacity(max_factor + 1);
        for factor in 0..=max_factor {
            cycles.push(self.fork(site, factor)?);
        }
        Ok(LoopMeasurement {
            site: site.clone(),
            cycles,
        })
    }

    /// [`BenchmarkSnapshot::measure_site`] with the error wrapped as a
    /// [`PipelineError::Measure`] naming the benchmark and site.
    ///
    /// # Errors
    ///
    /// As [`BenchmarkSnapshot::measure_site`].
    pub fn try_measure_site(&self, site: &LoopSite) -> Result<LoopMeasurement, PipelineError> {
        self.measure_site(site).map_err(|e| PipelineError::Measure {
            bench: self.cb.name.clone(),
            site: site.to_string(),
            detail: e.to_string(),
        })
    }

    /// Cumulative fork accounting.
    pub fn stats(&self) -> SnapshotStats {
        self.snapshot.stats()
    }
}

/// One measured loop with everything every method needs.
#[derive(Debug, Clone)]
pub struct LoopRecord {
    /// Index of the owning benchmark in [`SuiteData::benchmarks`].
    pub bench: usize,
    /// Loop site.
    pub site: LoopSite,
    /// Cycle table over factors `0..=15`.
    pub cycles: Vec<f64>,
    /// Exported IR (input of the feature generator).
    pub ir: IrNode,
    /// GCC heuristic features (Figure 3).
    pub gcc_feats: Vec<f64>,
    /// stateML features (Figure 14).
    pub stateml_feats: Vec<f64>,
    /// GCC's default unroll decision for this loop.
    pub gcc_default_factor: usize,
}

impl LoopRecord {
    /// Loop `site` of `cb` (benchmark `bench` of the suite), measured as
    /// `cycles`, with its exported IR, hand features and GCC's default
    /// decision under `gcc`. `None` when `cb` has no loop at `site`.
    pub fn export(
        bench: usize,
        cb: &CompiledBenchmark,
        site: LoopSite,
        cycles: Vec<f64>,
        gcc: &GccParams,
    ) -> Option<LoopRecord> {
        let func = cb.rtl.function(&site.func)?;
        let region = func.loops.iter().find(|l| l.id == site.loop_id)?;
        Some(LoopRecord {
            bench,
            ir: export_loop(func, region, &cb.rtl.layout),
            gcc_feats: gcc_features(func, region),
            stateml_feats: stateml_features(func, region),
            gcc_default_factor: gcc_default_factor(func, region, gcc),
            site,
            cycles,
        })
    }

    /// The oracle-best factor (exact argmin; used for oracle speedups).
    pub fn best_factor(&self) -> usize {
        fegen_ml::metrics::oracle_choice(&self.cycles)
    }

    /// The training label: smallest factor within the noise-floor
    /// tolerance of the minimum (see
    /// [`fegen_ml::metrics::oracle_choice_tolerant`]).
    pub fn label_factor(&self) -> usize {
        fegen_ml::metrics::oracle_choice_tolerant(
            &self.cycles,
            fegen_core::search::LABEL_TOLERANCE,
        )
    }
}

/// Everything the experiments consume.
#[derive(Debug)]
pub struct SuiteData {
    /// Compiled benchmarks, in canonical order.
    pub benchmarks: Vec<CompiledBenchmark>,
    /// All measured loops across the suite.
    pub loops: Vec<LoopRecord>,
    /// Baseline (no unrolling anywhere) total cycles per benchmark.
    pub baseline_cycles: Vec<f64>,
}

/// Experiment configuration shared by all figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Suite generation.
    pub suite: SuiteConfig,
    /// Data-generation (oracle) settings.
    pub oracle: OracleConfig,
    /// Feature-search settings.
    pub search: fegen_core::SearchConfig,
    /// Outer cross-validation folds (paper: 10).
    pub folds: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Paper-scale configuration (57 benchmarks, 10 folds, full GP
    /// budgets). Expect hours of wall clock on one core.
    pub fn paper() -> Self {
        ExperimentConfig {
            suite: SuiteConfig::paper(),
            oracle: OracleConfig::default(),
            search: fegen_core::SearchConfig::paper(),
            folds: 10,
            seed: 0xca11ab1e,
        }
    }

    /// Quick configuration: the same protocol at laptop scale (minutes).
    pub fn quick() -> Self {
        ExperimentConfig {
            suite: SuiteConfig::quick(),
            oracle: OracleConfig::default(),
            search: fegen_core::SearchConfig::quick(),
            folds: 5,
            seed: 0xca11ab1e,
        }
    }
}

/// Generates the suite, compiles it and measures every loop once with the
/// exact simulator (§V data generation, in memory).
pub fn try_build_suite_data(config: &ExperimentConfig) -> Result<SuiteData, PipelineError> {
    let suite = fegen_suite::generate_suite(&config.suite);
    let mut benchmarks = Vec::with_capacity(suite.len());
    let mut loops = Vec::new();
    let mut baseline_cycles = Vec::with_capacity(suite.len());
    for (bench_idx, b) in suite.iter().enumerate() {
        let snap = BenchmarkSnapshot::try_build(b, &config.oracle)?;
        for site in &snap.sites {
            let m = snap.try_measure_site(site)?;
            let record =
                LoopRecord::export(bench_idx, &snap.cb, m.site, m.cycles, &config.oracle.gcc);
            loops.push(record.ok_or_else(|| PipelineError::MissingSite {
                bench: snap.cb.name.clone(),
                site: site.to_string(),
            })?);
        }
        baseline_cycles.push(snap.baseline_cycles);
        benchmarks.push(snap.cb);
    }
    Ok(SuiteData {
        benchmarks,
        loops,
        baseline_cycles,
    })
}

impl SuiteData {
    /// Runs benchmark `bench_idx` with the given per-loop factor choices
    /// (`factors[i]` for `self.loops[i]`, only this benchmark's entries are
    /// used) and returns its whole-workload speedup over no unrolling.
    pub fn try_benchmark_speedup(
        &self,
        bench_idx: usize,
        factors: &[usize],
        sim: &SimConfig,
    ) -> Result<f64, PipelineError> {
        let cb = &self.benchmarks[bench_idx];
        let mut per_func: HashMap<String, HashMap<usize, usize>> = HashMap::new();
        for (rec, &f) in self.loops.iter().zip(factors) {
            if rec.bench == bench_idx {
                per_func
                    .entry(rec.site.func.clone())
                    .or_default()
                    .insert(rec.site.loop_id, f);
            }
        }
        let kernel_funcs = kernel_functions(&cb.rtl, &cb.workload);
        let deploy = |detail: String| PipelineError::Deploy {
            bench: cb.name.clone(),
            detail,
        };
        let program = program_with_factors(&cb.rtl, &kernel_funcs, &per_func)
            .map_err(|e| deploy(format!("unrolling: {e}")))?;
        let cycles = run_workload(&program, &cb.workload, sim)
            .map_err(|e| deploy(format!("running: {e}")))? as f64;
        Ok(self.baseline_cycles[bench_idx] / cycles)
    }

    /// Per-benchmark speedups for a full factor assignment.
    pub fn try_all_benchmark_speedups(
        &self,
        factors: &[usize],
        sim: &SimConfig,
    ) -> Result<Vec<f64>, PipelineError> {
        (0..self.benchmarks.len())
            .map(|b| self.try_benchmark_speedup(b, factors, sim))
            .collect()
    }

    /// The factor assignment of the oracle (per-loop argmin).
    pub fn oracle_factors(&self) -> Vec<usize> {
        self.loops.iter().map(LoopRecord::best_factor).collect()
    }

    /// The factor assignment of GCC's default heuristic.
    pub fn gcc_factors(&self) -> Vec<usize> {
        self.loops.iter().map(|l| l.gcc_default_factor).collect()
    }

    /// Training examples (IR + cycle tables) for the feature search.
    pub fn training_examples(&self) -> Vec<fegen_core::TrainingExample> {
        self.loops
            .iter()
            .map(|l| fegen_core::TrainingExample {
                ir: l.ir.clone(),
                cycles: l.cycles.clone(),
            })
            .collect()
    }
}

/// Builds the motivating-example data (paper Figure 2): the mesa
/// `SpotExpTable` loop, measured over all factors by forking, with its
/// exported IR and hand features — everything the Figure 2/3/4 views need.
pub fn try_mesa_record(config: &ExperimentConfig) -> Result<LoopRecord, PipelineError> {
    let bench = fegen_suite::mesa_example();
    let snap = BenchmarkSnapshot::try_build(&bench, &config.oracle)?;
    let site = LoopSite {
        func: "spot_exp".into(),
        loop_id: 0,
    };
    let m = snap.try_measure_site(&site)?;
    LoopRecord::export(0, &snap.cb, m.site, m.cycles, &config.oracle.gcc).ok_or_else(|| {
        PipelineError::MissingSite {
            bench: snap.cb.name.clone(),
            site: site.to_string(),
        }
    })
}

/// Arithmetic mean over the finite entries; `0.0` when none remain.
///
/// A non-finite entry is a caller bug (a quarantined, never-measured cell
/// leaking into an aggregate) — debug builds assert on it, release builds
/// filter it so one poisoned cell cannot turn a whole figure into NaN.
pub fn mean(xs: &[f64]) -> f64 {
    debug_assert!(
        xs.iter().all(|x| x.is_finite()),
        "non-finite input to mean: {xs:?}"
    );
    let (sum, n) = xs
        .iter()
        .filter(|x| x.is_finite())
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> SuiteData {
        let mut config = ExperimentConfig::quick();
        config.suite = SuiteConfig::tiny();
        try_build_suite_data(&config).unwrap()
    }

    #[test]
    fn builds_data_for_tiny_suite() {
        let data = tiny_data();
        assert_eq!(data.benchmarks.len(), 3);
        assert!(!data.loops.is_empty());
        for l in &data.loops {
            assert_eq!(l.cycles.len(), 16);
            assert_eq!(l.gcc_feats.len(), 6);
            assert_eq!(l.stateml_feats.len(), 22);
            assert!(l.ir.size() > 3, "exported IR too small for {}", l.site);
        }
    }

    #[test]
    fn oracle_beats_or_equals_everyone_per_benchmark() {
        let data = tiny_data();
        let sim = SimConfig::default();
        let oracle = data
            .try_all_benchmark_speedups(&data.oracle_factors(), &sim)
            .unwrap();
        let zero = vec![0usize; data.loops.len()];
        let baseline = data.try_all_benchmark_speedups(&zero, &sim).unwrap();
        for (i, (&o, &b)) in oracle.iter().zip(&baseline).enumerate() {
            assert!((b - 1.0).abs() < 1e-9, "baseline speedup must be 1.0, got {b}");
            // The per-loop oracle may compose imperfectly across loops of a
            // shared function (I-cache interactions), but must not lose
            // noticeably.
            assert!(o > 0.95, "oracle regressed on benchmark {i}: {o}");
        }
    }

    #[test]
    fn snapshot_fork_matches_scratch_measurement() {
        let config = ExperimentConfig::quick();
        let suite = fegen_suite::generate_suite(&SuiteConfig::tiny());
        for b in &suite {
            let snap = BenchmarkSnapshot::try_build(b, &config.oracle).unwrap();
            for site in &snap.sites {
                let scratch = fegen_sim::oracle::measure_site(
                    &snap.cb.rtl,
                    &snap.cb.workload,
                    &snap.kernel_funcs,
                    site,
                    &config.oracle,
                )
                .unwrap();
                let forked = snap.measure_site(site).unwrap();
                assert_eq!(
                    scratch
                        .cycles
                        .iter()
                        .map(|c| c.to_bits())
                        .collect::<Vec<_>>(),
                    forked
                        .cycles
                        .iter()
                        .map(|c| c.to_bits())
                        .collect::<Vec<_>>(),
                    "fork diverged from scratch at {}:{site}",
                    b.name
                );
            }
        }
    }

    #[test]
    fn snapshot_fork_is_deterministic() {
        let config = ExperimentConfig::quick();
        let suite = fegen_suite::generate_suite(&SuiteConfig::tiny());
        let snap = BenchmarkSnapshot::try_build(&suite[0], &config.oracle).unwrap();
        let site = snap.sites.first().expect("tiny suite has loops").clone();
        let a = snap.fork(&site, 7).unwrap();
        let b = snap.fork(&site, 7).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(snap.stats().forks, 2);
        assert!(snap.stats().reuse_rate() > 0.0);
    }

    #[test]
    fn snapshot_digest_is_content_stable() {
        let config = ExperimentConfig::quick();
        let suite = fegen_suite::generate_suite(&SuiteConfig::tiny());
        let a = BenchmarkSnapshot::try_build(&suite[0], &config.oracle).unwrap();
        let b = BenchmarkSnapshot::try_build(&suite[0], &config.oracle).unwrap();
        let c = BenchmarkSnapshot::try_build(&suite[1], &config.oracle).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn mean_is_total() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn benchmark_speedup_is_deterministic() {
        let data = tiny_data();
        let sim = SimConfig::default();
        let f = data.oracle_factors();
        assert_eq!(
            data.try_benchmark_speedup(0, &f, &sim).unwrap(),
            data.try_benchmark_speedup(0, &f, &sim).unwrap()
        );
    }
}
