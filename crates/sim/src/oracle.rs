//! Training-data generation: per-loop cycle tables across unroll factors.
//!
//! "We took each loop, one at a time, and unrolled it by different factors,
//! zero to fifteen. This gave a compiled program for which all but one loop
//! has the default unroll factor as determined by GCC's default heuristic.
//! We executed each of these versions of the program … recording the number
//! of cycles required to execute the function containing the loop that had
//! been altered." (§V)

use crate::interp::{Arg, Machine, MachineState, ProgramImage, SimConfig, SimError};
use fegen_rtl::heuristic::{gcc_default_factors, GccParams};
use fegen_rtl::node::InsnBody;
use fegen_rtl::unroll::{apply_factors, UnrollError};
use fegen_rtl::RtlProgram;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One call the workload performs.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSpec {
    /// Function to call.
    pub func: String,
    /// Arguments.
    pub args: Vec<Arg>,
}

/// A benchmark workload: initialisation calls, then kernel calls.
///
/// Kernels must only read data written by `init` (or their own outputs);
/// the measurement loop re-runs `init` before each measured kernel run, so
/// in-place kernels are safe.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workload {
    /// Setup calls (fill input arrays).
    pub init: Vec<CallSpec>,
    /// Measured kernel calls.
    pub kernels: Vec<CallSpec>,
}

/// Identifies one loop in one function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopSite {
    /// Containing function.
    pub func: String,
    /// Loop id within the function.
    pub loop_id: usize,
}

impl fmt::Display for LoopSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.func, self.loop_id)
    }
}

/// Configuration of the data-generation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Largest unroll factor enumerated (paper: 15 → 16 table entries).
    pub max_factor: usize,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Parameters of the GCC default heuristic applied to the *other*
    /// loops of each variant.
    pub gcc: GccParams,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_factor: 15,
            sim: SimConfig::default(),
            gcc: GccParams::default(),
        }
    }
}

/// A measured loop: its site and the cycle table over factors `0..=max`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopMeasurement {
    /// Which loop.
    pub site: LoopSite,
    /// `cycles[k]` = cycles of the containing function with factor `k`.
    pub cycles: Vec<f64>,
}

impl LoopMeasurement {
    /// The oracle-best factor.
    pub fn best_factor(&self) -> usize {
        fegen_ml_free_oracle(&self.cycles)
    }
}

/// argmin without depending on `fegen-ml` from this crate.
fn fegen_ml_free_oracle(cycles: &[f64]) -> usize {
    cycles
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Error from data generation.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The simulator failed.
    Sim(SimError),
    /// The unroller failed.
    Unroll(UnrollError),
    /// A workload call references a missing function.
    UnknownFunction(String),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Sim(e) => write!(f, "simulation failed: {e}"),
            OracleError::Unroll(e) => write!(f, "unrolling failed: {e}"),
            OracleError::UnknownFunction(n) => write!(f, "workload calls unknown `{n}`"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<SimError> for OracleError {
    fn from(e: SimError) -> Self {
        OracleError::Sim(e)
    }
}

impl From<UnrollError> for OracleError {
    fn from(e: UnrollError) -> Self {
        OracleError::Unroll(e)
    }
}

/// The functions transitively reachable from `calls` through the call
/// graph of `program`.
fn reachable_functions<'a>(
    program: &'a RtlProgram,
    calls: &'a [CallSpec],
) -> HashSet<&'a str> {
    // Call graph.
    let mut callees: HashMap<&str, Vec<&str>> = HashMap::new();
    for f in &program.functions {
        let mut out = Vec::new();
        for insn in &f.insns {
            if let InsnBody::Call { name, .. } = &insn.body {
                out.push(name.as_str());
            }
        }
        callees.insert(f.name.as_str(), out);
    }
    let mut seen: HashSet<&str> = HashSet::new();
    let mut stack: Vec<&str> = calls.iter().map(|c| c.func.as_str()).collect();
    while let Some(f) = stack.pop() {
        if seen.insert(f) {
            if let Some(cs) = callees.get(f) {
                stack.extend(cs.iter().copied());
            }
        }
    }
    seen
}

/// The functions transitively reachable from the workload's kernel calls.
pub fn kernel_functions(program: &RtlProgram, workload: &Workload) -> Vec<String> {
    let seen = reachable_functions(program, &workload.kernels);
    let mut out: Vec<String> = program
        .functions
        .iter()
        .filter(|f| seen.contains(f.name.as_str()))
        .map(|f| f.name.clone())
        .collect();
    out.sort();
    out
}

/// Every loop site in the workload's kernel functions.
pub fn loop_sites(program: &RtlProgram, workload: &Workload) -> Vec<LoopSite> {
    let mut sites = Vec::new();
    for name in kernel_functions(program, workload) {
        let f = program.function(&name).expect("from program");
        for l in &f.loops {
            sites.push(LoopSite {
                func: name.clone(),
                loop_id: l.id,
            });
        }
    }
    sites
}

/// Builds a program variant: every kernel function unrolled with the GCC
/// default factors, except that loop `site` (when `Some`) uses `factor`.
///
/// Non-kernel functions (initialisation) are left un-unrolled, identically
/// in every variant.
///
/// # Errors
///
/// Returns an error when the unroller fails (corrupted loop regions).
pub fn program_variant(
    program: &RtlProgram,
    kernel_funcs: &[String],
    site: Option<(&LoopSite, usize)>,
    gcc: &GccParams,
    use_defaults_elsewhere: bool,
) -> Result<RtlProgram, OracleError> {
    let mut out = program.clone();
    for name in kernel_funcs {
        let f = out
            .function(name)
            .ok_or_else(|| OracleError::UnknownFunction(name.clone()))?;
        let mut factors: HashMap<usize, usize> = if use_defaults_elsewhere {
            gcc_default_factors(f, gcc)
        } else {
            HashMap::new()
        };
        if let Some((s, factor)) = site {
            if &s.func == name {
                factors.insert(s.loop_id, factor);
            }
        }
        let new_f = apply_factors(f, &factors)?;
        *out.function_mut(name).expect("present") = new_f;
    }
    Ok(out)
}

/// Applies explicit per-loop factors (`factors[func][loop_id]`) to the
/// kernel functions; loops without an entry stay un-unrolled.
///
/// # Errors
///
/// Returns an error when the unroller fails.
pub fn program_with_factors(
    program: &RtlProgram,
    kernel_funcs: &[String],
    factors: &HashMap<String, HashMap<usize, usize>>,
) -> Result<RtlProgram, OracleError> {
    let mut out = program.clone();
    for name in kernel_funcs {
        let f = out
            .function(name)
            .ok_or_else(|| OracleError::UnknownFunction(name.clone()))?;
        let empty = HashMap::new();
        let per_loop = factors.get(name).unwrap_or(&empty);
        let new_f = apply_factors(f, per_loop)?;
        *out.function_mut(name).expect("present") = new_f;
    }
    Ok(out)
}

/// Runs the full workload on `program`; returns total cycles across all
/// functions (init included — it is identical in every configuration).
///
/// # Errors
///
/// Returns an error when the simulator fails.
pub fn run_workload(
    program: &RtlProgram,
    workload: &Workload,
    sim: &SimConfig,
) -> Result<u64, OracleError> {
    let mut m = Machine::new(program, sim.clone());
    for call in workload.init.iter().chain(&workload.kernels) {
        m.call(&call.func, &call.args)?;
    }
    Ok(m.total_cycles())
}

/// The workload's kernel calls that can reach `func`, in workload order.
/// Simulating only these (after `init`) reproduces the exclusive cycle
/// count `func` would accumulate under the full kernel sequence.
pub fn relevant_kernel_calls(
    program: &RtlProgram,
    workload: &Workload,
    func: &str,
) -> Vec<CallSpec> {
    workload
        .kernels
        .iter()
        .filter(|c| {
            let single = Workload {
                init: vec![],
                kernels: vec![(*c).clone()],
            };
            kernel_functions(program, &single).iter().any(|f| f == func)
        })
        .cloned()
        .collect()
}

/// Measures the cycle table of one loop site: one simulation per factor,
/// re-running `init` each time, recording the containing function's
/// exclusive cycles.
///
/// # Errors
///
/// Returns an error when unrolling or simulation fails.
pub fn measure_site(
    program: &RtlProgram,
    workload: &Workload,
    kernel_funcs: &[String],
    site: &LoopSite,
    config: &OracleConfig,
) -> Result<LoopMeasurement, OracleError> {
    let mut cycles = Vec::with_capacity(config.max_factor + 1);
    let relevant = relevant_kernel_calls(program, workload, &site.func);
    for factor in 0..=config.max_factor {
        let variant = program_variant(
            program,
            kernel_funcs,
            Some((site, factor)),
            &config.gcc,
            true,
        )?;
        let mut m = Machine::new(&variant, config.sim.clone());
        for call in &workload.init {
            m.call(&call.func, &call.args)?;
        }
        for call in &relevant {
            m.call(&call.func, &call.args)?;
        }
        cycles.push(m.cycles_of(&site.func) as f64);
    }
    Ok(LoopMeasurement {
        site: site.clone(),
        cycles,
    })
}

/// Measures every loop site of the workload. This is the paper's §V data
/// generation (2,778 loops × 16 factors at full scale).
///
/// # Errors
///
/// Returns the first unroll/simulation error.
pub fn measure_workload(
    program: &RtlProgram,
    workload: &Workload,
    config: &OracleConfig,
) -> Result<Vec<LoopMeasurement>, OracleError> {
    let kernel_funcs = kernel_functions(program, workload);
    loop_sites(program, workload)
        .iter()
        .map(|site| measure_site(program, workload, &kernel_funcs, site, config))
        .collect()
}

/// Cumulative fork accounting of one [`ProgramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Per-factor forks performed.
    pub forks: u64,
    /// Forks that imported the shared post-init machine state instead of
    /// re-simulating the workload's `init` calls.
    pub init_forks: u64,
    /// Decoded function images served from the snapshot across forks.
    pub images_reused: u64,
    /// Function images decoded per fork (the overlay function, once per
    /// fork).
    pub images_built: u64,
    /// Instructions simulated by the forks themselves: kernel calls, plus
    /// `init` where a fork had to replay it. Instructions of the shared
    /// `init` run are not included.
    pub sim_insns: u64,
}

impl SnapshotStats {
    /// Fraction of per-fork function images served from the snapshot.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.images_reused + self.images_built;
        if total == 0 {
            0.0
        } else {
            self.images_reused as f64 / total as f64
        }
    }
}

/// Immutable compile-and-warmup state shared by every per-factor
/// measurement of one benchmark: the pre-unroll RTL, the default-unrolled
/// variant every measurement differs from in exactly one function, the GCC
/// default factors those variants embed, one decoded function image per
/// function of the default variant, and — when provably sound — the
/// machine state left behind by the workload's `init` calls.
///
/// [`ProgramSnapshot::fork`] then measures one `(site, factor)` cell by
/// re-unrolling and re-decoding only the site's function, simulating it as
/// an overlay on the shared default variant, and starting from the
/// post-init machine state instead of replaying initialisation — the
/// paper's §V protocol with the per-factor redundancy (re-clone,
/// re-unroll, re-decode, re-init of every other function) forked away.
/// Forks are read-only on the snapshot (counters aside), so one snapshot
/// behind an [`Arc`] serves concurrent workers.
///
/// Byte-for-byte equivalence with the scratch path ([`measure_site`]) is
/// load-bearing: default factors are computed from *original* function
/// bodies (as [`program_variant`] does); function order — and therefore
/// every code address the I-cache and branch predictor see — is preserved;
/// unroll failures are re-raised at fork time in the order the scratch
/// path would first encounter them; and the post-init state is reused only
/// when every function init executes sits *before* the site's function in
/// program order, which pins its code addresses (and with them the I-cache
/// and predictor contents init leaves behind) to the same values in every
/// variant. Sites failing that test replay init per fork, exactly like the
/// scratch path.
#[derive(Debug)]
pub struct ProgramSnapshot {
    original: RtlProgram,
    default_program: RtlProgram,
    workload: Workload,
    kernel_funcs: Vec<String>,
    /// GCC default factors per kernel function (computed on original bodies).
    default_factors: HashMap<String, HashMap<usize, usize>>,
    /// Default-unroll errors deferred to fork time, keyed by function.
    default_errors: HashMap<String, UnrollError>,
    /// Decoded images of every function of the default variant.
    image: ProgramImage,
    /// Machine state after the `init` calls, run once on the default
    /// variant (`None` when init itself fails — forks then replay init and
    /// surface the failure exactly where the scratch path would).
    init_state: Option<MachineState>,
    /// Functions transitively reachable from the `init` calls.
    init_reachable: HashSet<String>,
    /// Greatest program-order position among init-reachable functions.
    max_init_pos: Option<usize>,
    /// Program-order position of every function.
    positions: HashMap<String, usize>,
    config: OracleConfig,
    forks: AtomicU64,
    init_forks: AtomicU64,
    images_reused: AtomicU64,
    images_built: AtomicU64,
    sim_insns: AtomicU64,
}

impl ProgramSnapshot {
    /// Builds the shared state: one default-factor unroll per kernel
    /// function, one decoded image per function of the resulting program,
    /// and one simulation of the workload's `init` calls.
    ///
    /// Unroll and init failures are recorded, not raised — the scratch
    /// path only surfaces them when a site is measured, so
    /// [`ProgramSnapshot::fork`] re-raises them there to keep failure
    /// behaviour identical.
    ///
    /// # Errors
    ///
    /// Returns an error when a kernel function is missing from `program`.
    pub fn build(
        program: &RtlProgram,
        kernel_funcs: &[String],
        workload: &Workload,
        config: &OracleConfig,
    ) -> Result<ProgramSnapshot, OracleError> {
        let mut default_program = program.clone();
        let mut default_factors = HashMap::new();
        let mut default_errors = HashMap::new();
        for name in kernel_funcs {
            let f = default_program
                .function(name)
                .ok_or_else(|| OracleError::UnknownFunction(name.clone()))?;
            let factors = gcc_default_factors(f, &config.gcc);
            match apply_factors(f, &factors) {
                Ok(new_f) => {
                    *default_program.function_mut(name).expect("present") = new_f;
                    default_factors.insert(name.clone(), factors);
                }
                Err(e) => {
                    default_errors.insert(name.clone(), e);
                }
            }
        }
        let image = ProgramImage::build(&default_program, &config.sim.model);
        let positions: HashMap<String, usize> = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let init_reachable: HashSet<String> = reachable_functions(program, &workload.init)
            .into_iter()
            .map(str::to_owned)
            .collect();
        let max_init_pos = init_reachable
            .iter()
            .filter_map(|f| positions.get(f))
            .copied()
            .max();
        // One init run on the default variant. Sound to reuse for a fork
        // of `site` iff every init-executed function keeps its content and
        // code address in that variant (see `init_forkable`).
        let init_state = (|| {
            let mut m = Machine::fork(&default_program, &image, None, None, config.sim.clone());
            for call in &workload.init {
                m.call(&call.func, &call.args).ok()?;
            }
            Some(m.export_state())
        })();
        Ok(ProgramSnapshot {
            original: program.clone(),
            default_program,
            workload: workload.clone(),
            kernel_funcs: kernel_funcs.to_vec(),
            default_factors,
            default_errors,
            image,
            init_state,
            init_reachable,
            max_init_pos,
            positions,
            config: config.clone(),
            forks: AtomicU64::new(0),
            init_forks: AtomicU64::new(0),
            images_reused: AtomicU64::new(0),
            images_built: AtomicU64::new(0),
            sim_insns: AtomicU64::new(0),
        })
    }

    /// The pre-unroll program the snapshot was built from.
    pub fn original(&self) -> &RtlProgram {
        &self.original
    }

    /// The workload the snapshot measures.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The oracle configuration the snapshot embeds.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// Whether forks of `site` may import the shared post-init state:
    /// requires init never to execute the site's function (its body varies
    /// per factor) and every init-reachable function to sit before it in
    /// program order (so the code addresses init touched — and with them
    /// the I-cache and predictor state it left — are variant-invariant).
    fn init_forkable(&self, site: &LoopSite) -> bool {
        if self.init_reachable.contains(&site.func) {
            return false;
        }
        let Some(site_pos) = self.positions.get(&site.func) else {
            return false;
        };
        self.max_init_pos.is_none_or(|m| m < *site_pos)
    }

    /// Forks one `(site, factor)` cell: re-unrolls and re-decodes only the
    /// site's function (GCC defaults merged with the override, from the
    /// original body), starts a machine from the shared post-init state
    /// (or replays `init` when that is not provably sound) and simulates
    /// the `relevant` kernel calls against the shared default variant.
    /// Returns the site function's exclusive cycles.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`measure_site`] would raise for this cell, in
    /// the same encounter order.
    pub fn fork(
        &self,
        site: &LoopSite,
        factor: usize,
        relevant: &[CallSpec],
    ) -> Result<u64, OracleError> {
        // Re-raise deferred default-unroll errors in the order the scratch
        // path's per-function loop would hit them; the site's own function
        // fails (or not) with the merged factors instead.
        let mut overlay = None;
        for name in &self.kernel_funcs {
            if name == &site.func {
                let orig = self
                    .original
                    .function(name)
                    .ok_or_else(|| OracleError::UnknownFunction(name.clone()))?;
                let mut factors = self
                    .default_factors
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| gcc_default_factors(orig, &self.config.gcc));
                factors.insert(site.loop_id, factor);
                overlay = Some(apply_factors(orig, &factors)?);
            } else if let Some(e) = self.default_errors.get(name) {
                return Err(OracleError::Unroll(e.clone()));
            }
        }
        let overlay = overlay.ok_or_else(|| OracleError::UnknownFunction(site.func.clone()))?;
        let overlay = self
            .image
            .decode_overlay(&self.default_program, &overlay, &self.config.sim.model);
        let state = self.init_state.as_ref().filter(|_| self.init_forkable(site));
        let mut m = Machine::fork(
            &self.default_program,
            &self.image,
            Some((&site.func, Arc::new(overlay))),
            state,
            self.config.sim.clone(),
        );
        let start = match state {
            Some(state) => {
                self.init_forks.fetch_add(1, Ordering::Relaxed);
                state.insns_executed()
            }
            None => {
                for call in &self.workload.init {
                    m.call(&call.func, &call.args)?;
                }
                0
            }
        };
        for call in relevant {
            m.call(&call.func, &call.args)?;
        }
        let substituted = self
            .default_program
            .functions
            .iter()
            .filter(|f| f.name == site.func)
            .count() as u64;
        self.forks.fetch_add(1, Ordering::Relaxed);
        self.images_built.fetch_add(1, Ordering::Relaxed);
        self.images_reused.fetch_add(
            self.default_program.functions.len() as u64 - substituted,
            Ordering::Relaxed,
        );
        self.sim_insns
            .fetch_add(m.insns_executed() - start, Ordering::Relaxed);
        Ok(m.cycles_of(&site.func))
    }

    /// Measures one site's full cycle table by forking every factor —
    /// the fork-once equivalent of [`measure_site`].
    ///
    /// # Errors
    ///
    /// As [`ProgramSnapshot::fork`].
    pub fn measure_site(&self, site: &LoopSite) -> Result<LoopMeasurement, OracleError> {
        let relevant = relevant_kernel_calls(&self.original, &self.workload, &site.func);
        let mut cycles = Vec::with_capacity(self.config.max_factor + 1);
        for factor in 0..=self.config.max_factor {
            cycles.push(self.fork(site, factor, &relevant)? as f64);
        }
        Ok(LoopMeasurement {
            site: site.clone(),
            cycles,
        })
    }

    /// Cumulative fork accounting (cheap; counters are relaxed atomics).
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            forks: self.forks.load(Ordering::Relaxed),
            init_forks: self.init_forks.load(Ordering::Relaxed),
            images_reused: self.images_reused.load(Ordering::Relaxed),
            images_built: self.images_built.load(Ordering::Relaxed),
            sim_insns: self.sim_insns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fegen_rtl::lower::lower_program;

    fn setup() -> (RtlProgram, Workload) {
        let src = "\
            int data[256];\n\
            int out[256];\n\
            void init() { int i; for (i = 0; i < 256; i = i + 1) { data[i] = i * 7 % 31; } }\n\
            void scale(int n) { int i; for (i = 0; i < n; i = i + 1) { out[i] = data[i] * 3; } }\n\
            int reduce(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + data[i]; } return s; }\n";
        let ast = fegen_lang::parse_program(src).unwrap();
        let program = lower_program(&ast).unwrap();
        let workload = Workload {
            init: vec![CallSpec {
                func: "init".into(),
                args: vec![],
            }],
            kernels: vec![
                CallSpec {
                    func: "scale".into(),
                    args: vec![Arg::Int(200)],
                },
                CallSpec {
                    func: "reduce".into(),
                    args: vec![Arg::Int(200)],
                },
            ],
        };
        (program, workload)
    }

    #[test]
    fn kernel_functions_exclude_init() {
        let (p, w) = setup();
        let funcs = kernel_functions(&p, &w);
        assert_eq!(funcs, vec!["reduce".to_owned(), "scale".to_owned()]);
    }

    #[test]
    fn loop_sites_enumerate_kernel_loops() {
        let (p, w) = setup();
        let sites = loop_sites(&p, &w);
        assert_eq!(sites.len(), 2);
    }

    #[test]
    fn cycle_tables_have_sixteen_entries_and_vary() {
        let (p, w) = setup();
        let config = OracleConfig::default();
        let tables = measure_workload(&p, &w, &config).unwrap();
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.cycles.len(), 16);
            assert!(t.cycles.iter().all(|&c| c > 0.0));
            // Unrolling must change the cycle count somewhere.
            let min = t.cycles.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = t.cycles.iter().cloned().fold(0.0, f64::max);
            assert!(max > min, "flat cycle table for {}: {:?}", t.site, t.cycles);
        }
    }

    #[test]
    fn unrolling_preserves_results() {
        // The reduce kernel must compute the same value at every factor.
        let (p, w) = setup();
        let kernel_funcs = kernel_functions(&p, &w);
        let site = LoopSite {
            func: "reduce".into(),
            loop_id: 0,
        };
        let mut results = Vec::new();
        for factor in [0usize, 1, 2, 3, 5, 7, 8, 15] {
            let v = program_variant(
                &p,
                &kernel_funcs,
                Some((&site, factor)),
                &GccParams::default(),
                true,
            )
            .unwrap();
            let mut m = Machine::new(&v, SimConfig::default());
            for c in &w.init {
                m.call(&c.func, &c.args).unwrap();
            }
            let r = m.call("reduce", &[Arg::Int(200)]).unwrap();
            results.push(r);
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "unrolling changed semantics: {results:?}"
        );
    }

    #[test]
    fn best_factor_is_argmin() {
        let m = LoopMeasurement {
            site: LoopSite {
                func: "f".into(),
                loop_id: 0,
            },
            cycles: vec![100.0, 90.0, 85.0, 95.0],
        };
        assert_eq!(m.best_factor(), 2);
    }

    #[test]
    fn run_workload_totals_cycles() {
        let (p, w) = setup();
        let total = run_workload(&p, &w, &SimConfig::default()).unwrap();
        assert!(total > 1000, "workload should cost real cycles: {total}");
    }

    #[test]
    fn forked_measurement_is_bit_identical_to_scratch() {
        let (p, w) = setup();
        let config = OracleConfig::default();
        let kernel_funcs = kernel_functions(&p, &w);
        let snapshot = ProgramSnapshot::build(&p, &kernel_funcs, &w, &config).unwrap();
        for site in loop_sites(&p, &w) {
            let scratch = measure_site(&p, &w, &kernel_funcs, &site, &config).unwrap();
            let forked = snapshot.measure_site(&site).unwrap();
            assert_eq!(
                scratch.cycles.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                forked.cycles.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                "fork diverged from scratch at {site}"
            );
        }
    }

    #[test]
    fn fork_is_deterministic_and_counts_reuse() {
        let (p, w) = setup();
        let config = OracleConfig::default();
        let kernel_funcs = kernel_functions(&p, &w);
        let snapshot = ProgramSnapshot::build(&p, &kernel_funcs, &w, &config).unwrap();
        let site = LoopSite {
            func: "reduce".into(),
            loop_id: 0,
        };
        let relevant = relevant_kernel_calls(&p, &w, &site.func);
        let a = snapshot.fork(&site, 4, &relevant).unwrap();
        let b = snapshot.fork(&site, 4, &relevant).unwrap();
        assert_eq!(a, b, "repeated forks must agree");
        let stats = snapshot.stats();
        assert_eq!(stats.forks, 2);
        // Each fork decodes exactly one image (the overlay) and reuses the
        // rest of the program's.
        assert_eq!(stats.images_built, 2);
        assert_eq!(
            stats.images_reused,
            2 * (p.functions.len() as u64 - 1)
        );
        // Both forks simulate the same kernel calls from the same state.
        assert!(stats.sim_insns > 0 && stats.sim_insns.is_multiple_of(2));
        assert!(stats.reuse_rate() > 0.5);
    }

    #[test]
    fn snapshot_is_shareable_across_threads() {
        let (p, w) = setup();
        let config = OracleConfig::default();
        let kernel_funcs = kernel_functions(&p, &w);
        let snapshot = Arc::new(ProgramSnapshot::build(&p, &kernel_funcs, &w, &config).unwrap());
        let site = LoopSite {
            func: "scale".into(),
            loop_id: 0,
        };
        let baseline = snapshot.measure_site(&site).unwrap();
        let results: Vec<LoopMeasurement> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let snap = Arc::clone(&snapshot);
                    let site = site.clone();
                    s.spawn(move || snap.measure_site(&site).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r.cycles, baseline.cycles);
        }
    }

    #[test]
    fn program_with_factors_applies_per_function() {
        let (p, w) = setup();
        let kernel_funcs = kernel_functions(&p, &w);
        let factors = HashMap::from([(
            "scale".to_owned(),
            HashMap::from([(0usize, 4usize)]),
        )]);
        let v = program_with_factors(&p, &kernel_funcs, &factors).unwrap();
        assert!(
            v.function("scale").unwrap().insns.len() > p.function("scale").unwrap().insns.len()
        );
        assert_eq!(
            v.function("reduce").unwrap().insns.len(),
            p.function("reduce").unwrap().insns.len()
        );
    }
}
