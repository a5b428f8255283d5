//! The paper's evaluation as one pass: measure the suite once, run each
//! feature search once, and render every figure from the shared results.
//!
//! A [`Pass`] holds the experiment configuration and, computed on first
//! use and then shared by every figure that reads them:
//!
//! - the suite's [`SuiteData`], always loaded through
//!   [`load_or_build_suite_data_with_telemetry`], so `--dataset-dir` and
//!   `--telemetry-dir` apply to every figure;
//! - the motivating example: the mesa loop, and the feature search over
//!   the whole suite deployed on it (Figures 2–4);
//! - the cross-validated run of our technique (Figures 13, 15 and 16).
//!
//! Each figure is a method returning the figure's stdout text. The `fig*`
//! binaries print one figure each, and `run_all` prints all of them in
//! paper order from one `Pass`, so its stdout is the concatenation of the
//! binaries' stdout.

use crate::methods::{
    loop_level_speedup, predict_cv_svm, predict_cv_tree, try_predict_cv_ours, OursResult, N_CLASSES,
};
use crate::pipeline::{mean, try_mesa_record, LoopRecord, PipelineError};
use crate::{
    config_from_args, load_or_build_suite_data_with_telemetry, report, try_build_suite_data,
    CampaignError, ExperimentConfig, SuiteData,
};
use fegen_core::{FeatureSearch, SearchOutcome, Telemetry, TelemetryConfig, TrainingExample};
use fegen_ml::metrics::{accuracy, percent_of_max};
use fegen_ml::svm::SvmConfig;
use fegen_ml::tree::{DecisionTree, TreeConfig};
use fegen_ml::Dataset;
use fegen_rtl::heuristic::GCC_FEATURE_NAMES;
use fegen_rtl::stateml::STATEML_FEATURE_NAMES;
use std::error::Error;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

/// A figure: its stdout text, rendered from a [`Pass`].
pub type Figure = fn(&Pass) -> Result<String, Box<dyn Error>>;

/// Every figure in paper order, with the binary that prints it alone.
pub const FIGURES: [(&str, Figure); 7] = [
    ("fig02_motivating", Pass::fig02),
    ("fig03_04_tree_paths", Pass::fig03_04),
    ("fig12_oracle_vs_gcc", Pass::fig12),
    ("fig13_comparison", Pass::fig13),
    ("fig14_stateml_features", Pass::fig14),
    ("fig15_tree_comparison", Pass::fig15),
    ("fig16_best_features", Pass::fig16),
];

/// The shared `main` of the figure binaries: builds a [`Pass`] from the
/// command line and prints each named figure's stdout in order, with a
/// stage banner on stderr before each when there is more than one. On
/// failure, names the figure on stderr and exits 1 (2 when the telemetry
/// sink cannot be opened).
pub fn print_figures(figures: &[(&str, Figure)]) -> ExitCode {
    let pass = match Pass::from_args() {
        Ok(pass) => pass,
        Err(e) => {
            note(&format!("error: cannot open telemetry sink: {e}"));
            return ExitCode::from(2);
        }
    };
    for (name, figure) in figures {
        if figures.len() > 1 {
            // Stage banners are diagnostics: stderr, so stdout stays a
            // clean concatenation of the figures' own output.
            let rule = "#".repeat(56);
            note(&format!("\n{rule}\n## {name}\n{rule}"));
        }
        let printed = figure(&pass).and_then(|text| {
            let mut out = std::io::stdout().lock();
            out.write_all(text.as_bytes())?;
            Ok(out.flush()?)
        });
        if let Err(e) = printed {
            note(&format!("{name}: {e}"));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// A diagnostic line on stderr. Not an `eprintln!` call, so the library
/// print lints stay clean; stdout carries only figure output.
fn note(msg: &str) {
    let _ = writeln!(std::io::stderr(), "{msg}");
}

/// `cell`'s value, computed by `init` on first use. A failure is kept too,
/// and every caller gets it.
fn memo<T>(
    cell: &OnceLock<Result<T, CampaignError>>,
    init: impl FnOnce() -> Result<T, CampaignError>,
) -> Result<&T, CampaignError> {
    cell.get_or_init(init).as_ref().map_err(Clone::clone)
}

/// The motivating example of Figures 2–4: the mesa loop and the trees that
/// choose its unroll factor, each trained on the whole suite.
#[derive(Debug)]
struct Motivating {
    mesa: LoopRecord,
    /// The tree over GCC's features.
    gcc_tree: DecisionTree,
    /// The feature search over the whole suite.
    search: SearchOutcome,
    /// The found features' values on the mesa loop.
    mesa_row: Vec<f64>,
    /// The tree over the found features; `None` when the search found none.
    tree: Option<DecisionTree>,
}

/// One pass of the paper's evaluation over one measured suite.
#[derive(Debug)]
pub struct Pass {
    config: ExperimentConfig,
    dataset_dir: Option<PathBuf>,
    telemetry: Telemetry,
    data: OnceLock<Result<SuiteData, CampaignError>>,
    motivating: OnceLock<Result<Motivating, CampaignError>>,
    cv: OnceLock<Result<OursResult, CampaignError>>,
}

impl Pass {
    /// A pass over the suite of `config`, measured through the dataset
    /// store at `dataset_dir` when one is given. Nothing runs until a
    /// figure asks for it.
    pub(crate) fn new(
        config: ExperimentConfig,
        dataset_dir: Option<PathBuf>,
        telemetry: Telemetry,
    ) -> Pass {
        Pass {
            config,
            dataset_dir,
            telemetry,
            data: OnceLock::new(),
            motivating: OnceLock::new(),
            cv: OnceLock::new(),
        }
    }

    /// [`Pass::new`] from the command line: the flags of
    /// [`config_from_args`], `--dataset-dir DIR`, and the telemetry flags
    /// `--telemetry-dir DIR`, `--log-json` and `--progress`.
    ///
    /// # Errors
    ///
    /// The telemetry sink cannot be opened.
    pub fn from_args() -> std::io::Result<Pass> {
        let mut dataset_dir = None;
        let mut telemetry = TelemetryConfig::default();
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--dataset-dir" => dataset_dir = args.next().map(PathBuf::from),
                "--telemetry-dir" => telemetry.dir = args.next().map(PathBuf::from),
                "--log-json" => telemetry.log_json = true,
                "--progress" => telemetry.progress = true,
                _ => {}
            }
        }
        Ok(Pass::new(
            config_from_args(),
            dataset_dir,
            telemetry.build()?,
        ))
    }

    /// The measured suite, loaded on first use.
    ///
    /// # Errors
    ///
    /// The campaign's or the in-memory measurement's failure.
    pub(crate) fn data(&self) -> Result<&SuiteData, CampaignError> {
        memo(&self.data, || {
            note(&format!(
                "# generating suite + training data ({} benchmarks)...",
                self.config.suite.n_benchmarks
            ));
            let (data, quarantined) = load_or_build_suite_data_with_telemetry(
                &self.config,
                self.dataset_dir.as_deref(),
                &self.telemetry,
            )?;
            note(&format!("# {} loops measured", data.loops.len()));
            for q in &quarantined {
                note(&format!("# quarantined: {q}"));
            }
            Ok(data)
        })
    }

    /// Cross-validated run of our technique ([`try_predict_cv_ours`] at the
    /// configured folds and seed), computed on first use.
    ///
    /// # Errors
    ///
    /// Measuring the suite or a fold's search failed.
    pub(crate) fn cv(&self) -> Result<&OursResult, CampaignError> {
        memo(&self.cv, || {
            let (data, c) = (self.data()?, &self.config);
            note(&format!("# running feature search ({} folds)...", c.folds));
            Ok(try_predict_cv_ours(data, c.folds, c.seed, &c.search)?)
        })
    }

    /// The motivating example, computed on first use.
    fn motivating(&self) -> Result<&Motivating, CampaignError> {
        memo(&self.motivating, || {
            let data = self.data()?;
            let mesa = try_mesa_record(&self.config)?;
            let labels: Vec<usize> = data.loops.iter().map(LoopRecord::label_factor).collect();
            let train = |xs| {
                let ds = Dataset::new(xs, labels.clone(), N_CLASSES).expect("rectangular");
                DecisionTree::train(&ds, &self.config.search.tree)
            };
            // The mesa loop itself is, of course, not in the suite.
            let gcc_tree = train(data.loops.iter().map(|l| l.gcc_feats.clone()).collect());
            note("# running feature search over the whole suite...");
            let examples = data.training_examples();
            let fs = FeatureSearch::from_examples(&examples, self.config.search.clone());
            let search = fs
                .try_run(&examples)
                .map_err(|source| PipelineError::Search { fold: None, source })?;
            let mesa_example = TrainingExample {
                ir: mesa.ir.clone(),
                cycles: mesa.cycles.clone(),
            };
            let mesa_row = fs
                .feature_matrix(&search.features, &[mesa_example])
                .remove(0);
            let tree = (!search.features.is_empty())
                .then(|| train(fs.feature_matrix(&search.features, &examples)));
            Ok(Motivating {
                mesa,
                gcc_tree,
                search,
                mesa_row,
                tree,
            })
        })
    }

    /// Per-benchmark speedups of a factor assignment over the suite.
    fn speedups(&self, factors: &[usize]) -> Result<Vec<f64>, CampaignError> {
        let sim = &self.config.oracle.sim;
        Ok(self.data()?.try_all_benchmark_speedups(factors, sim)?)
    }

    /// Figure 2: the motivating example. A forward-difference loop from
    /// mesa (MediaBench); the table compares Baseline, Oracle, GCC's default
    /// heuristic, a decision tree over GCC's own features, and our
    /// technique.
    ///
    /// Paper result shape: GCC's default picks a factor causing a
    /// *slowdown*; the GCC-feature tree recovers a small gain; our
    /// technique finds the oracle factor.
    ///
    /// # Errors
    ///
    /// Measuring or the feature search failed.
    pub fn fig02(&self) -> Result<String, Box<dyn Error>> {
        let m = self.motivating()?;
        let mesa = &m.mesa;
        let baseline = mesa.cycles[0];
        let oracle_factor = mesa.best_factor();
        let oracle = mesa.cycles[oracle_factor];

        let mut out = String::new();
        writeln!(out, "== Figure 2: loop from mesa (MediaBench) ==")?;
        writeln!(out, "for (i = 0; i < EXP_TABLE_SIZE - 1; i++)")?;
        writeln!(
            out,
            "    l->SpotExpTable[i][1] = l->SpotExpTable[i+1][0] - l->SpotExpTable[i][0];"
        )?;
        writeln!(out)?;
        for (method, factor) in [
            ("Baseline", 0usize),
            ("Oracle", oracle_factor),
            ("GCC Default", mesa.gcc_default_factor),
            ("GCC Tree", m.gcc_tree.predict(&mesa.gcc_feats)),
            (
                "Our Technique",
                m.tree.as_ref().map_or(0, |t| t.predict(&m.mesa_row)),
            ),
        ] {
            let row = report::fig2_row(method, factor, mesa.cycles[factor], baseline, oracle);
            writeln!(out, "{row}")?;
        }
        writeln!(out)?;
        writeln!(out, "cycle table (factors 0..=15):")?;
        for (k, c) in mesa.cycles.iter().enumerate() {
            writeln!(
                out,
                "  factor {k:>2}: {c:>10.0} cycles  speedup {:.4}",
                baseline / c
            )?;
        }
        Ok(out)
    }

    /// Figures 3 and 4: the decision paths followed by the learned
    /// heuristics for the motivating-example loop.
    ///
    /// Figure 3: the features GCC's heuristic consults (`ninsns`, `niter`,
    /// …) and the path through a decision tree learned over them. Figure 4:
    /// the generated features our technique found, their values on the
    /// loop, and the path through the tree learned over them.
    ///
    /// # Errors
    ///
    /// Measuring or the feature search failed.
    pub fn fig03_04(&self) -> Result<String, Box<dyn Error>> {
        let m = self.motivating()?;
        let mut out = String::new();
        writeln!(
            out,
            "== Figure 3(a): GCC heuristic features of the mesa loop =="
        )?;
        for (name, value) in GCC_FEATURE_NAMES.iter().zip(&m.mesa.gcc_feats) {
            writeln!(out, "  {name:<26} {value}")?;
        }
        writeln!(out)?;
        writeln!(out, "== Figure 3(b): path through the GCC-feature tree ==")?;
        write_path(&mut out, &m.gcc_tree, &m.mesa.gcc_feats, &GCC_FEATURE_NAMES)?;

        let Some(tree) = &m.tree else {
            writeln!(out)?;
            writeln!(
                out,
                "(feature search found no improving features at this budget)"
            )?;
            return Ok(out);
        };
        writeln!(out)?;
        writeln!(
            out,
            "== Figure 4(a): generated features and their values on the mesa loop =="
        )?;
        for (k, (f, v)) in m.search.features.iter().zip(&m.mesa_row).enumerate() {
            writeln!(out, "  f{k} = {v:<12} {f}")?;
        }
        writeln!(out)?;
        writeln!(
            out,
            "== Figure 4(b): path through the generated-feature tree =="
        )?;
        write_path(&mut out, tree, &m.mesa_row, &[])?;
        Ok(out)
    }

    /// Figure 12 + §VII-A limit study: per-benchmark speedup of GCC's
    /// default heuristic vs the oracle (best possible unroll factors).
    ///
    /// Paper result shape: oracle average ≈ 1.05 with large variance across
    /// benchmarks (up to 1.28 on security_sha); GCC gains on a few
    /// benchmarks but **slows down 12 of 57**, the worst to 0.55.
    ///
    /// # Errors
    ///
    /// Deploying a factor assignment failed.
    pub fn fig12(&self) -> Result<String, Box<dyn Error>> {
        let data = self.data()?;
        let oracle = self.speedups(&data.oracle_factors())?;
        let gcc = self.speedups(&data.gcc_factors())?;
        let names = bench_names(data);

        let mut out = String::new();
        writeln!(
            out,
            "== Figure 12: oracle vs GCC default heuristic, per benchmark =="
        )?;
        out.push_str(&report::benchmark_table(
            &names,
            &[("oracle", &oracle), ("GCC", &gcc)],
            40,
        ));
        writeln!(out)?;
        writeln!(out, "== Limit study (paper §VII-A) ==")?;
        writeln!(out, "average oracle speedup: {:.4}", mean(&oracle))?;
        writeln!(out, "average GCC speedup:    {:.4}", mean(&gcc))?;
        let slowdowns: Vec<(&String, f64)> = names
            .iter()
            .zip(&gcc)
            .filter(|(_, &s)| s < 0.9995)
            .map(|(n, &s)| (n, s))
            .collect();
        writeln!(
            out,
            "GCC slows down {} of {} benchmarks",
            slowdowns.len(),
            names.len()
        )?;
        if let Some((n, s)) = slowdowns.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
            writeln!(out, "worst GCC slowdown: {n} at {s:.4}")?;
        }
        if let Some((i, s)) = oracle.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) {
            writeln!(out, "largest potential: {} at {s:.4}", names[i])?;
        }
        let flat = oracle.iter().filter(|&&s| s < 1.005).count();
        writeln!(
            out,
            "benchmarks where unrolling barely matters (<0.5%): {flat}"
        )?;
        Ok(out)
    }

    /// Figure 13: comparison of GCC's heuristic, the state-of-the-art ML
    /// scheme (stateML: SVM over the Figure 14 hand features) and our
    /// technique (GP-generated features + decision tree), all per
    /// benchmark, plus the headline percent-of-maximum summary.
    ///
    /// Paper result shape: GCC ≈ 3% of max, stateML ≈ 59%, Ours ≈ 76%.
    ///
    /// # Errors
    ///
    /// A fold's search or a deployment failed.
    pub fn fig13(&self) -> Result<String, Box<dyn Error>> {
        let data = self.data()?;
        let (folds, seed) = (self.config.folds, self.config.seed);
        note(&format!("# training stateML SVM ({folds} folds)..."));
        let svm = predict_cv_svm(
            data,
            |l| l.stateml_feats.clone(),
            folds,
            seed,
            &SvmConfig::default(),
        );
        self.comparison(
            "Figure 13: per-benchmark speedups",
            36,
            &[
                ("GCC", "GCC", &data.gcc_factors()),
                ("stateML", "stateML", &svm),
                ("Our", "Our", &self.cv()?.factors),
            ],
        )
    }

    /// Figure 15: the same learner (the C4.5 decision tree) trained over
    /// the four competing feature sets — GCC's heuristic features, the
    /// stateML hand features, their union, and our generated features.
    /// Holding the model fixed isolates the merit of the features.
    ///
    /// Paper result shape: GCC-features tree ≈ 48% of max, stateML-features
    /// tree ≈ 53%, combining the two adds nothing, ours ≈ 76%.
    ///
    /// # Errors
    ///
    /// A fold's search or a deployment failed.
    pub fn fig15(&self) -> Result<String, Box<dyn Error>> {
        let data = self.data()?;
        let (folds, seed) = (self.config.folds, self.config.seed);
        let tree = |features: fn(&LoopRecord) -> Vec<f64>| {
            predict_cv_tree(data, features, folds, seed, &self.config.search.tree)
        };
        note("# C4.5 tree over the GCC, stateML and combined feature sets...");
        self.comparison(
            "Figure 15: same model (C4.5 tree), different feature sets",
            32,
            &[
                ("GCCTree", "GCC Tree", &tree(|l| l.gcc_feats.clone())),
                (
                    "sMLTree",
                    "stateML Tree",
                    &tree(|l| l.stateml_feats.clone()),
                ),
                ("G+S", "GCC+stateML", &tree(combined_feats)),
                ("Our", "Our", &self.cv()?.factors),
            ],
        )
    }

    /// A per-benchmark comparison against the oracle (Figures 13 and 15):
    /// the table of every method's speedups, then each method's percent of
    /// the maximum. A method is its table label, its summary label and its
    /// factor assignment; the table is `width` characters of bar wide.
    fn comparison(
        &self,
        title: &str,
        width: usize,
        methods: &[(&str, &str, &[usize])],
    ) -> Result<String, Box<dyn Error>> {
        let data = self.data()?;
        let oracle = self.speedups(&data.oracle_factors())?;
        let speedups = methods
            .iter()
            .map(|(_, _, factors)| self.speedups(factors))
            .collect::<Result<Vec<_>, _>>()?;
        let mut table = vec![("oracle", oracle.as_slice())];
        let mut summary = Vec::new();
        for ((table_label, summary_label, _), s) in methods.iter().zip(&speedups) {
            table.push((*table_label, s.as_slice()));
            summary.push((*summary_label, s.as_slice()));
        }

        let mut out = String::new();
        writeln!(out, "== {title} ==")?;
        out.push_str(&report::benchmark_table(&bench_names(data), &table, width));
        writeln!(out)?;
        writeln!(out, "== Summary (percent of maximum available speedup) ==")?;
        out.push_str(&report::percent_of_max_summary(&oracle, &summary));
        Ok(out)
    }

    /// Figure 16: the features found by the search in the first fold of
    /// the cross-validation ([`Pass::cv`]) — each with the
    /// internal-validation speedup the model attains once the feature is
    /// added, the translation into percent of the maximum available, and
    /// the marginal improvement the feature contributed.
    ///
    /// # Errors
    ///
    /// Measuring or a fold's search failed.
    pub fn fig16(&self) -> Result<String, Box<dyn Error>> {
        // The first fold of the Figure 13/15 cross-validation: its search
        // trained on (folds-1)/folds of the loops.
        let outcome = &self.cv()?.outcomes[0];

        let mut out = String::new();
        writeln!(out, "== Figure 16: best features found in one fold ==")?;
        writeln!(
            out,
            "baseline (no features): internal speedup {:.5}; oracle ceiling {:.5}",
            outcome.baseline_speedup, outcome.oracle_speedup
        )?;
        writeln!(out)?;
        writeln!(
            out,
            "{:>3}  {:>8}  {:>8}  {:>11}  feature",
            "#", "speedup", "% of max", "improvement"
        )?;
        let mut prev_pct = percent_of_max(outcome.baseline_speedup, outcome.oracle_speedup) * 100.0;
        for (k, step) in outcome.steps.iter().enumerate() {
            let pct = percent_of_max(step.speedup, outcome.oracle_speedup) * 100.0;
            writeln!(
                out,
                "{:>3}  {:>8.5}  {:>7.2}%  {:>10.2}%  {}",
                k + 1,
                step.speedup,
                pct,
                pct - prev_pct,
                step.feature
            )?;
            prev_pct = pct;
        }
        writeln!(out)?;
        writeln!(
            out,
            "{} features in {} total GP generations",
            outcome.features.len(),
            outcome.total_generations
        )?;
        writeln!(out)?;
        writeln!(out, "expression-element legend (paper §VII-C):")?;
        writeln!(out, "  count(s)     number of elements in sequence s")?;
        writeln!(out, "  filter(s,m)  s without the elements not matching m")?;
        writeln!(out, "  sum(s,e)     sum of e over each member of s")?;
        writeln!(out, "  is-type(t)   the current node has type t")?;
        writeln!(
            out,
            "  /*, //*, /[n][p]   children, descendants, n-th-child test"
        )?;
        Ok(out)
    }

    /// Loop-level diagnostics of every method: label histograms, train-fit
    /// and overfit ceilings, per-method loop speedup and accuracy, and the
    /// per-fold search trajectories.
    ///
    /// # Errors
    ///
    /// A fold's search failed.
    pub fn diag(&self) -> Result<String, Box<dyn Error>> {
        let data = self.data()?;
        let (folds, seed) = (self.config.folds, self.config.seed);
        let mut out = String::new();
        writeln!(out, "loops: {}", data.loops.len())?;

        // Label histograms at increasing tolerance.
        for tol in [0.0, 0.005, 0.02, 0.05] {
            let mut hist = vec![0usize; N_CLASSES];
            for l in &data.loops {
                hist[fegen_ml::metrics::oracle_choice_tolerant(&l.cycles, tol)] += 1;
            }
            writeln!(out, "tol {tol:<5}: {hist:?}")?;
        }
        let ys: Vec<usize> = data.loops.iter().map(LoopRecord::label_factor).collect();
        let fit = |xs: Vec<Vec<f64>>, cfg: &TreeConfig| {
            let ds = Dataset::new(xs, ys.clone(), N_CLASSES).expect("rectangular");
            let tree = DecisionTree::train(&ds, cfg);
            let preds: Vec<usize> = (0..ds.len()).map(|i| tree.predict(ds.row(i))).collect();
            (tree, preds)
        };
        // Train-fit check: can the tree fit the training data at all?
        for prune in [false, true] {
            let cfg = TreeConfig {
                prune,
                ..Default::default()
            };
            let (tree, preds) = fit(
                data.loops.iter().map(|l| l.gcc_feats.clone()).collect(),
                &cfg,
            );
            writeln!(
                out,
                "gcc-feat tree prune={prune}: train-acc {:.2} leaves {} depth {}",
                accuracy(&preds, &ys),
                tree.n_leaves(),
                tree.depth()
            )?;
        }
        // IR ceiling: overfit tree on train=test with rich hand features.
        let cfg = TreeConfig {
            prune: false,
            max_depth: 24,
            min_split: 2,
            ..Default::default()
        };
        let (_, preds) = fit(data.loops.iter().map(combined_feats).collect(), &cfg);
        writeln!(
            out,
            "IR-ceiling overfit tree: train-acc {:.2}, train loop-speedup {:.4}",
            accuracy(&preds, &ys),
            loop_level_speedup(data, &preds)
        )?;
        // Also: speedup if every loop used its label (tolerant argmin).
        writeln!(
            out,
            "label-choice speedup {:.4}",
            loop_level_speedup(data, &ys)
        )?;

        let labels = data.oracle_factors();

        // Sensitivity: how much does the choice matter per loop?
        let sensitive = data
            .loops
            .iter()
            .filter(|l| {
                let max = l.cycles.iter().copied().fold(0.0f64, f64::max);
                let min = l.cycles.iter().copied().fold(f64::INFINITY, f64::min);
                max / min > 1.02
            })
            .count();
        writeln!(
            out,
            "sensitive loops (>2% spread): {sensitive}/{}",
            data.loops.len()
        )?;

        let tree = TreeConfig::default();
        let tree_gcc = predict_cv_tree(data, |l| l.gcc_feats.clone(), folds, seed, &tree);
        let tree_sml = predict_cv_tree(data, |l| l.stateml_feats.clone(), folds, seed, &tree);
        let svm = predict_cv_svm(
            data,
            |l| l.stateml_feats.clone(),
            folds,
            seed,
            &SvmConfig::default(),
        );
        let ours = self.cv()?;
        for (name, f) in [
            ("oracle", &labels),
            ("gcc", &data.gcc_factors()),
            ("tree_gcc", &tree_gcc),
            ("tree_sml", &tree_sml),
            ("svm_sml", &svm),
            ("ours", &ours.factors),
        ] {
            writeln!(
                out,
                "{name:<9} loop-speedup {:.4}  acc {:.2}  zero-frac {:.2}",
                loop_level_speedup(data, f),
                accuracy(f, &labels),
                f.iter().filter(|&&x| x <= 1).count() as f64 / f.len() as f64,
            )?;
        }
        for (i, o) in ours.outcomes.iter().enumerate() {
            writeln!(
                out,
                "fold {i}: {} features, baseline {:.4}, final {:.4}, gens {}",
                o.features.len(),
                o.baseline_speedup,
                o.steps.last().map_or(o.baseline_speedup, |s| s.speedup),
                o.total_generations
            )?;
            for s in &o.steps {
                writeln!(out, "   {:.4} <- {}", s.speedup, s.feature)?;
            }
        }
        Ok(out)
    }

    /// Figure 14: the hand-crafted features of the state-of-the-art scheme
    /// (Stephenson & Amarasinghe), printed with their values on a few sample
    /// loops — verifying the re-implementation produces sensible,
    /// discriminative values. The listing only needs a handful of loops, so
    /// it measures the tiny suite instead of reading [`Pass::data`].
    ///
    /// # Errors
    ///
    /// Measuring the tiny suite failed.
    pub fn fig14(&self) -> Result<String, Box<dyn Error>> {
        let config = ExperimentConfig {
            suite: fegen_suite::SuiteConfig::tiny(),
            ..self.config.clone()
        };
        let data = try_build_suite_data(&config)?;

        let mut out = String::new();
        writeln!(out, "== Figure 14: the stateML features ==")?;
        let sample: Vec<&LoopRecord> = data.loops.iter().take(4).collect();
        write!(out, "{:<32}", "feature")?;
        for l in &sample {
            let site: String = l.site.to_string().chars().take(14).collect();
            write!(out, " {site:>14}")?;
        }
        writeln!(out)?;
        for (k, name) in STATEML_FEATURE_NAMES.iter().enumerate() {
            write!(out, "{name:<32}")?;
            for l in &sample {
                write!(out, " {:>14.2}", l.stateml_feats[k])?;
            }
            writeln!(out)?;
        }

        // Cross-loop variance check: a feature that never varies carries no
        // information; report how many are discriminative across the suite.
        let varying = (0..STATEML_FEATURE_NAMES.len())
            .filter(|&k| {
                let first = data.loops[0].stateml_feats[k];
                data.loops.iter().any(|l| l.stateml_feats[k] != first)
            })
            .count();
        writeln!(out)?;
        writeln!(
            out,
            "{varying} of {} features vary across the {} sampled loops",
            STATEML_FEATURE_NAMES.len(),
            data.loops.len()
        )?;
        Ok(out)
    }
}

/// The suite's benchmark names, in order.
fn bench_names(data: &SuiteData) -> Vec<String> {
    data.benchmarks.iter().map(|b| b.name.clone()).collect()
}

/// GCC's features followed by stateML's (the "G+S" set of Figure 15).
fn combined_feats(l: &LoopRecord) -> Vec<f64> {
    let mut v = l.gcc_feats.clone();
    v.extend(&l.stateml_feats);
    v
}

/// Writes the path `row` takes through `tree` as nested `if`s ending in
/// the predicted unroll factor (the Figure 3(b)/4(b) listing). Feature `k`
/// is `names[k]`, or `fk` past the end of `names`.
fn write_path(
    out: &mut String,
    tree: &DecisionTree,
    row: &[f64],
    names: &[&str],
) -> std::fmt::Result {
    let (label, path) = tree.predict_traced(row);
    for (depth, step) in path.iter().enumerate() {
        let k = step.feature;
        let name = names
            .get(k)
            .map_or_else(|| format!("f{k}"), |n| n.to_string());
        let op = if step.went_left { "<=" } else { ">" };
        let indent = 2 * depth;
        writeln!(out, "{:indent$}if( {name} {op} {} )", "", step.threshold)?;
    }
    writeln!(out, "{:w$}unrollFactor = {label};", "", w = 2 * path.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_lists_the_first_cv_folds_search() {
        let mut config = ExperimentConfig::quick();
        config.suite = fegen_suite::SuiteConfig::tiny();
        config.folds = 2;
        let pass = Pass::new(config, None, Telemetry::disabled());
        let fold0 = &pass.cv().unwrap().outcomes[0];
        let text = pass.fig16().unwrap();
        assert!(!fold0.steps.is_empty(), "the tiny fold finds a feature");
        for step in &fold0.steps {
            let row = format!("{:>8.5}", step.speedup);
            let line = text
                .lines()
                .find(|l| l.ends_with(&step.feature.to_string()));
            assert!(
                line.is_some_and(|l| l.contains(&row)),
                "{step:?} missing:\n{text}"
            );
        }
        let generations = format!("in {} total GP generations", fold0.total_generations);
        assert!(text.contains(&generations), "{text}");
    }
}
