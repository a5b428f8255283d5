//! The three stages of `fegen bench`, each measuring into
//! [`BenchRecord`]s (see [`crate::record`] for the format and the floors).
//!
//! - `eval` times compiled feature evaluation against the tree-walking
//!   interpreter over every loop of the tiny suite, after checking that the
//!   two engines agree on every (feature, loop) outcome.
//! - `measure` runs the same campaign twice — every cell compiled from
//!   scratch, then every cell forked off a per-benchmark snapshot — and
//!   checks that both write the same shard bytes.
//! - `serve` trains a model, spawns the real `fegen serve --stdio` daemon
//!   and drives batched predictions through the frame protocol, with more
//!   distinct loop shapes than the arena cache holds.

use crate::record::{BenchError, BenchRecord, Stage, StageRun};
use crate::{
    campaign_fingerprint, run_campaign, try_build_suite_data, CampaignConfig, CampaignReport,
    DatasetStore, ExperimentConfig, MeasureMode, SamplingPolicy,
};
use fegen_core::gp::transport::StreamTransport;
use fegen_core::ir::{IrArena, IrNode};
use fegen_core::serve::{
    decode_response, encode_request, ModelArtifact, ServeRequest, ServeResponse, WireAttr,
    WireNode, SERVE_PROTOCOL,
};
use fegen_core::{
    parse_feature, CancelToken, EvalEngine, EvalPool, FeatureExpr, FrameTransport, Grammar,
    Program, ProgramPath,
};
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// The paper-shaped deployment feature set: the structural count/filter
/// shapes the GP search converges to (Figure 16). `fegen train-model` and
/// the `serve` stage use it as the default model basis; the `eval` stage
/// times it as its paper-shaped group.
pub const PAPER_FEATURE_SET: [&str; 5] = [
    "count(//*)",
    "count(filter(//*, is-type(reg)))",
    "count(filter(//*, !(is-type(wide-int) || is-type(const_double))))",
    "max(filter(/*, is-type(basic-block)), count(filter(//*, is-type(insn))))",
    "count(filter(//*, is-type(insn))) / (1 + count(filter(//*, is-type(basic-block))))",
];

/// [`PAPER_FEATURE_SET`], parsed.
pub fn paper_features() -> Vec<FeatureExpr> {
    PAPER_FEATURE_SET
        .iter()
        .map(|s| parse_feature(s).expect("the paper feature set parses"))
        .collect()
}

/// Wraps a staging failure as [`BenchError::Run`] under `context`.
fn setup<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| BenchError::Run(format!("{context}: {e}"))
}

/// The evaluation step budget of the `eval` stage (the quick preset's
/// per-example budget).
const EVAL_BUDGET: u64 = 60_000;
/// Grammar depths of the generated mix, [`GEN_PER_DEPTH`] features each.
const GEN_DEPTHS: [usize; 3] = [3, 4, 5];
/// Generated features per depth.
const GEN_PER_DEPTH: usize = 8;

/// One timed window of the `eval` stage.
const EVAL_WINDOW: Duration = Duration::from_millis(10);

/// Times `compiled` — one pass evaluates every feature of `features` on
/// every loop — against the interpreter sweeping the same pairs. After one
/// untimed warm-up pass each (lazy setup such as interning and page faults
/// stays out of the timed region), the two alternate [`EVAL_WINDOW`]s until
/// each has `side` of timed passes, so a slow spell of the host hits both;
/// each side's rate is the median of its windows', so one stalled window
/// moves neither. Returns `(compiled, interpreter)` evaluations per second.
fn vs_interpreter(
    side: Duration,
    features: &[FeatureExpr],
    loops: &[IrNode],
    mut compiled: impl FnMut() -> f64,
) -> (f64, f64) {
    let per_pass = (features.len() * loops.len()) as f64;
    let mut interp = || {
        let mut acc = 0.0;
        for f in features {
            for ir in loops {
                acc += f.eval_with_budget(ir, EVAL_BUDGET).unwrap_or(0.0);
            }
        }
        acc
    };
    let mut passes: [&mut dyn FnMut() -> f64; 2] = [&mut interp, &mut compiled];
    for pass in &mut passes {
        std::hint::black_box(pass());
    }
    let mut rates: [Vec<f64>; 2] = Default::default();
    let mut timed = [Duration::ZERO; 2];
    while timed.iter().any(|&t| t < side) {
        for (i, pass) in passes.iter_mut().enumerate() {
            if timed[i] >= side {
                continue;
            }
            let start = Instant::now();
            let mut n = 0u64;
            while start.elapsed() < EVAL_WINDOW {
                std::hint::black_box(pass());
                n += 1;
            }
            let elapsed = start.elapsed();
            timed[i] += elapsed;
            rates[i].push(n as f64 / elapsed.as_secs_f64());
        }
    }
    let [interp, compiled] = rates.map(|mut r| median(&mut r) * per_pass);
    (compiled, interp)
}

/// Every loop of the tiny suite, exported.
fn tiny_suite_loops() -> Result<Vec<IrNode>, BenchError> {
    let mut loops = Vec::new();
    for b in &fegen_suite::generate_suite(&fegen_suite::SuiteConfig::tiny()) {
        let rtl = fegen_rtl::lower::lower_program(&b.program).map_err(setup(&b.name))?;
        for f in &rtl.functions {
            for region in &f.loops {
                loops.push(fegen_rtl::export::export_loop(f, region, &rtl.layout));
            }
        }
    }
    Ok(loops)
}

/// The `eval` stage: the paper-shaped features (counts over filtered
/// traversals, the shapes the GP converges to) and a grammar-generated mix
/// (a random population slice, deep nested aggregates included), each with
/// loops flattened and programs compiled once; the mix again by depth; and
/// the warm pool as the search drives it, by column.
///
/// # Errors
///
/// [`BenchError::Check`] before anything is timed when the engines
/// disagree on any (feature, loop) outcome.
pub(crate) fn eval(quick: bool) -> Result<StageRun, BenchError> {
    let side = Duration::from_millis(if quick { 120 } else { 600 });
    let loops = tiny_suite_loops()?;
    let grammar = Grammar::derive(loops.iter());
    let mut features = paper_features();
    let n_paper = features.len();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe7c);
    for depth in GEN_DEPTHS {
        for _ in 0..GEN_PER_DEPTH {
            features.push(grammar.gen_feature(&mut rng, depth));
        }
    }
    let arenas: Vec<IrArena> = loops.iter().map(IrArena::from_tree).collect();
    let programs: Vec<Program> = features.iter().map(Program::compile).collect();
    for (f, p) in features.iter().zip(&programs) {
        for (ir, arena) in loops.iter().zip(&arenas) {
            let interp = f.eval_with_budget(ir, EVAL_BUDGET);
            let compiled = p.eval(arena, EVAL_BUDGET);
            if interp != compiled {
                let detail = format!("engines disagree on `{f}`: {interp:?} vs {compiled:?}");
                return Err(BenchError::Check(detail));
            }
        }
    }

    let rec = |metric: String, value: f64| BenchRecord::new(Stage::Eval, metric, value);
    let mut records = vec![
        rec("loops".into(), loops.len() as f64),
        rec("budget".into(), EVAL_BUDGET as f64),
        rec("window_ms".into(), EVAL_WINDOW.as_millis() as f64),
        rec("side_ms".into(), side.as_millis() as f64),
    ];
    // Five cold groups: compiled programs over flattened loops, without
    // the pool. The paper-shaped and generated groups carry the floors;
    // the by-depth split shows which grammar depths the planner speeds up.
    let depth = |d: usize| n_paper + d * GEN_PER_DEPTH..n_paper + (d + 1) * GEN_PER_DEPTH;
    let groups = [
        ("paper_features".to_owned(), 0..n_paper),
        ("generated_features".to_owned(), n_paper..features.len()),
    ]
    .into_iter()
    .chain(
        GEN_DEPTHS
            .iter()
            .enumerate()
            .map(|(d, g)| (format!("generated_breakdown.by_depth.{g}"), depth(d))),
    );
    for (group, range) in groups {
        let programs = &programs[range.clone()];
        records.push(rec(format!("{group}.features"), range.len() as f64));
        let (vm, interp) = vs_interpreter(side, &features[range], &loops, || {
            let mut acc = 0.0;
            for p in programs {
                for arena in &arenas {
                    acc += p.eval(arena, EVAL_BUDGET).unwrap_or(0.0);
                }
            }
            acc
        });
        records.push(rec(format!("{group}.vm_evals_per_sec"), vm).vs(interp));
    }
    for (name, path) in [
        ("fast", ProgramPath::Fast),
        ("loop_nest", ProgramPath::LoopNest),
    ] {
        let n = programs[n_paper..]
            .iter()
            .filter(|p| p.path() == path)
            .count();
        records.push(rec(format!("generated_breakdown.paths.{name}"), n as f64));
    }
    // The pool as the search drives it: warm program cache, every feature
    // by column.
    let pool = EvalPool::new(loops.iter(), EvalEngine::Compiled);
    let (warm, interp) = vs_interpreter(side, &features, &loops, || {
        let mut acc = 0.0;
        for f in &features {
            for (i, v) in pool
                .column(f, EVAL_BUDGET)
                .unwrap_or_default()
                .into_iter()
                .enumerate()
            {
                acc += v + i as f64;
            }
        }
        acc
    });
    records.push(rec("pool_warm.features".into(), features.len() as f64));
    records.push(rec("pool_warm.evals_per_sec".into(), warm).vs(interp));
    Ok(StageRun {
        records,
        report: String::new(),
        checks: Ok(()),
    })
}

/// Campaign time each mode of the `measure` stage accumulates, in
/// repeated runs, before their medians are compared: one tiny campaign
/// lasts ~40 ms, one scheduler stall away from flipping the fork floor.
const MEASURE_MIN_SECS: f64 = 1.0;

/// The `measure` stage: the quick experiment's campaign (`quick`: the tiny
/// suite at the resilience tests' reduced sampling — the same protocol at a
/// smaller scale) on one worker, from scratch and forked, each mode repeated
/// until it has [`MEASURE_MIN_SECS`] of campaign time. The timings are the
/// modes' medians.
///
/// # Errors
///
/// [`BenchError::Run`] when a campaign fails; shards or site counts of any
/// run that diverge from the first scratch run's are reported in
/// [`StageRun::checks`].
pub(crate) fn measure(quick: bool) -> Result<StageRun, BenchError> {
    let mut config = ExperimentConfig::quick();
    let mut sampling = SamplingPolicy::default();
    if quick {
        config.suite = fegen_suite::SuiteConfig::tiny();
        sampling.base_runs = 8;
        sampling.max_runs = 16;
        sampling.target_log_iqr = 0.1;
    }
    let fingerprint = campaign_fingerprint(&config, &sampling);
    let base = std::env::temp_dir().join(format!("fegen-bench-measure-{}", std::process::id()));
    let names: Vec<String> = fegen_suite::generate_suite(&config.suite)
        .into_iter()
        .map(|b| b.name)
        .collect();
    // Both campaigns share one fingerprint (the measure mode is execution
    // policy, not dataset identity) and identical settings.
    let run_mode = |mode: MeasureMode| -> Result<(CampaignReport, f64, DatasetStore), BenchError> {
        let dir = base.join(format!("{mode:?}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DatasetStore::open(&dir, fingerprint).map_err(setup("opening the dataset"))?;
        let campaign = CampaignConfig {
            jobs: 1,
            sampling: sampling.clone(),
            measure: mode,
            ..CampaignConfig::default()
        };
        let start = Instant::now();
        let report = run_campaign(&config, &campaign, &store, None, &CancelToken::new())
            .map_err(setup(&format!("{mode:?} campaign")))?;
        Ok((report, start.elapsed().as_secs_f64(), store))
    };
    // The modes alternate, so a slow spell of the host hits both. Every
    // run must write the first scratch run's shards and site count.
    let modes = [MeasureMode::Scratch, MeasureMode::Forked];
    let mut secs: [Vec<f64>; 2] = Default::default();
    let mut first = None;
    let mut divergence = None;
    let mut forked = CampaignReport::default();
    let short = |s: &Vec<f64>| s.iter().sum::<f64>() < MEASURE_MIN_SECS;
    while secs.iter().any(short) {
        for (i, mode) in modes.into_iter().enumerate() {
            if !short(&secs[i]) {
                continue;
            }
            let (report, t, store) = run_mode(mode)?;
            secs[i].push(t);
            let shards: Option<Vec<Vec<u8>>> = names
                .iter()
                .map(|n| std::fs::read(store.shard_path(n)).ok())
                .collect();
            let outcome = (shards, report.sites_measured);
            let first = first.get_or_insert_with(|| outcome.clone());
            if outcome.0.is_none() || outcome != *first {
                let shards = if outcome.0 == first.0 {
                    "identical"
                } else {
                    "differ"
                };
                divergence.get_or_insert(format!(
                    "{mode:?} run {} diverged from the first scratch run: shards {shards}, \
                     sites {} vs {}",
                    secs[i].len(),
                    outcome.1,
                    first.1
                ));
            }
            if mode == MeasureMode::Forked {
                forked = report;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);

    let runs = secs.each_ref().map(|s| s.len() as f64);
    let [scratch_secs, forked_secs] = secs.map(|mut s| median(&mut s));
    let cells = forked.forks as f64;
    let rec = |metric: &str, value: f64| BenchRecord::new(Stage::Measure, metric, value);
    let records = vec![
        rec("benchmarks", names.len() as f64),
        rec("jobs", 1.0),
        rec("cells", cells),
        rec("scratch.runs", runs[0]),
        rec("forked.runs", runs[1]),
        rec("forked.secs", forked_secs).vs(scratch_secs),
        rec("forked.cells_per_sec", cells / forked_secs).vs(cells / scratch_secs),
        rec("forked.snapshot_builds", forked.snapshot_builds as f64),
        rec(
            "forked.init_reuse_rate",
            forked.init_forks as f64 / cells.max(1.0),
        ),
        rec("forked.sim_insns", forked.sim_insns as f64),
        rec(
            "shards_identical",
            f64::from(u8::from(divergence.is_none())),
        ),
    ];
    Ok(StageRun {
        records,
        report: String::new(),
        checks: divergence.map_or(Ok(()), |d| Err(BenchError::Check(d))),
    })
}

/// The median of `xs` (the mean of the middle two when `xs.len()` is
/// even); NaN when `xs` is empty.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Arena LRU capacity of the daemon under test: small, so the stream's
/// distinct loop shapes force evictions.
const SERVE_ARENA_CACHE: usize = 32;
/// Loops per `Predict` request, one timed series each.
const SERVE_BATCHES: [usize; 4] = [1, 8, 32, 128];

/// The `serve` stage: a model trained on the tiny suite's measured loops,
/// served by `fegen serve --stdio` (spawned from the `fegen` binary) with
/// a [`SERVE_ARENA_CACHE`]-entry arena cache, `quick ? 24 : 80` requests
/// per batch size.
///
/// # Errors
///
/// [`BenchError::Run`] when staging fails or the daemon breaks the
/// protocol; errored requests, a cache that never evicted or overflowed its
/// cap, and an unclean daemon exit are reported in [`StageRun::checks`].
pub(crate) fn serve(quick: bool, fegen: &Path) -> Result<StageRun, BenchError> {
    let requests_per_size = if quick { 24 } else { 80 };
    let root = std::env::temp_dir().join(format!("fegen-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(setup("creating the staging dir"))?;
    let model_path = root.join("model.fgm");
    let tel_dir = root.join("telemetry");

    let mut config = ExperimentConfig::quick();
    config.suite = fegen_suite::SuiteConfig::tiny();
    let data = try_build_suite_data(&config).map_err(setup("measuring the tiny suite"))?;
    let examples = data.training_examples();
    let artifact = ModelArtifact::train(&config.search, &paper_features(), &examples)
        .map_err(setup("training the bench model"))?;
    artifact
        .save(&model_path)
        .map_err(setup("saving the bench model"))?;
    let wire_loops: Vec<WireNode> = examples.iter().map(|e| WireNode::from_ir(&e.ir)).collect();

    let mut child = std::process::Command::new(fegen)
        .args([
            "serve",
            "--stdio",
            "--arena-cache",
            &SERVE_ARENA_CACHE.to_string(),
        ])
        .arg("--model")
        .arg(&model_path)
        .arg("--telemetry-dir")
        .arg(&tel_dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(setup("spawning the serve daemon"))?;
    let (Some(child_in), Some(child_out)) = (child.stdin.take(), child.stdout.take()) else {
        return Err(BenchError::Run("the daemon's stdio is not piped".into()));
    };
    let mut wire = StreamTransport::new(child_out, child_in);
    let mut ask = |req: &ServeRequest| -> Result<ServeResponse, BenchError> {
        let payload = encode_request(req).map_err(setup("encoding a request"))?;
        wire.send(&payload)
            .map_err(setup("sending to the daemon"))?;
        let reply = wire.recv().map_err(setup("the daemon hung up"))?;
        decode_response(&reply).map_err(setup("bad daemon response"))
    };
    let unexpected =
        |want: &str, got: ServeResponse| BenchError::Run(format!("expected {want}, got {got:?}"));
    let reply = ask(&ServeRequest::Hello {
        protocol: SERVE_PROTOCOL,
    })?;
    if !matches!(reply, ServeResponse::HelloAck { .. }) {
        return Err(unexpected("HelloAck", reply));
    }

    // Each variant tags a loop with a distinct `bench-variant`, so digests
    // differ and the LRU must evict — the bounded-memory path, not just
    // the warm-hit path.
    let distinct = (2 * SERVE_ARENA_CACHE).max(wire_loops.len());
    let variant = |v: usize| -> WireNode {
        let mut node = wire_loops[v % wire_loops.len()].clone();
        let tag = WireAttr::Num((v / wire_loops.len()) as f64);
        node.attrs.push(("bench-variant".to_owned(), tag));
        node
    };
    let rec = |metric: String, value: f64| BenchRecord::new(Stage::Serve, metric, value);
    let mut records = Vec::new();
    let mut id = 0u64;
    for batch in SERVE_BATCHES {
        let mut latencies_us: Vec<u64> = Vec::with_capacity(requests_per_size);
        let started = Instant::now();
        for r in 0..requests_per_size {
            id += 1;
            let loops = (0..batch)
                .map(|i| variant((r * batch + i) % distinct))
                .collect();
            let t0 = Instant::now();
            match ask(&ServeRequest::Predict { id, loops })? {
                ServeResponse::Decisions { id: got, decisions }
                    if got == id
                        && decisions.len() == batch
                        && decisions.iter().all(|d| d.unroll < artifact.n_classes) => {}
                other => return Err(unexpected(&format!("{batch} decision(s) for #{id}"), other)),
            }
            latencies_us.push(t0.elapsed().as_micros() as u64);
        }
        let throughput = (requests_per_size * batch) as f64 / started.elapsed().as_secs_f64();
        latencies_us.sort_unstable();
        let n = latencies_us.len();
        let (p50, p99) = (latencies_us[n / 2], latencies_us[(n * 99 / 100).min(n - 1)]);
        records.push(rec(format!("batches.{batch}.p50_us"), p50 as f64));
        records.push(rec(format!("batches.{batch}.p99_us"), p99 as f64));
        records.push(rec(
            format!("batches.{batch}.throughput_loops_per_sec"),
            throughput,
        ));
    }

    let stats = match ask(&ServeRequest::Stats { id: id + 1 })? {
        ServeResponse::StatsReport { stats, .. } => stats,
        other => return Err(unexpected("StatsReport", other)),
    };
    let reply = ask(&ServeRequest::Shutdown)?;
    if reply != ServeResponse::Bye {
        return Err(unexpected("Bye", reply));
    }
    drop(wire);
    let status = child.wait().map_err(setup("waiting for the daemon"))?;
    let report = fegen_core::telemetry::report::summarize_dir(&tel_dir)
        .map_err(setup("reading the daemon's telemetry"))?;
    let _ = std::fs::remove_dir_all(&root);

    for (metric, value) in [
        ("requests", stats.requests),
        ("loops_evaluated", stats.loops_evaluated),
        ("errors", stats.errors),
        ("arena_cache_cap", SERVE_ARENA_CACHE as u64),
        ("arena_hits", stats.arena_hits),
        ("arena_misses", stats.arena_misses),
        ("arena_evictions", stats.arena_evictions),
        ("arena_entries", stats.arena_entries),
        ("queue_depth_peak", stats.queue_depth_peak),
    ] {
        records.push(rec(metric.to_owned(), value as f64));
    }
    let (errors, entries, cap) = (stats.errors, stats.arena_entries, SERVE_ARENA_CACHE);
    let checks = if errors != 0 {
        Err(format!("{errors} request(s) answered with errors"))
    } else if stats.arena_evictions == 0 {
        Err("arena LRU never evicted; its bound went untested".into())
    } else if entries > cap as u64 {
        Err(format!(
            "arena cache holds {entries} entries, over its {cap} cap"
        ))
    } else if !status.success() {
        Err(format!("daemon exited uncleanly: {status}"))
    } else {
        Ok(())
    }
    .map_err(BenchError::Check);
    Ok(StageRun {
        records,
        report,
        checks,
    })
}
