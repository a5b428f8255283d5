//! `fegen` — command-line front end for the whole toolchain.
//!
//! ```text
//! fegen parse   <file>                         check + pretty-print a Tiny-C program
//! fegen rtl     <file> [func]                  dump lowered RTL
//! fegen loops   <file>                         list loops with analysis facts
//! fegen unroll  <file> <func> <loop> <factor>  dump RTL after unrolling
//! fegen run     <file> <func> [int args...]    simulate a call, report cycles
//! fegen table   <file> <func> <loop> [n]       cycle table over factors 0..=15
//! fegen export  <file> <func> <loop>           dump a loop's feature-generator IR
//! fegen grammar <file>                         derive and print the feature grammar
//! fegen eval    <file> <func> <loop> <expr>    evaluate a feature expression
//! fegen suite   <index>                        print a generated benchmark's source
//! fegen search  <file> [flags]                 run the GP feature search on a program
//! fegen measure [flags]                        run the measurement campaign into a dataset
//! fegen report  <dir>                          summarize a telemetry event log
//! fegen bench   <eval|measure|serve> [flags]   measure a stage against its baseline
//! ```
//!
//! `fegen measure` flags:
//!
//! ```text
//! --dataset-dir <dir>      dataset directory (required)
//! --resume                 continue a partially measured (or corrupted) dataset
//! --jobs <n>               parallel measurement workers (default 1)
//! --retry <n>              attempts per site before quarantine (default 3)
//! --quarantine-after <n>   quarantine a benchmark after n quarantined sites (default 4)
//! --seed <n>               master seed (default from the quick preset)
//! --paper                  paper-scale suite instead of the quick preset
//! ```
//!
//! `fegen search` flags:
//!
//! ```text
//! --checkpoint-dir <dir>   write resumable snapshots into <dir>
//! --checkpoint-every <n>   snapshot every n GP generations (default 5)
//! --resume <path>          continue from a checkpoint file or directory
//! --seed <n>               master seed (default from the quick preset)
//! --paper                  paper-scale budgets instead of the quick preset
//! --islands <n>            island populations per GP run (default 1)
//! --migration-every <n>    rounds between elite migrations (default 5)
//! --island-restart-limit <n>  crashed step retries before an island is frozen (default 3)
//! --workers <n>            in-process worker threads stepping islands (results identical)
//! --workers-proc <n>       step islands in n worker *processes* instead (results identical)
//! ```
//!
//! Every search, single-population included, runs one supervised round loop
//! over its islands; `--workers` and `--workers-proc` only choose where the
//! steps run. `--workers-proc` steps them in separate `fegen island-worker`
//! processes over a digest-sealed frame protocol; a failed step is retried
//! from the island's last committed state on a respawned worker and, past
//! the restart limit, the island is frozen and merged — exactly as an
//! in-process crash is handled. Results and checkpoints stay byte-identical
//! to the in-process (`--workers`) path. `fegen island-worker` is the hidden
//! worker entry point — it speaks frames on stdin/stdout and is not meant to
//! be invoked by hand.
//!
//! `fegen search` and `fegen measure` also accept the telemetry flags:
//!
//! ```text
//! --telemetry-dir <dir>    append structured JSONL events to <dir>/events.jsonl
//! --log-json               mirror every event to stderr as one JSON line
//! --progress               human-readable progress lines on stderr
//! ```
//!
//! Telemetry is observational only: checkpoints, shards and search results
//! are byte-identical with and without it. `fegen report <dir>` renders the
//! accumulated event log (progress, ETA, slowest sites, cache hit rates).
//!
//! `fegen bench <stage>` flags:
//!
//! ```text
//! --out <path>             where to write the records (default BENCH_<stage>.json)
//! --quick                  smaller workload (CI smoke mode)
//! ```
//!
//! Every stage writes a JSON array of `{stage, metric, value, baseline,
//! floor}` records (`fegen_bench::record`). `eval` times compiled feature
//! evaluation against the interpreter, `measure` the fork-once campaign
//! against the scratch campaign, `serve` a real `fegen serve --stdio`
//! daemon. Correctness checks and floors are enforced after the file is
//! written, so a failing run still leaves its numbers behind.

use fegen::core::search::SearchDriver;
use fegen::core::{
    parse_feature, FeatureExpr, FeatureSearch, Grammar, SearchConfig, SearchError,
    SearchOutcome, TrainingExample,
};
use fegen::rtl::export::export_loop;
use fegen::rtl::heuristic::{gcc_default_factor, gcc_features, GccParams, GCC_FEATURE_NAMES};
use fegen::rtl::lower::lower_program;
use fegen::rtl::unroll::unroll_loop;
use fegen::rtl::RtlProgram;
use fegen::sim::{Arg, Machine, SimConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fegen: {e}");
            ExitCode::FAILURE
        }
    }
}

type Anyhow = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), Anyhow> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    match cmd.as_str() {
        "parse" => cmd_parse(arg(args, 1)?),
        "rtl" => cmd_rtl(arg(args, 1)?, args.get(2).map(String::as_str)),
        "loops" => cmd_loops(arg(args, 1)?),
        "unroll" => cmd_unroll(
            arg(args, 1)?,
            arg(args, 2)?,
            parse_num(arg(args, 3)?)?,
            parse_num(arg(args, 4)?)?,
        ),
        "run" => cmd_run(arg(args, 1)?, arg(args, 2)?, &args[3..]),
        "table" => cmd_table(
            arg(args, 1)?,
            arg(args, 2)?,
            parse_num(arg(args, 3)?)?,
            args.get(4).map(|s| parse_num(s)).transpose()?,
        ),
        "export" => cmd_export(arg(args, 1)?, arg(args, 2)?, parse_num(arg(args, 3)?)?),
        "grammar" => cmd_grammar(arg(args, 1)?),
        "eval" => cmd_eval(
            arg(args, 1)?,
            arg(args, 2)?,
            parse_num(arg(args, 3)?)?,
            arg(args, 4)?,
        ),
        "suite" => cmd_suite(parse_num(arg(args, 1)?)?),
        "search" => cmd_search(arg(args, 1)?, &args[2..]),
        "island-worker" => cmd_island_worker(),
        "measure" => cmd_measure(&args[1..]),
        "report" => cmd_report(arg(args, 1)?),
        "bench" => cmd_bench(&args[1..]),
        "train-model" => cmd_train_model(arg(args, 1)?, &args[2..]),
        "serve" => cmd_serve(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `fegen help`)").into()),
    }
}

fn print_usage() {
    println!("fegen — automatic feature generation for optimizing compilation");
    println!();
    println!("  fegen parse   <file>                         check + pretty-print");
    println!("  fegen rtl     <file> [func]                  dump lowered RTL");
    println!("  fegen loops   <file>                         list loops + analysis facts");
    println!("  fegen unroll  <file> <func> <loop> <factor>  dump unrolled RTL");
    println!("  fegen run     <file> <func> [int args...]    simulate a call");
    println!("  fegen table   <file> <func> <loop> [n]       cycle table, factors 0..=15");
    println!("  fegen export  <file> <func> <loop>           dump feature-generator IR");
    println!("  fegen grammar <file>                         derive the feature grammar");
    println!("  fegen eval    <file> <func> <loop> <expr>    evaluate a feature");
    println!("  fegen suite   <index>                        print benchmark #index source");
    println!("  fegen search  <file> [flags]                 run the GP feature search");
    println!("  fegen measure [flags]                        measurement campaign -> dataset");
    println!("  fegen report  <dir>                          summarize a telemetry event log");
    println!("  fegen train-model <file> [flags]             train + save a model artifact");
    println!("  fegen serve [flags]                          serve unroll decisions from a model");
    println!("  fegen bench   <eval|measure|serve> [flags]   measure a stage against its baseline");
    println!();
    println!("measure flags:");
    println!("  --dataset-dir <dir>      dataset directory (required)");
    println!("  --resume                 continue a partial or corrupted dataset");
    println!("  --jobs <n>               parallel measurement workers (default 1)");
    println!("  --retry <n>              attempts per site before quarantine (default 3)");
    println!("  --quarantine-after <n>   benchmark quarantine threshold (default 4)");
    println!("  --seed <n>               master seed");
    println!("  --paper                  paper-scale suite (default: quick preset)");
    println!();
    println!("search flags:");
    println!("  --checkpoint-dir <dir>   write resumable snapshots into <dir>");
    println!("  --checkpoint-every <n>   snapshot every n GP generations (default 5)");
    println!("  --resume <path>          continue from a checkpoint file or directory");
    println!("  --seed <n>               master seed");
    println!("  --paper                  paper-scale budgets (default: quick preset)");
    println!("  --islands <n>            island populations per GP run (default 1)");
    println!("  --migration-every <n>    rounds between elite migrations (default 5)");
    println!("  --island-restart-limit <n>  crashed retries before freezing an island (default 3)");
    println!("  --workers <n>            in-process worker threads (results identical for any n)");
    println!("  --workers-proc <n>       worker processes instead of threads (results identical)");
    println!();
    println!("train-model flags:");
    println!("  --out <path>             artifact path (default model.fgm)");
    println!("  --feature <expr>         feature to evaluate (repeatable; default: paper set)");
    println!("  --paper                  paper-scale evaluation budget");
    println!();
    println!("serve flags:");
    println!("  --model <path>           model artifact to serve (required)");
    println!("  --stdio                  speak frames on stdin/stdout (one client)");
    println!("  --socket <path>          listen on a Unix socket (many clients)");
    println!("  --arena-cache <n>        flattened-arena LRU capacity (default 1024)");
    println!("  --reload-every <n>       poll the artifact for hot-reload every n requests");
    println!();
    println!("bench flags:");
    println!("  --out <path>             JSON records path (default BENCH_<stage>.json)");
    println!("  --quick                  smaller workload (CI smoke mode)");
    println!();
    println!("telemetry flags (search + measure + serve):");
    println!("  --telemetry-dir <dir>    append JSONL events to <dir>/events.jsonl");
    println!("  --log-json               mirror every event to stderr as JSON");
    println!("  --progress               human-readable progress lines on stderr");
}

fn arg(args: &[String], i: usize) -> Result<&str, Anyhow> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument #{i} (try `fegen help`)").into())
}

fn parse_num(s: &str) -> Result<usize, Anyhow> {
    Ok(s.parse::<usize>()
        .map_err(|_| format!("`{s}` is not a number"))?)
}

fn load(path: &str) -> Result<(fegen::lang::Program, RtlProgram), Anyhow> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let ast = fegen::lang::parse_program(&source)?;
    let rtl = lower_program(&ast)?;
    Ok((ast, rtl))
}

fn find_func<'p>(rtl: &'p RtlProgram, name: &str) -> Result<&'p fegen::rtl::RtlFunction, Anyhow> {
    rtl.function(name)
        .ok_or_else(|| format!("no function `{name}`").into())
}

fn cmd_parse(path: &str) -> Result<(), Anyhow> {
    let (ast, _) = load(path)?;
    print!("{}", fegen::lang::print_program(&ast));
    Ok(())
}

fn cmd_rtl(path: &str, func: Option<&str>) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    for f in &rtl.functions {
        if func.is_none_or(|n| n == f.name) {
            print!("{}", f.dump());
        }
    }
    Ok(())
}

fn cmd_loops(path: &str) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    println!(
        "{:<24} {:>5} {:>6} {:>7} {:>7} {:>8} {:>8}",
        "loop", "depth", "simple", "trip", "ninsns", "branches", "gcc-dflt"
    );
    for f in &rtl.functions {
        for region in &f.loops {
            let feats = gcc_features(f, region);
            println!(
                "{:<24} {:>5} {:>6} {:>7} {:>7} {:>8} {:>8}",
                format!("{}#{}", f.name, region.id),
                region.depth,
                region.is_simple(),
                region
                    .trip_count()
                    .map_or("?".to_owned(), |t| t.to_string()),
                feats[0],
                feats[4],
                gcc_default_factor(f, region, &GccParams::default()),
            );
        }
    }
    Ok(())
}

fn cmd_unroll(path: &str, func: &str, loop_id: usize, factor: usize) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    let f = find_func(&rtl, func)?;
    let unrolled = unroll_loop(f, loop_id, factor)?;
    print!("{}", unrolled.dump());
    Ok(())
}

fn cmd_run(path: &str, func: &str, rest: &[String]) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    let _ = find_func(&rtl, func)?;
    let mut machine = Machine::new(&rtl, SimConfig::default());
    if rtl.function("init").is_some() && func != "init" {
        machine.call("init", &[])?;
    }
    let call_args: Vec<Arg> = rest
        .iter()
        .map(|s| -> Result<Arg, Anyhow> {
            if let Ok(v) = s.parse::<i64>() {
                Ok(Arg::Int(v))
            } else if let Ok(v) = s.parse::<f64>() {
                Ok(Arg::Float(v))
            } else {
                Ok(Arg::Array(s.clone()))
            }
        })
        .collect::<Result<_, _>>()?;
    let result = machine.call(func, &call_args)?;
    println!("result:      {result:?}");
    println!(
        "cycles:      {} (function), {} (total)",
        machine.cycles_of(func),
        machine.total_cycles()
    );
    println!("insns:       {}", machine.insns_executed());
    println!("dcache miss: {}", machine.dcache_misses());
    println!("icache miss: {}", machine.icache_misses());
    println!("mispredicts: {}", machine.mispredicts());
    Ok(())
}

fn cmd_table(path: &str, func: &str, loop_id: usize, n: Option<usize>) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    let f = find_func(&rtl, func)?;
    let call_args: Vec<Arg> = f
        .params
        .iter()
        .map(|_| Arg::Int(n.unwrap_or(200) as i64))
        .collect();
    let mut baseline = None;
    println!("{:>6} {:>12} {:>9}", "factor", "cycles", "speedup");
    for factor in 0..=15usize {
        let unrolled = unroll_loop(f, loop_id, factor)?;
        let mut program = rtl.clone();
        *program.function_mut(func).expect("checked") = unrolled;
        let mut machine = Machine::new(&program, SimConfig::default());
        if program.function("init").is_some() && func != "init" {
            machine.call("init", &[])?;
        }
        machine.call(func, &call_args)?;
        let cycles = machine.cycles_of(func);
        let base = *baseline.get_or_insert(cycles);
        println!(
            "{factor:>6} {cycles:>12} {:>9.4}",
            base as f64 / cycles as f64
        );
    }
    Ok(())
}

fn cmd_export(path: &str, func: &str, loop_id: usize) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    let f = find_func(&rtl, func)?;
    let region = f
        .loops
        .iter()
        .find(|l| l.id == loop_id)
        .ok_or_else(|| format!("no loop #{loop_id} in `{func}`"))?;
    print!("{}", export_loop(f, region, &rtl.layout).dump());
    Ok(())
}

fn exported_corpus(rtl: &RtlProgram) -> Vec<fegen::core::ir::IrNode> {
    let mut corpus = Vec::new();
    for f in &rtl.functions {
        for region in &f.loops {
            corpus.push(export_loop(f, region, &rtl.layout));
        }
    }
    corpus
}

fn cmd_grammar(path: &str) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    let corpus = exported_corpus(&rtl);
    if corpus.is_empty() {
        return Err("the program has no loops to derive a grammar from".into());
    }
    let g = Grammar::derive(corpus.iter());
    println!("derived from {} exported loops", corpus.len());
    let kinds: Vec<&str> = g.kinds().iter().map(|k| k.as_str()).collect();
    println!("node kinds ({}): {}", kinds.len(), kinds.join(" "));
    for a in g.num_attrs() {
        println!("num  @{:<16} in [{}, {}]", a.name.as_str(), a.min, a.max);
    }
    for a in g.bool_attrs() {
        println!("bool @{}", a.as_str());
    }
    for a in g.enum_attrs() {
        let vals: Vec<&str> = a.values.iter().map(|v| v.as_str()).collect();
        println!("enum @{:<16} in {{{}}}", a.name.as_str(), vals.join(", "));
    }
    Ok(())
}

fn cmd_eval(path: &str, func: &str, loop_id: usize, expr: &str) -> Result<(), Anyhow> {
    let (_, rtl) = load(path)?;
    let f = find_func(&rtl, func)?;
    let region = f
        .loops
        .iter()
        .find(|l| l.id == loop_id)
        .ok_or_else(|| format!("no loop #{loop_id} in `{func}`"))?;
    let ir = export_loop(f, region, &rtl.layout);
    let feature = parse_feature(expr)?;
    println!("{}", feature.eval_default(&ir)?);
    Ok(())
}

fn cmd_suite(index: usize) -> Result<(), Anyhow> {
    let config = fegen::suite::SuiteConfig::paper();
    let names = fegen::suite::benchmark_names();
    if index >= names.len() {
        return Err(format!("suite index out of range (0..{})", names.len()).into());
    }
    let (name, suite_name) = names[index];
    let b = fegen::suite::generate_benchmark(name, suite_name, index, &config);
    println!("// benchmark {} ({}), {} loops", b.name, b.suite, b.n_loops);
    print!("{}", fegen::lang::print_program(&b.program));
    Ok(())
}

/// Measures one loop's cycle table over unroll factors 0..=15 (the same
/// protocol as `fegen table`) and pairs it with the loop's exported IR.
fn loop_example(
    rtl: &RtlProgram,
    f: &fegen::rtl::RtlFunction,
    loop_id: usize,
) -> Result<TrainingExample, Anyhow> {
    let region = f
        .loops
        .iter()
        .find(|l| l.id == loop_id)
        .ok_or_else(|| format!("no loop #{loop_id} in `{}`", f.name))?;
    let call_args: Vec<Arg> = f.params.iter().map(|_| Arg::Int(200)).collect();
    let mut cycles = Vec::with_capacity(16);
    for factor in 0..=15usize {
        let unrolled = unroll_loop(f, loop_id, factor)?;
        let mut program = rtl.clone();
        let slot = program
            .function_mut(&f.name)
            .ok_or_else(|| format!("no function `{}`", f.name))?;
        *slot = unrolled;
        let mut machine = Machine::new(&program, SimConfig::default());
        if program.function("init").is_some() && f.name != "init" {
            machine.call("init", &[])?;
        }
        machine.call(&f.name, &call_args)?;
        cycles.push(machine.cycles_of(&f.name) as f64);
    }
    Ok(TrainingExample {
        ir: export_loop(f, region, &rtl.layout),
        cycles,
    })
}

/// Builds the training corpus for `fegen search`: every measurable loop of
/// the program. Loops that fail to unroll or simulate are skipped with a
/// notice instead of aborting the search.
fn training_examples_from(rtl: &RtlProgram) -> Vec<TrainingExample> {
    let mut examples = Vec::new();
    for f in &rtl.functions {
        if f.name == "init" {
            continue;
        }
        for region in &f.loops {
            match loop_example(rtl, f, region.id) {
                Ok(e) => examples.push(e),
                Err(e) => eprintln!("fegen: skipping {}#{}: {e}", f.name, region.id),
            }
        }
    }
    examples
}

/// Builds a telemetry handle from the shared `--telemetry-dir`,
/// `--log-json` and `--progress` flags (disabled when none are given).
fn build_telemetry(
    dir: Option<&str>,
    log_json: bool,
    progress: bool,
) -> Result<fegen::core::Telemetry, Anyhow> {
    fegen::core::TelemetryConfig {
        dir: dir.map(std::path::PathBuf::from),
        log_json,
        progress,
    }
    .build()
    .map_err(|e| format!("opening telemetry sink: {e}").into())
}

/// Hidden entry point for `--workers-proc`: runs the island-stepping loop
/// over stdin/stdout frames until the supervisor closes the connection. Any
/// protocol violation (malformed handshake, version skew, digest mismatch)
/// is a typed error on stderr and a nonzero exit — never a hang.
fn cmd_island_worker() -> Result<(), Anyhow> {
    fegen::core::run_stdio_worker().map_err(|e| format!("island-worker: {e}").into())
}

fn cmd_report(dir: &str) -> Result<(), Anyhow> {
    let summary = fegen::core::telemetry::report::summarize_dir(std::path::Path::new(dir))
        .map_err(|e| format!("reading telemetry from `{dir}`: {e}"))?;
    print!("{summary}");
    Ok(())
}

fn cmd_search(path: &str, flags: &[String]) -> Result<(), Anyhow> {
    let mut checkpoint_dir: Option<String> = None;
    let mut checkpoint_every = 5usize;
    let mut resume: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut paper = false;
    let mut telemetry_dir: Option<String> = None;
    let mut log_json = false;
    let mut progress = false;
    let mut islands: Option<usize> = None;
    let mut migration_every: Option<usize> = None;
    let mut island_restart_limit: Option<usize> = None;
    let mut workers = 1usize;
    let mut workers_proc: Option<usize> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, Anyhow> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match flag.as_str() {
            "--checkpoint-dir" => checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                checkpoint_every = parse_num(&value("--checkpoint-every")?)?.max(1)
            }
            "--resume" => resume = Some(value("--resume")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("`{v}` is not a number"))?,
                );
            }
            "--paper" => paper = true,
            "--islands" => islands = Some(parse_num(&value("--islands")?)?.max(1)),
            "--migration-every" => {
                migration_every = Some(parse_num(&value("--migration-every")?)?.max(1))
            }
            "--island-restart-limit" => {
                island_restart_limit = Some(parse_num(&value("--island-restart-limit")?)?)
            }
            "--workers" => workers = parse_num(&value("--workers")?)?.max(1),
            "--workers-proc" => workers_proc = Some(parse_num(&value("--workers-proc")?)?.max(1)),
            "--telemetry-dir" => telemetry_dir = Some(value("--telemetry-dir")?),
            "--log-json" => log_json = true,
            "--progress" => progress = true,
            other => return Err(format!("unknown search flag `{other}`").into()),
        }
    }

    let (_, rtl) = load(path)?;
    let examples = training_examples_from(&rtl);
    if examples.is_empty() {
        return Err("the program has no measurable loops to search over".into());
    }
    eprintln!("searching over {} loops", examples.len());

    let mut config = if paper {
        SearchConfig::paper()
    } else {
        SearchConfig::quick()
    };
    if let Some(s) = seed {
        config.seed = s;
    }
    // Topology flags enter the config (they define the trajectory and the
    // checkpoint identity); `--workers` stays a driver knob (any value
    // yields byte-identical results).
    if let Some(n) = islands {
        config.topology.islands = n;
    }
    if let Some(n) = migration_every {
        config.topology.migration_every = n;
    }
    if let Some(n) = island_restart_limit {
        config.topology.restart_limit = n;
    }
    let search = FeatureSearch::from_examples(&examples, config);
    let mut driver: SearchDriver = search.driver().workers(workers);
    if let Some(n) = workers_proc {
        // Re-invoke this very binary as the worker; the supervisor owns all
        // robustness policy, so the launcher is just argv over stdio.
        let exe = std::env::current_exe()
            .map_err(|e| format!("locating the fegen binary for worker spawn: {e}"))?;
        let launcher = fegen::core::WorkerLauncher::Command {
            argv: vec![exe.to_string_lossy().into_owned(), "island-worker".into()],
            channel: fegen::core::ChannelKind::Stdio,
        };
        driver = driver.process_workers(n, launcher);
    }
    if let Some(dir) = &checkpoint_dir {
        driver = driver.checkpoint(dir, checkpoint_every);
    }
    driver = driver.telemetry(build_telemetry(
        telemetry_dir.as_deref(),
        log_json,
        progress,
    )?);
    let result = match &resume {
        Some(p) => driver.resume(p, &examples),
        None => driver.run(&examples),
    };
    match result {
        Ok(outcome) => {
            print_outcome(&outcome);
            Ok(())
        }
        Err(SearchError::Interrupted {
            checkpoint,
            total_generations,
        }) => match checkpoint {
            Some(p) => Err(format!(
                "interrupted after {total_generations} generations; \
                     resume with `--resume {}`",
                p.display()
            )
            .into()),
            None => Err(format!(
                "interrupted after {total_generations} generations \
                     (run with --checkpoint-dir to make interruptions resumable)"
            )
            .into()),
        },
        Err(e) => Err(e.into()),
    }
}

fn cmd_measure(flags: &[String]) -> Result<(), Anyhow> {
    use fegen::bench::{
        campaign_fingerprint, run_campaign_with_telemetry, CampaignConfig, CampaignError,
        DatasetStore, ExperimentConfig,
    };
    let mut dataset_dir: Option<String> = None;
    let mut resume = false;
    let mut paper = false;
    let mut seed: Option<u64> = None;
    let mut campaign = CampaignConfig::default();
    let mut telemetry_dir: Option<String> = None;
    let mut log_json = false;
    let mut progress = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, Anyhow> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match flag.as_str() {
            "--dataset-dir" => dataset_dir = Some(value("--dataset-dir")?),
            "--resume" => resume = true,
            "--jobs" => campaign.jobs = parse_num(&value("--jobs")?)?.max(1),
            "--retry" => campaign.retry = parse_num(&value("--retry")?)?.max(1),
            "--quarantine-after" => {
                campaign.quarantine_after = parse_num(&value("--quarantine-after")?)?.max(1)
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("`{v}` is not a number"))?,
                );
            }
            "--paper" => paper = true,
            "--telemetry-dir" => telemetry_dir = Some(value("--telemetry-dir")?),
            "--log-json" => log_json = true,
            "--progress" => progress = true,
            other => return Err(format!("unknown measure flag `{other}`").into()),
        }
    }
    let dir = dataset_dir.ok_or("fegen measure needs --dataset-dir <dir>")?;
    let telemetry = build_telemetry(telemetry_dir.as_deref(), log_json, progress)?;
    let mut config = if paper {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::quick()
    };
    if let Some(s) = seed {
        config.seed = s;
    }
    let fingerprint = campaign_fingerprint(&config, &campaign.sampling);
    let store = DatasetStore::open(std::path::Path::new(&dir), fingerprint)?
        .with_telemetry(telemetry.clone());
    if store.has_shards() && !resume {
        return Err(Box::new(CampaignError::DatasetExists {
            dir: store.dir().to_path_buf(),
        }));
    }
    eprintln!(
        "measuring {} benchmark(s) into {dir} (fingerprint {fingerprint:#x}, {} job(s))",
        config.suite.n_benchmarks, campaign.jobs
    );
    let cancel = fegen::core::CancelToken::new();
    let report =
        run_campaign_with_telemetry(&config, &campaign, &store, None, &cancel, &telemetry)?;
    print!("{}", fegen::bench::report::campaign_summary(&report));
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), Anyhow> {
    use fegen::bench::record::{run, Stage};
    let stage = args
        .first()
        .and_then(|s| Stage::parse(s))
        .ok_or("fegen bench needs a stage: eval | measure | serve")?;
    let mut out = format!("BENCH_{}.json", stage.name());
    let mut quick = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next().cloned().ok_or("--out needs a value")?,
            "--quick" => quick = true,
            other => return Err(format!("unknown bench flag `{other}`").into()),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the fegen binary: {e}"))?;
    let out = std::path::Path::new(&out);
    run(stage, quick, out, &exe, &mut std::io::stdout())?;
    Ok(())
}

fn print_outcome(outcome: &SearchOutcome) {
    println!(
        "baseline speedup {:.4}, oracle ceiling {:.4}, {} generations",
        outcome.baseline_speedup, outcome.oracle_speedup, outcome.total_generations
    );
    if outcome.features.is_empty() {
        println!("no feature improved on the baseline");
        return;
    }
    println!("{:>4} {:>9} {:>6}  feature", "#", "speedup", "gens");
    for (i, step) in outcome.steps.iter().enumerate() {
        println!(
            "{:>4} {:>9.4} {:>6}  {}",
            i + 1,
            step.speedup,
            step.generations,
            step.feature
        );
    }
}

fn cmd_train_model(path: &str, flags: &[String]) -> Result<(), Anyhow> {
    use fegen::core::serve::ModelArtifact;
    let mut out = "model.fgm".to_owned();
    let mut paper = false;
    let mut feature_texts: Vec<String> = Vec::new();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next().cloned().ok_or("--out needs a value")?,
            "--feature" => {
                feature_texts.push(it.next().cloned().ok_or("--feature needs a value")?);
            }
            "--paper" => paper = true,
            other => return Err(format!("unknown train-model flag `{other}`").into()),
        }
    }
    let (_, rtl) = load(path)?;
    let examples = training_examples_from(&rtl);
    if examples.is_empty() {
        return Err("no measurable loops to train on".into());
    }
    let features: Vec<FeatureExpr> = if feature_texts.is_empty() {
        fegen::bench::stages::paper_features()
    } else {
        feature_texts
            .iter()
            .map(|s| parse_feature(s).map_err(|e| format!("parsing `{s}`: {e}")))
            .collect::<Result<_, _>>()?
    };
    let config = if paper {
        SearchConfig::paper()
    } else {
        SearchConfig::quick()
    };
    let artifact = ModelArtifact::train(&config, &features, &examples)
        .map_err(|e| format!("training model: {e}"))?;
    artifact
        .save(std::path::Path::new(&out))
        .map_err(|e| format!("saving model: {e}"))?;
    let digest = artifact
        .digest()
        .map_err(|e| format!("hashing model: {e}"))?;
    println!(
        "model written to {out}: {} feature(s), {} class(es), {} example(s), digest {:#018x}",
        features.len(),
        artifact.n_classes,
        examples.len(),
        digest,
    );
    Ok(())
}

fn cmd_serve(flags: &[String]) -> Result<(), Anyhow> {
    use fegen::core::serve::{ServeEngine, ServeOptions};
    let mut model: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut stdio = false;
    let mut opts = ServeOptions::default();
    let mut telemetry_dir: Option<String> = None;
    let mut log_json = false;
    let mut progress = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--model" => model = Some(it.next().cloned().ok_or("--model needs a value")?),
            "--stdio" => stdio = true,
            "--socket" => socket = Some(it.next().cloned().ok_or("--socket needs a value")?),
            "--arena-cache" => {
                opts.arena_cache_cap = parse_num(it.next().ok_or("--arena-cache needs a value")?)?;
            }
            "--reload-every" => {
                opts.reload_check_every =
                    parse_num(it.next().ok_or("--reload-every needs a value")?)? as u64;
            }
            "--telemetry-dir" => {
                telemetry_dir = Some(it.next().cloned().ok_or("--telemetry-dir needs a value")?);
            }
            "--log-json" => log_json = true,
            "--progress" => progress = true,
            other => return Err(format!("unknown serve flag `{other}`").into()),
        }
    }
    let model = model.ok_or("serve needs --model <path>")?;
    if stdio == socket.is_some() {
        return Err("serve needs exactly one of --stdio or --socket <path>".into());
    }
    let telemetry = build_telemetry(telemetry_dir.as_deref(), log_json, progress)?;
    let engine = ServeEngine::new(std::path::PathBuf::from(&model), opts, telemetry)
        .map_err(|e| format!("loading model `{model}`: {e}"))?;
    if stdio {
        // stdout is the wire in this mode; nothing else may print to it.
        fegen::core::serve::run_stdio_serve(&engine).map_err(|e| format!("serve: {e}").into())
    } else {
        #[cfg(unix)]
        {
            let path = socket.expect("checked above");
            fegen::core::serve::run_unix_serve(
                std::sync::Arc::new(engine),
                std::path::Path::new(&path),
            )
            .map_err(|e| format!("serve: {e}").into())
        }
        #[cfg(not(unix))]
        Err("--socket requires a Unix platform; use --stdio".into())
    }
}

// Silence "unused" for names referenced only in help text.
#[allow(dead_code)]
const _: [&str; 6] = GCC_FEATURE_NAMES;
