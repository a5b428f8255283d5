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
//! fegen bench-perf [flags]                     measure eval-engine throughput
//! fegen bench-measure [flags]                  time fork-once vs scratch campaigns
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
//! --engine <name>          feature evaluation engine: compiled (default) | interp
//! --islands <n>            island populations per GP run (default 1)
//! --migration-every <n>    rounds between elite migrations (default 5)
//! --island-restart-limit <n>  crashed step retries before an island is frozen (default 3)
//! --workers <n>            in-process worker threads stepping islands (results identical)
//! --workers-proc <n>       step islands in n worker *processes* instead (results identical)
//! --worker-channel <name>  process-worker channel: stdio (default) | unix-socket
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
//! `fegen bench-perf` flags:
//!
//! ```text
//! --out <path>             where to write the JSON report (default BENCH_eval.json)
//! --quick                  shorter measurement windows (CI smoke mode)
//! ```
//!
//! `fegen bench-measure` flags:
//!
//! ```text
//! --out <path>             where to write the JSON report (default BENCH_measure.json)
//! --quick                  tiny suite + reduced sampling (CI smoke mode)
//! --jobs <n>               parallel workers for both campaigns (default 1)
//! ```
//!
//! `bench-measure` runs the same measurement campaign twice — once
//! recompiling every (site, factor) cell from scratch, once forking each
//! cell off a per-benchmark snapshot — verifies the shards are
//! byte-identical, and reports the wall-clock ratio. It fails below a 2x
//! forked-over-scratch floor, after writing the report.

use fegen::core::ir::IrArena;
use fegen::core::search::SearchDriver;
use fegen::core::{
    parse_feature, EvalEngine, EvalPool, FeatureExpr, FeatureSearch, Grammar, Program, ProgramPath,
    SearchConfig, SearchError, SearchOutcome, TrainingExample,
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
        "bench-perf" => cmd_bench_perf(&args[1..]),
        "bench-measure" => cmd_bench_measure(&args[1..]),
        "train-model" => cmd_train_model(arg(args, 1)?, &args[2..]),
        "serve" => cmd_serve(&args[1..]),
        "bench-serve" => cmd_bench_serve(&args[1..]),
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
    println!("  fegen bench-perf [flags]                     measure eval-engine throughput");
    println!("  fegen bench-measure [flags]                  time fork-once vs scratch campaigns");
    println!("  fegen train-model <file> [flags]             train + save a model artifact");
    println!("  fegen serve [flags]                          serve unroll decisions from a model");
    println!("  fegen bench-serve [flags]                    measure serve latency/throughput");
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
    println!("  --engine <name>          evaluation engine: compiled (default) | interp");
    println!("  --islands <n>            island populations per GP run (default 1)");
    println!("  --migration-every <n>    rounds between elite migrations (default 5)");
    println!("  --island-restart-limit <n>  crashed retries before freezing an island (default 3)");
    println!("  --workers <n>            in-process worker threads (results identical for any n)");
    println!("  --workers-proc <n>       worker processes instead of threads (results identical)");
    println!("  --worker-channel <name>  process-worker channel: stdio (default) | unix-socket");
    println!();
    println!("bench-perf flags:");
    println!("  --out <path>             JSON report path (default BENCH_eval.json)");
    println!("  --quick                  shorter measurement windows (CI smoke mode)");
    println!();
    println!("bench-measure flags:");
    println!("  --out <path>             JSON report path (default BENCH_measure.json)");
    println!("  --quick                  tiny suite + reduced sampling (CI smoke mode)");
    println!("  --jobs <n>               parallel workers for both campaigns (default 1)");
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
    println!("bench-serve flags:");
    println!("  --out <path>             JSON report path (default BENCH_serve.json)");
    println!("  --quick                  fewer requests per batch size (CI smoke mode)");
    println!("  --arena-cache <n>        daemon arena LRU capacity (default 32, to observe eviction)");
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
    let mut engine = EvalEngine::default();
    let mut telemetry_dir: Option<String> = None;
    let mut log_json = false;
    let mut progress = false;
    let mut islands: Option<usize> = None;
    let mut migration_every: Option<usize> = None;
    let mut island_restart_limit: Option<usize> = None;
    let mut workers = 1usize;
    let mut workers_proc: Option<usize> = None;
    let mut worker_channel = fegen::core::ChannelKind::Stdio;
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
            "--worker-channel" => {
                worker_channel = match value("--worker-channel")?.as_str() {
                    "stdio" => fegen::core::ChannelKind::Stdio,
                    "unix" | "unix-socket" => fegen::core::ChannelKind::UnixSocket,
                    other => {
                        return Err(format!(
                            "unknown worker channel `{other}` (expected `stdio` or `unix-socket`)"
                        )
                        .into())
                    }
                };
            }
            "--telemetry-dir" => telemetry_dir = Some(value("--telemetry-dir")?),
            "--log-json" => log_json = true,
            "--progress" => progress = true,
            "--engine" => {
                engine = match value("--engine")?.as_str() {
                    "compiled" | "vm" => EvalEngine::Compiled,
                    "interp" | "interpreter" => EvalEngine::Interpreter,
                    other => {
                        return Err(format!(
                            "unknown engine `{other}` (expected `compiled` or `interp`)"
                        )
                        .into())
                    }
                };
            }
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
    let search = FeatureSearch::from_examples(&examples, config).with_engine(engine);
    let mut driver: SearchDriver = search.driver().workers(workers);
    if let Some(n) = workers_proc {
        // Re-invoke this very binary as the worker; the supervisor owns all
        // robustness policy, so the launcher is just argv + channel.
        let exe = std::env::current_exe()
            .map_err(|e| format!("locating the fegen binary for worker spawn: {e}"))?;
        let launcher = fegen::core::WorkerLauncher::Command {
            argv: vec![exe.to_string_lossy().into_owned(), "island-worker".into()],
            channel: worker_channel,
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

/// The evaluation step budget used for throughput measurement (the quick
/// preset's per-example budget).
const BENCH_BUDGET: u64 = 60_000;

/// Times repeated executions of `pass` for roughly `window`, returning
/// (passes, elapsed seconds). Each pass is one sweep of every feature over
/// every loop.
fn measure(window: std::time::Duration, mut pass: impl FnMut() -> f64) -> (u64, f64) {
    // One warm-up pass keeps lazy setup (interning, page faults) out of the
    // timed region.
    std::hint::black_box(pass());
    let start = std::time::Instant::now();
    let mut passes = 0u64;
    while start.elapsed() < window {
        std::hint::black_box(pass());
        passes += 1;
    }
    (passes.max(1), start.elapsed().as_secs_f64())
}

fn cmd_bench_perf(flags: &[String]) -> Result<(), Anyhow> {
    let mut out = "BENCH_eval.json".to_owned();
    let mut quick = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => {
                out = it.next().cloned().ok_or("--out needs a value")?;
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown bench-perf flag `{other}`").into()),
        }
    }
    let window = std::time::Duration::from_millis(if quick { 120 } else { 600 });

    // The workload: every loop of the generated benchmark suite, swept by a
    // mix of hand-picked search-typical features and grammar-generated ones
    // (the actual shape of a GP population).
    let suite = fegen::suite::generate_suite(&fegen::suite::SuiteConfig::tiny());
    let mut loops = Vec::new();
    for b in &suite {
        let rtl = lower_program(&b.program)?;
        for f in &rtl.functions {
            for region in &f.loops {
                loops.push(export_loop(f, region, &rtl.layout));
            }
        }
    }
    if loops.is_empty() {
        return Err("the benchmark suite produced no loops".into());
    }
    let grammar = Grammar::derive(loops.iter());
    /// Number of hand-picked paper-shaped features at the front of the set.
    const PAPER_FEATURES: usize = 5;
    let mut features: Vec<FeatureExpr> = [
        "count(//*)",
        "count(filter(//*, is-type(reg)))",
        "count(filter(//*, !(is-type(wide-int) || is-type(const_double))))",
        "max(filter(/*, is-type(basic-block)), count(filter(//*, is-type(insn))))",
        "count(filter(//*, is-type(insn))) / (1 + count(filter(//*, is-type(basic-block))))",
    ]
    .iter()
    .map(|s| parse_feature(s))
    .collect::<Result<_, _>>()?;
    use rand::SeedableRng;
    /// Grammar depths of the generated mix; each contributes
    /// `GEN_PER_DEPTH` features after the paper-shaped group.
    const GEN_DEPTHS: [usize; 3] = [3, 4, 5];
    /// Generated features per depth bucket.
    const GEN_PER_DEPTH: usize = 8;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe7c);
    for depth in GEN_DEPTHS {
        for _ in 0..GEN_PER_DEPTH {
            features.push(grammar.gen_feature(&mut rng, depth));
        }
    }
    // Programs compiled and loops flattened once, exactly as the search
    // amortises them; cold-VM sweeps run without the pool.
    let arenas: Vec<IrArena> = loops.iter().map(IrArena::from_tree).collect();
    let programs: Vec<Program> = features.iter().map(Program::compile).collect();

    // Sanity before timing: the engines must agree on every outcome.
    for (f, p) in features.iter().zip(&programs) {
        for (ir, arena) in loops.iter().zip(&arenas) {
            let a = f.eval_with_budget(ir, BENCH_BUDGET);
            let b = p.eval(arena, BENCH_BUDGET);
            if a != b {
                return Err(format!("engines disagree on `{f}`: {a:?} vs {b:?}").into());
            }
        }
    }

    // Two cold-VM groups: the paper-shaped features (counts over filtered
    // traversals, the shapes the GP converges to — Figure 16) and the
    // grammar-generated mix (a random population slice, including deep
    // nested aggregates no indexed count or leaf level covers).
    let mut group_stats = Vec::new();
    for (name, range) in [
        ("paper_features", 0..PAPER_FEATURES),
        ("generated_features", PAPER_FEATURES..features.len()),
    ] {
        let fs = &features[range.clone()];
        let ps = &programs[range];
        let per_pass = (fs.len() * loops.len()) as f64;
        let (ip, is) = measure(window, || {
            let mut acc = 0.0;
            for f in fs {
                for ir in &loops {
                    acc += f.eval_with_budget(ir, BENCH_BUDGET).unwrap_or(0.0);
                }
            }
            acc
        });
        let interp_eps = ip as f64 * per_pass / is;
        let (vp, vs) = measure(window, || {
            let mut acc = 0.0;
            for p in ps {
                for arena in &arenas {
                    acc += p.eval(arena, BENCH_BUDGET).unwrap_or(0.0);
                }
            }
            acc
        });
        let vm_eps = vp as f64 * per_pass / vs;
        group_stats.push((name, fs.len(), interp_eps, vm_eps, vm_eps / interp_eps));
    }

    // Per-depth breakdown of the generated mix: which grammar depths the
    // loop-nest planner actually accelerates.
    let mut depth_stats = Vec::new();
    for (bucket, depth) in GEN_DEPTHS.iter().enumerate() {
        let lo = PAPER_FEATURES + bucket * GEN_PER_DEPTH;
        let range = lo..lo + GEN_PER_DEPTH;
        let fs = &features[range.clone()];
        let ps = &programs[range];
        let per_pass = (fs.len() * loops.len()) as f64;
        let (ip, is) = measure(window, || {
            let mut acc = 0.0;
            for f in fs {
                for ir in &loops {
                    acc += f.eval_with_budget(ir, BENCH_BUDGET).unwrap_or(0.0);
                }
            }
            acc
        });
        let interp_eps = ip as f64 * per_pass / is;
        let (vp, vs) = measure(window, || {
            let mut acc = 0.0;
            for p in ps {
                for arena in &arenas {
                    acc += p.eval(arena, BENCH_BUDGET).unwrap_or(0.0);
                }
            }
            acc
        });
        let vm_eps = vp as f64 * per_pass / vs;
        depth_stats.push((*depth, vm_eps / interp_eps));
    }
    let gen_paths: Vec<ProgramPath> = programs[PAPER_FEATURES..]
        .iter()
        .map(Program::path)
        .collect();
    let count_path = |p: ProgramPath| gen_paths.iter().filter(|&&q| q == p).count();
    let (n_fast, n_plan) = (
        count_path(ProgramPath::Fast),
        count_path(ProgramPath::LoopNest),
    );

    // The pool as the search drives it: warm program cache, all features
    // by column; its baseline is the interpreter over the same full sweep.
    let per_pass = (features.len() * loops.len()) as f64;
    let (ip, is) = measure(window, || {
        let mut acc = 0.0;
        for f in &features {
            for ir in &loops {
                acc += f.eval_with_budget(ir, BENCH_BUDGET).unwrap_or(0.0);
            }
        }
        acc
    });
    let interp_all_eps = ip as f64 * per_pass / is;
    let pool = EvalPool::new(loops.iter(), EvalEngine::Compiled);
    let (pp, ps) = measure(window, || {
        let mut acc = 0.0;
        for f in &features {
            for (i, v) in pool
                .column(f, BENCH_BUDGET)
                .unwrap_or_default()
                .into_iter()
                .enumerate()
            {
                acc += v + i as f64;
            }
        }
        acc
    });
    let pool_eps = pp as f64 * per_pass / ps;
    let pool_speedup = pool_eps / interp_all_eps;

    let mut json = format!(
        "{{\n  \"loops\": {},\n  \"budget\": {BENCH_BUDGET},\n  \"window_ms\": {},\n",
        loops.len(),
        window.as_millis(),
    );
    for (name, n, interp_eps, vm_eps, speedup) in &group_stats {
        json.push_str(&format!(
            "  \"{name}\": {{\n    \"features\": {n},\n    \
             \"interp_evals_per_sec\": {interp_eps:.1},\n    \
             \"vm_evals_per_sec\": {vm_eps:.1},\n    \"vm_speedup\": {speedup:.2}\n  }},\n",
        ));
    }
    json.push_str("  \"generated_breakdown\": {\n    \"by_depth\": {\n");
    for (i, (depth, speedup)) in depth_stats.iter().enumerate() {
        let comma = if i + 1 < depth_stats.len() { "," } else { "" };
        json.push_str(&format!(
            "      \"{depth}\": {{ \"features\": {GEN_PER_DEPTH}, \"vm_speedup\": {speedup:.2} }}{comma}\n"
        ));
    }
    json.push_str(&format!(
        "    }},\n    \"paths\": {{ \"fast\": {n_fast}, \"loop_nest\": {n_plan} }}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"pool_warm\": {{\n    \"features\": {},\n    \
         \"interp_evals_per_sec\": {interp_all_eps:.1},\n    \
         \"evals_per_sec\": {pool_eps:.1},\n    \"speedup\": {pool_speedup:.2}\n  }}\n}}\n",
        features.len(),
    ));
    std::fs::write(&out, &json).map_err(|e| format!("writing `{out}`: {e}"))?;
    println!("{} loops, budget {BENCH_BUDGET}", loops.len());
    for (name, n, interp_eps, vm_eps, speedup) in &group_stats {
        println!(
            "{name:>20} ({n:>2}): interp {interp_eps:>10.0} ev/s, vm {vm_eps:>10.0} ev/s ({speedup:.1}x)"
        );
    }
    for (depth, speedup) in &depth_stats {
        println!(
            "{:>20} ({GEN_PER_DEPTH:>2}): vm {speedup:.1}x",
            format!("depth {depth}")
        );
    }
    println!(
        "{:>20}     : {n_fast} fast / {n_plan} loop-nest",
        "generated paths",
    );
    println!(
        "{:>20} ({:>2}): interp {interp_all_eps:>10.0} ev/s, pool {pool_eps:>10.0} ev/s ({pool_speedup:.1}x)",
        "pool_warm",
        features.len(),
    );
    println!("report written to {out}");

    // Coarse regression guards (CI smoke), checked after the report is on
    // disk so a failure still leaves the numbers behind for diagnosis. The
    // compiled engine must at least hold parity with the interpreter on the
    // paper-shaped group — the measured margin is ~7x, so tripping this
    // means a fast path broke, not that the runner was noisy. The generated
    // mix must clear a conservative floor well under the measured speedup,
    // so the loop-nest planner gap cannot silently reopen.
    let (name, _, interp_eps, vm_eps, _) = group_stats[0];
    if vm_eps < interp_eps {
        return Err(format!(
            "perf regression: {name} vm {vm_eps:.0} ev/s < interp {interp_eps:.0} ev/s"
        )
        .into());
    }
    /// Minimum acceptable generated-mix speedup.
    const GENERATED_SPEEDUP_FLOOR: f64 = 2.5;
    let (name, _, _, _, gen_speedup) = group_stats[1];
    if gen_speedup < GENERATED_SPEEDUP_FLOOR {
        return Err(format!(
            "perf regression: {name} speedup {gen_speedup:.2}x below the \
             {GENERATED_SPEEDUP_FLOOR:.1}x floor"
        )
        .into());
    }
    Ok(())
}

fn cmd_bench_measure(flags: &[String]) -> Result<(), Anyhow> {
    use fegen::bench::{
        campaign_fingerprint, run_campaign, CampaignConfig, CampaignReport, DatasetStore,
        ExperimentConfig, MeasureMode, SamplingPolicy,
    };
    let mut out = "BENCH_measure.json".to_owned();
    let mut quick = false;
    let mut jobs = 1usize;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => {
                out = it.next().cloned().ok_or("--out needs a value")?;
            }
            "--quick" => quick = true,
            "--jobs" => {
                jobs = parse_num(it.next().ok_or("--jobs needs a value")?)?.max(1);
            }
            other => return Err(format!("unknown bench-measure flag `{other}`").into()),
        }
    }

    let mut config = ExperimentConfig::quick();
    let mut sampling = SamplingPolicy::default();
    if quick {
        // CI smoke mode: the 3-benchmark suite with the resilience tests'
        // reduced sampling — the protocol is unchanged, only the scale.
        config.suite = fegen::suite::SuiteConfig::tiny();
        sampling.base_runs = 8;
        sampling.max_runs = 16;
        sampling.target_log_iqr = 0.1;
    }
    let fingerprint = campaign_fingerprint(&config, &sampling);
    let base = std::env::temp_dir().join(format!("fegen-bench-measure-{}", std::process::id()));

    // Both campaigns share one fingerprint (MeasureMode is execution
    // policy, not dataset identity) and run with identical settings; only
    // how each cell's ground truth is obtained differs.
    let run_mode = |mode: MeasureMode, tag: &str| -> Result<(CampaignReport, f64, DatasetStore), Anyhow> {
        let dir = base.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let store = DatasetStore::open(&dir, fingerprint)?;
        let campaign = CampaignConfig {
            jobs,
            sampling: sampling.clone(),
            measure: mode,
            ..CampaignConfig::default()
        };
        let start = std::time::Instant::now();
        let report = run_campaign(&config, &campaign, &store, None, &fegen::core::CancelToken::new())?;
        Ok((report, start.elapsed().as_secs_f64(), store))
    };
    eprintln!(
        "bench-measure: {} benchmark(s), {jobs} job(s); scratch campaign...",
        config.suite.n_benchmarks
    );
    let (scratch_report, scratch_secs, scratch_store) = run_mode(MeasureMode::Scratch, "scratch")?;
    eprintln!("scratch done in {scratch_secs:.2}s; forked campaign...");
    let (forked_report, forked_secs, forked_store) = run_mode(MeasureMode::Forked, "forked")?;
    eprintln!("forked done in {forked_secs:.2}s");

    let names: Vec<String> = fegen::suite::generate_suite(&config.suite)
        .iter()
        .map(|b| b.name.clone())
        .collect();
    let identical = names.iter().all(|n| {
        let a = std::fs::read(scratch_store.shard_path(n)).ok();
        let b = std::fs::read(forked_store.shard_path(n)).ok();
        a.is_some() && a == b
    });
    let _ = std::fs::remove_dir_all(&base);

    let cells = forked_report.forks;
    let speedup = scratch_secs / forked_secs.max(1e-9);
    let init_reuse = if forked_report.forks > 0 {
        forked_report.init_forks as f64 / forked_report.forks as f64
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"benchmarks\": {},\n  \"jobs\": {jobs},\n  \"cells\": {cells},\n  \
         \"scratch\": {{ \"secs\": {scratch_secs:.3}, \"cells_per_sec\": {:.1} }},\n  \
         \"forked\": {{ \"secs\": {forked_secs:.3}, \"cells_per_sec\": {:.1}, \
         \"snapshot_builds\": {}, \"forks\": {}, \"init_forks\": {}, \
         \"init_reuse_rate\": {init_reuse:.3}, \"sim_insns\": {} }},\n  \
         \"speedup\": {speedup:.2},\n  \"shards_identical\": {identical}\n}}\n",
        names.len(),
        cells as f64 / scratch_secs.max(1e-9),
        cells as f64 / forked_secs.max(1e-9),
        forked_report.snapshot_builds,
        forked_report.forks,
        forked_report.init_forks,
        forked_report.sim_insns,
    );
    std::fs::write(&out, &json).map_err(|e| format!("writing `{out}`: {e}"))?;
    println!(
        "{} benchmark(s), {cells} cell(s): scratch {scratch_secs:.2}s, forked {forked_secs:.2}s \
         ({speedup:.2}x), init-state reuse {:.1}%, shards identical: {identical}",
        names.len(),
        init_reuse * 100.0
    );
    println!("report written to {out}");

    // Guards run after the report is on disk so a failure still leaves the
    // numbers behind for diagnosis. Bit-identity is non-negotiable; the 2x
    // wall-clock floor is conservative against the ~15x measured margin.
    if !identical {
        return Err("fork-once shards diverged from the scratch campaign's".into());
    }
    if scratch_report.sites_measured != forked_report.sites_measured {
        return Err(format!(
            "site counts diverged: scratch {} vs forked {}",
            scratch_report.sites_measured, forked_report.sites_measured
        )
        .into());
    }
    /// Minimum acceptable forked-over-scratch wall-clock ratio.
    const FORK_SPEEDUP_FLOOR: f64 = 2.0;
    if speedup < FORK_SPEEDUP_FLOOR {
        return Err(format!(
            "perf regression: fork-once speedup {speedup:.2}x below the \
             {FORK_SPEEDUP_FLOOR:.1}x floor"
        )
        .into());
    }
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

/// The paper-shaped deployment feature set: the structural count/filter
/// shapes the GP search converges to (Figure 16). `train-model` and
/// `bench-serve` use it as the default model basis.
const PAPER_FEATURE_SET: [&str; 5] = [
    "count(//*)",
    "count(filter(//*, is-type(reg)))",
    "count(filter(//*, !(is-type(wide-int) || is-type(const_double))))",
    "max(filter(/*, is-type(basic-block)), count(filter(//*, is-type(insn))))",
    "count(filter(//*, is-type(insn))) / (1 + count(filter(//*, is-type(basic-block))))",
];

fn paper_features() -> Result<Vec<FeatureExpr>, Anyhow> {
    PAPER_FEATURE_SET
        .iter()
        .map(|s| parse_feature(s).map_err(|e| format!("parsing `{s}`: {e}").into()))
        .collect()
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
        paper_features()?
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

fn cmd_bench_serve(flags: &[String]) -> Result<(), Anyhow> {
    use fegen::core::serve::{
        decode_response, encode_request, Decision, ModelArtifact, ServeRequest, ServeResponse,
        WireAttr, WireNode, SERVE_PROTOCOL,
    };
    use fegen::core::{gp::transport::StreamTransport, FrameTransport};
    use std::io::Write as _;
    use std::time::Instant;

    let mut out = "BENCH_serve.json".to_owned();
    let mut quick = false;
    let mut arena_cache = 32usize;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next().cloned().ok_or("--out needs a value")?,
            "--quick" => quick = true,
            "--arena-cache" => {
                arena_cache = parse_num(it.next().ok_or("--arena-cache needs a value")?)?;
            }
            other => return Err(format!("unknown bench-serve flag `{other}`").into()),
        }
    }
    let batch_sizes: &[usize] = if quick { &[1, 8, 32] } else { &[1, 8, 32, 128] };
    let requests_per_size = if quick { 24 } else { 80 };

    // Stage a model + telemetry dir under a private temp root.
    let root = std::env::temp_dir().join(format!("fegen-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("creating `{}`: {e}", root.display()))?;
    let model_path = root.join("model.fgm");
    let tel_dir = root.join("telemetry");

    // Train a small real model over the generated suite: enough loops to
    // be a workload, quick budgets so staging stays in CI bounds.
    let suite = fegen::suite::generate_suite(&fegen::suite::SuiteConfig::tiny());
    let mut examples = Vec::new();
    let mut wire_loops: Vec<WireNode> = Vec::new();
    for b in &suite {
        let rtl = lower_program(&b.program)?;
        for f in &rtl.functions {
            for region in &f.loops {
                wire_loops.push(WireNode::from_ir(&export_loop(f, region, &rtl.layout)));
            }
        }
        if examples.len() < 8 {
            examples.extend(training_examples_from(&rtl));
        }
    }
    if wire_loops.is_empty() {
        return Err("the benchmark suite produced no loops".into());
    }
    let artifact = ModelArtifact::train(&SearchConfig::quick(), &paper_features()?, &examples)
        .map_err(|e| format!("training bench model: {e}"))?;
    artifact
        .save(&model_path)
        .map_err(|e| format!("saving bench model: {e}"))?;

    // The daemon under test: the real binary, stdio transport, a small
    // arena cache so the bounded-memory path (eviction) actually runs.
    let exe = std::env::current_exe().map_err(|e| format!("locating fegen binary: {e}"))?;
    let mut child = std::process::Command::new(&exe)
        .arg("serve")
        .arg("--stdio")
        .arg("--model")
        .arg(&model_path)
        .arg("--arena-cache")
        .arg(arena_cache.to_string())
        .arg("--telemetry-dir")
        .arg(&tel_dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning serve daemon: {e}"))?;
    let child_in = child.stdin.take().ok_or("child stdin missing")?;
    let child_out = child.stdout.take().ok_or("child stdout missing")?;
    let mut wire = StreamTransport::new(child_out, child_in);

    let send = |wire: &mut StreamTransport<_, _>, req: &ServeRequest| -> Result<(), Anyhow> {
        wire.send(&encode_request(req)?)
            .map_err(|e| format!("sending to daemon: {e}").into())
    };
    let recv = |wire: &mut StreamTransport<_, _>| -> Result<ServeResponse, Anyhow> {
        let payload = wire.recv().map_err(|e| format!("daemon hung up: {e}"))?;
        decode_response(&payload).map_err(|e| format!("bad daemon response: {e}").into())
    };

    send(&mut wire, &ServeRequest::Hello { protocol: SERVE_PROTOCOL })?;
    match recv(&mut wire)? {
        ServeResponse::HelloAck { n_features, .. } => {
            eprintln!("bench-serve: daemon up, {n_features} feature(s)");
        }
        other => return Err(format!("expected HelloAck, got {other:?}").into()),
    }

    // A request stream with more distinct loop shapes than the arena cache
    // can hold: each variant perturbs `num-iter`, so digests differ and the
    // LRU must evict — the bounded-RSS path, not just the warm-hit path.
    let distinct = (2 * arena_cache).max(wire_loops.len());
    let variant = |v: usize| -> WireNode {
        let mut node = wire_loops[v % wire_loops.len()].clone();
        node.attrs
            .retain(|(name, _)| name != "bench-variant");
        node.attrs
            .push(("bench-variant".to_owned(), WireAttr::Num((v / wire_loops.len()) as f64)));
        node
    };

    let mut next_id = 1u64;
    let mut results = Vec::new();
    for &batch in batch_sizes {
        let mut latencies_us: Vec<u64> = Vec::with_capacity(requests_per_size);
        let mut loops_sent = 0usize;
        let started = Instant::now();
        for r in 0..requests_per_size {
            let loops: Vec<WireNode> = (0..batch)
                .map(|i| variant((r * batch + i) % distinct))
                .collect();
            loops_sent += loops.len();
            let id = next_id;
            next_id += 1;
            let t0 = Instant::now();
            send(&mut wire, &ServeRequest::Predict { id, loops })?;
            match recv(&mut wire)? {
                ServeResponse::Decisions { id: got, decisions } => {
                    if got != id || decisions.len() != batch {
                        return Err(format!(
                            "bad decisions: id {got} (want {id}), {} decision(s) (want {batch})",
                            decisions.len()
                        )
                        .into());
                    }
                    for Decision { unroll, .. } in &decisions {
                        if *unroll >= artifact.n_classes {
                            return Err(format!("decision {unroll} out of range").into());
                        }
                    }
                }
                other => return Err(format!("expected Decisions, got {other:?}").into()),
            }
            latencies_us.push(t0.elapsed().as_micros() as u64);
        }
        let total_s = started.elapsed().as_secs_f64();
        latencies_us.sort_unstable();
        let p50 = latencies_us[latencies_us.len() / 2];
        let p99 = latencies_us[(latencies_us.len() * 99 / 100).min(latencies_us.len() - 1)];
        let throughput = loops_sent as f64 / total_s;
        eprintln!(
            "bench-serve: batch {batch:>4}: p50 {p50:>6}µs, p99 {p99:>6}µs, {throughput:>9.0} loops/s"
        );
        results.push((batch, p50, p99, throughput));
    }

    // Final counters from the daemon itself, then a clean shutdown.
    let stats = {
        send(&mut wire, &ServeRequest::Stats { id: next_id })?;
        match recv(&mut wire)? {
            ServeResponse::StatsReport { stats, .. } => stats,
            other => return Err(format!("expected StatsReport, got {other:?}").into()),
        }
    };
    send(&mut wire, &ServeRequest::Shutdown)?;
    match recv(&mut wire)? {
        ServeResponse::Bye => {}
        other => return Err(format!("expected Bye, got {other:?}").into()),
    }
    drop(wire);
    let status = child.wait().map_err(|e| format!("waiting for daemon: {e}"))?;
    if !status.success() {
        return Err(format!("daemon exited uncleanly: {status}").into());
    }

    let mut json = String::from("{\n  \"batches\": [\n");
    for (i, (batch, p50, p99, throughput)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"batch\": {batch}, \"p50_us\": {p50}, \"p99_us\": {p99}, \
             \"throughput_loops_per_sec\": {throughput:.1} }}{comma}\n"
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"requests\": {},\n  \"loops_evaluated\": {},\n  \"errors\": {},\n  \
         \"arena_cache_cap\": {arena_cache},\n  \"arena_hits\": {},\n  \"arena_misses\": {},\n  \
         \"arena_evictions\": {},\n  \"arena_entries\": {},\n  \"queue_depth_peak\": {}\n}}\n",
        stats.requests,
        stats.loops_evaluated,
        stats.errors,
        stats.arena_hits,
        stats.arena_misses,
        stats.arena_evictions,
        stats.arena_entries,
        stats.queue_depth_peak,
    ));
    let mut file =
        std::fs::File::create(&out).map_err(|e| format!("writing `{out}`: {e}"))?;
    file.write_all(json.as_bytes())
        .map_err(|e| format!("writing `{out}`: {e}"))?;

    println!(
        "serve: {} request(s), {} loop(s), {} error(s); arena {} hit(s) / {} miss(es), \
         {} eviction(s), {} resident",
        stats.requests,
        stats.loops_evaluated,
        stats.errors,
        stats.arena_hits,
        stats.arena_misses,
        stats.arena_evictions,
        stats.arena_entries,
    );
    print!(
        "{}",
        fegen::core::telemetry::report::summarize_dir(&tel_dir)
            .map_err(|e| format!("daemon telemetry unreadable: {e}"))?
    );
    println!("report written to {out}");
    let _ = std::fs::remove_dir_all(&root);

    // Floors checked after the report is on disk (same contract as the
    // other bench commands): nothing dropped, the bounded cache actually
    // cycled, and throughput clears a floor far under the measured rate.
    if stats.errors != 0 {
        return Err(format!("{} request(s) answered with errors", stats.errors).into());
    }
    if stats.arena_evictions == 0 {
        return Err("arena LRU never evicted; the bounded-memory path went unexercised".into());
    }
    if stats.arena_entries as usize > arena_cache {
        return Err(format!(
            "arena cache holds {} entries, over its {arena_cache} cap",
            stats.arena_entries
        )
        .into());
    }
    /// Minimum acceptable serve throughput at the largest batch size.
    const SERVE_THROUGHPUT_FLOOR: f64 = 50.0;
    let (_, _, _, best) = results[results.len() - 1];
    if best < SERVE_THROUGHPUT_FLOOR {
        return Err(format!(
            "serve throughput {best:.0} loops/s below the {SERVE_THROUGHPUT_FLOOR:.0} floor"
        )
        .into());
    }
    Ok(())
}

// Silence "unused" for names referenced only in help text.
#[allow(dead_code)]
const _: [&str; 6] = GCC_FEATURE_NAMES;
