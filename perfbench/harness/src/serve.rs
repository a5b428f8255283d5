//! `serve`: a closed loop with one client — a compiler waits for each
//! decision — against the real `fegen serve --stdio` daemon, loaded with
//! the paper-shaped 5-feature model trained on the quick suite's measured
//! loops. Traffic is rebuilds: seeded Zipf (s = 1) picks of quick-suite
//! benchmarks, one `Predict` per function carrying that function's
//! exported loops. The 1,477 loops outnumber the daemon's 1,024-entry
//! arena cache, so popular rebuilds hit it and the tail evicts.

use crate::common::{mean, median, peak_rss_mib, ratio, repeated_setup, suite_data, tail};
use crate::{Args, Outcome};
use fegen_core::gp::transport::StreamTransport;
use fegen_core::ir::{symbol_count, IrArena, IrNode};
use fegen_core::lru::LruCache;
use fegen_core::serve::wire::{validate_batch, PoolStatsWire};
use fegen_core::serve::{
    decode_request, decode_response, encode_request, encode_response, Decision, ServeRequest,
    ServeResponse, ServeStatsSnapshot, WireNode, SERVE_PROTOCOL,
};
use fegen_core::{
    parse_feature, stable_hash, EvalPool, FeatureExpr, FrameTransport, ModelArtifact, SearchConfig,
    ServeOptions,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per run.
const SETUP_REPEATS: usize = 2;
/// Zipf exponent of benchmark popularity.
const ZIPF_S: f64 = 1.0;
/// Rebuilds of the most popular benchmark per deck of picks.
const DECK_TOP: f64 = 40.0;
/// The paper-shaped deployment feature set (the default model basis of
/// `fegen train-model` and `fegen bench-serve`).
const PAPER_FEATURE_SET: [&str; 5] = [
    "count(//*)",
    "count(filter(//*, is-type(reg)))",
    "count(filter(//*, !(is-type(wide-int) || is-type(const_double))))",
    "max(filter(/*, is-type(basic-block)), count(filter(//*, is-type(insn))))",
    "count(filter(//*, is-type(insn))) / (1 + count(filter(//*, is-type(basic-block))))",
];

/// One pre-encoded `Predict`: a function's exported loops.
struct Request {
    id: u64,
    payload: Vec<u8>,
    /// The offline decision for each loop: `EvalPool` over the original
    /// IR, failed feature → 0.0, `DecisionTree::predict`.
    expected: Vec<usize>,
}

/// Everything the client sends, prepared during set-up.
struct Traffic {
    requests: Vec<Request>,
    /// Request indices of each benchmark's rebuild, in Zipf rank order.
    rebuilds: Vec<Vec<usize>>,
    model: PathBuf,
}

/// The daemon under test: `fegen serve --stdio` as a child process.
struct Daemon {
    child: Child,
    wire: StreamTransport<ChildStdout, ChildStdin>,
}

impl Daemon {
    fn spawn(fegen: &Path, model: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(fegen)
            .arg("serve")
            .arg("--stdio")
            .arg("--model")
            .arg(model)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let stdout = child.stdout.take().ok_or("daemon stdout missing")?;
        let stdin = child.stdin.take().ok_or("daemon stdin missing")?;
        let mut daemon = Daemon {
            child,
            wire: StreamTransport::new(stdout, stdin),
        };
        let hello = encode_request(&ServeRequest::Hello {
            protocol: SERVE_PROTOCOL,
        })?;
        match daemon.call(&hello)? {
            ServeResponse::HelloAck { .. } => Ok(daemon),
            other => Err(format!("expected HelloAck, got {other:?}")),
        }
    }

    /// Sends one payload and returns the raw reply.
    fn round_trip(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        self.wire
            .send(payload)
            .map_err(|e| format!("sending to the daemon: {e}"))?;
        self.wire
            .recv()
            .map_err(|e| format!("the daemon hung up: {e}"))
    }

    fn call(&mut self, payload: &[u8]) -> Result<ServeResponse, String> {
        let reply = self.round_trip(payload)?;
        decode_response(&reply).map_err(|e| format!("bad daemon reply: {e}"))
    }

    fn stats(&mut self) -> Result<(ServeStatsSnapshot, PoolStatsWire), String> {
        match self.call(&encode_request(&ServeRequest::Stats { id: 0 })?)? {
            ServeResponse::StatsReport { stats, pool, .. } => Ok((stats, pool)),
            other => Err(format!("expected StatsReport, got {other:?}")),
        }
    }

    /// Asks the daemon to exit and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        match self.call(&encode_request(&ServeRequest::Shutdown)?)? {
            ServeResponse::Bye => {}
            other => return Err(format!("expected Bye, got {other:?}")),
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon not shut down cleanly is killed; never leave one behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One deck of rebuild picks: benchmark `r` (0-based Zipf rank) appears
/// `round(DECK_TOP / (r + 1)^s)` times, at least once. Each deck is
/// shuffled with the seeded RNG, so every run sends the same traffic mix in
/// a seed-dependent order, and every benchmark is rebuilt once per deck.
fn zipf_deck(benchmarks: usize) -> Vec<usize> {
    (0..benchmarks)
        .flat_map(|r| {
            let copies = (DECK_TOP / ((r + 1) as f64).powf(ZIPF_S)).round().max(1.0);
            std::iter::repeat_n(r, copies as usize)
        })
        .collect()
}

fn paper_features() -> Result<Vec<FeatureExpr>, String> {
    PAPER_FEATURE_SET
        .iter()
        .map(|s| parse_feature(s).map_err(|e| format!("parsing `{s}`: {e}")))
        .collect()
}

/// Measures the suite, trains and saves the model, pre-encodes every
/// request with its offline decisions, and starts the daemon.
fn setup(args: &Args) -> Result<(Traffic, Daemon), String> {
    let (data, _) = suite_data(&args.work.join("dataset"))?;
    let examples = data.training_examples();
    let features = paper_features()?;
    let artifact = ModelArtifact::train(&SearchConfig::quick(), &features, &examples)
        .map_err(|e| format!("training the model: {e}"))?;
    let model = args.work.join("model.json");
    artifact
        .save(&model)
        .map_err(|e| format!("saving the model: {e}"))?;

    // One request per (benchmark, function), loops in discovery order.
    let mut groups: Vec<((usize, &str), Vec<&IrNode>)> = Vec::new();
    for l in &data.loops {
        let key = (l.bench, l.site.func.as_str());
        match groups.last_mut() {
            Some((k, irs)) if *k == key => irs.push(&l.ir),
            _ => groups.push((key, vec![&l.ir])),
        }
    }
    let mut requests = Vec::with_capacity(groups.len());
    let mut rebuilds: Vec<Vec<usize>> = vec![Vec::new(); data.benchmarks.len()];
    for (i, ((bench, _), irs)) in groups.iter().enumerate() {
        let id = i as u64 + 1;
        let loops: Vec<WireNode> = irs.iter().map(|ir| WireNode::from_ir(ir)).collect();
        let payload = encode_request(&ServeRequest::Predict { id, loops })?;
        let pool = EvalPool::new(irs.iter().copied(), Default::default());
        let expected = (0..irs.len())
            .map(|j| {
                let row: Vec<f64> = features
                    .iter()
                    .map(|f| pool.eval(f, j, artifact.eval_budget).unwrap_or(0.0))
                    .collect();
                artifact.tree.predict(&row)
            })
            .collect();
        requests.push(Request {
            id,
            payload,
            expected,
        });
        rebuilds[*bench].push(i);
    }
    rebuilds.retain(|r| !r.is_empty());
    let daemon = Daemon::spawn(&args.fegen, &model)?;
    Ok((
        Traffic {
            requests,
            rebuilds,
            model,
        },
        daemon,
    ))
}

/// One closed-loop stretch of traffic.
#[derive(Default)]
struct Session {
    /// Round trip of every timed request, in µs.
    rtt_us: Vec<f64>,
    /// Loops per second of every timed request: its loops over its round
    /// trip.
    loop_rates: Vec<f64>,
    /// Every request sent, warm-up included, and the daemon's decisions.
    sent: Vec<usize>,
    decisions: Vec<Vec<Decision>>,
}

/// Sends one deck of rebuilds, one request at a time, checking every
/// decision against the offline one.
fn send_deck(
    daemon: &mut Daemon,
    traffic: &Traffic,
    deck: &[usize],
    timed: bool,
    s: &mut Session,
    out: &mut Outcome,
) -> Result<(), String> {
    for &r in deck.iter().flat_map(|&b| &traffic.rebuilds[b]) {
        let req = &traffic.requests[r];
        let t = Instant::now();
        let reply = daemon.round_trip(&req.payload)?;
        if timed {
            let rtt = t.elapsed().as_secs_f64();
            s.rtt_us.push(rtt * 1e6);
            s.loop_rates.push(req.expected.len() as f64 / rtt);
        }
        let decisions = match decode_response(&reply) {
            Ok(ServeResponse::Decisions { id, decisions }) if id == req.id => decisions,
            other => {
                eprintln!("perfbench: request {} answered with {other:?}", req.id);
                Vec::new()
            }
        };
        let unrolls: Vec<usize> = decisions.iter().map(|d| d.unroll).collect();
        out.op(unrolls == req.expected);
        s.sent.push(r);
        s.decisions.push(decisions);
    }
    Ok(())
}

/// One untimed warm-up deck — a long-running daemon's caches are warm —
/// then whole timed decks until `seconds` have passed.
fn drive(
    daemon: &mut Daemon,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Session, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deck = zipf_deck(traffic.rebuilds.len());
    let mut s = Session::default();
    deck.shuffle(&mut rng);
    send_deck(daemon, traffic, &deck, false, &mut s, out)?;
    let started = Instant::now();
    while s.rtt_us.is_empty() || started.elapsed().as_secs_f64() < seconds {
        deck.shuffle(&mut rng);
        send_deck(daemon, traffic, &deck, true, &mut s, out)?;
    }
    Ok(s)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let ((traffic, mut daemon), setup_s) = repeated_setup(SETUP_REPEATS, || setup(args))?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let session = drive(&mut daemon, &traffic, args.seed, seconds, out)?;
    let (stats, pool) = daemon.stats()?;
    out.gate(
        stats.errors == 0,
        "the daemon answered requests with errors",
    );
    let rss = peak_rss_mib(Some(daemon.child.id()))?;
    daemon.shutdown()?;
    if args.trace {
        return traced(out, &traffic, &session, &stats, &pool);
    }
    out.metrics.set("setup_s", setup_s);
    out.metrics.set("peak_rss_mib", rss);
    out.metrics.set("unit_s", median(&session.rtt_us) * 1e-6);
    // Medians, not totals: on a shared machine the round trips' tail
    // swings from run to run; it is reported as `serve.rtt_us.p99`.
    out.metrics.set("items_per_s", median(&session.loop_rates));
    Ok(())
}

/// Per-request time of each in-process serve stage, in µs.
#[derive(Default)]
struct Stages {
    decode: Vec<f64>,
    admit: Vec<f64>,
    to_ir: Vec<f64>,
    key: Vec<f64>,
    flatten: Vec<f64>,
    eval: Vec<f64>,
    predict: Vec<f64>,
    encode: Vec<f64>,
}

impl Stages {
    fn all(&self) -> [&Vec<f64>; 8] {
        [
            &self.decode,
            &self.admit,
            &self.to_ir,
            &self.key,
            &self.flatten,
            &self.eval,
            &self.predict,
            &self.encode,
        ]
    }
}

/// The traced `serve` run: the session's requests replayed in process
/// through the daemon's stages in order — decode, admission, `to_ir`,
/// arena key, flatten on an arena miss (same LRU capacity), evaluation,
/// prediction, encode — each timed. The replay's decisions, cache flags
/// included, must equal the daemon's.
fn traced(
    out: &mut Outcome,
    traffic: &Traffic,
    session: &Session,
    stats: &ServeStatsSnapshot,
    pool: &PoolStatsWire,
) -> Result<(), String> {
    let artifact =
        ModelArtifact::load(&traffic.model).map_err(|e| format!("loading the model: {e}"))?;
    let features = artifact
        .parsed_features()
        .map_err(|e| format!("model features: {e}"))?;
    let opts = ServeOptions::default();
    let symbol_cap = symbol_count() + opts.symbol_headroom;
    let mut arenas: LruCache<u64, Arc<IrArena>> = LruCache::new(opts.arena_cache_cap);
    let warm = EvalPool::from_arenas(Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut st = Stages::default();
    let mut same = true;
    for (&r, daemon_decisions) in session.sent.iter().zip(&session.decisions) {
        let t = Instant::now();
        let request = decode_request(&traffic.requests[r].payload)?;
        st.decode.push(us(t));
        let ServeRequest::Predict { id, loops } = request else {
            return Err("a pre-encoded request is not a Predict".into());
        };
        let t = Instant::now();
        validate_batch(&loops, symbol_cap).map_err(|e| format!("admission: {e}"))?;
        st.admit.push(us(t));
        let (mut to_ir, mut key, mut flatten) = (0.0, 0.0, 0.0);
        let mut batch = Vec::with_capacity(loops.len());
        let mut cached = Vec::with_capacity(loops.len());
        for wire in &loops {
            let t = Instant::now();
            let ir = wire.to_ir();
            to_ir += us(t);
            let t = Instant::now();
            let digest = stable_hash(ir.dump().as_bytes());
            let hit = arenas.get(&digest).map(Arc::clone);
            key += us(t);
            cached.push(hit.is_some());
            batch.push(match hit {
                Some(arena) => arena,
                None => {
                    let t = Instant::now();
                    let arena = Arc::new(IrArena::from_tree(&ir));
                    arenas.insert(digest, Arc::clone(&arena));
                    flatten += us(t);
                    arena
                }
            });
        }
        st.to_ir.push(to_ir);
        st.key.push(key);
        st.flatten.push(flatten);
        let n = batch.len();
        let t = Instant::now();
        let mut eval_pool = EvalPool::from_arenas(batch);
        eval_pool.adopt_program_cache(&warm);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                features
                    .iter()
                    .map(|f| eval_pool.eval(f, i, artifact.eval_budget).unwrap_or(0.0))
                    .collect()
            })
            .collect();
        st.eval.push(us(t));
        let t = Instant::now();
        let decisions: Vec<Decision> = rows
            .iter()
            .zip(&cached)
            .map(|(row, &cached)| Decision {
                unroll: artifact.tree.predict(row),
                cached,
            })
            .collect();
        st.predict.push(us(t));
        let t = Instant::now();
        std::hint::black_box(encode_response(&ServeResponse::Decisions {
            id,
            decisions: decisions.clone(),
        })?);
        st.encode.push(us(t));
        same &= &decisions == daemon_decisions;
    }
    out.gate(
        same,
        "in-process serve replay decisions differ from the daemon's",
    );

    let rtt_p50 = median(&session.rtt_us);
    let stage_p50: f64 = st.all().iter().map(|v| median(v)).sum();
    let stage_mean: f64 = st.all().iter().map(|v| mean(v)).sum();
    let rtt_mean = mean(&session.rtt_us);
    let lookups = (stats.arena_hits + stats.arena_misses) as f64;
    let programs = (pool.program_hits + pool.program_misses) as f64;
    let m = &mut out.metrics;
    m.set("serve.rtt_us.p50", rtt_p50);
    m.set("serve.rtt_us.p99", tail(&session.rtt_us));
    m.set("serve.rtt_samples", session.rtt_us.len() as f64);
    m.set("serve.decode_us", median(&st.decode));
    m.set("serve.admit_us", median(&st.admit));
    m.set("serve.to_ir_us", median(&st.to_ir));
    m.set("serve.key_us", median(&st.key));
    m.set("serve.flatten_us", median(&st.flatten));
    m.set("serve.eval_us", median(&st.eval));
    m.set("serve.predict_us", median(&st.predict));
    m.set("serve.encode_us", median(&st.encode));
    m.set("serve.io_us", rtt_p50 - stage_p50);
    m.set(
        "serve.arena_hit_ratio",
        ratio(stats.arena_hits as f64, lookups),
    );
    m.set("serve.arena_evictions", stats.arena_evictions as f64);
    m.set(
        "serve.program_hit_ratio",
        ratio(pool.program_hits as f64, programs),
    );
    m.set("serve.queue_depth_peak", stats.queue_depth_peak as f64);
    m.set(
        "serve.unattributed_pct",
        100.0 * ratio(rtt_mean - stage_mean, rtt_mean),
    );
    Ok(())
}
