//! The daemon's shared inference engine.
//!
//! One [`ServeEngine`] is shared by every connection. It owns:
//!
//! - the **active model** behind `RwLock<Arc<LoadedModel>>` — a batch
//!   clones the `Arc` once at admission, so a hot-reload swaps the model
//!   for *future* batches without dropping or re-routing in-flight ones;
//! - the **arena LRU**: flattened [`IrArena`]s keyed by a canonical digest
//!   of the ingested IR, bounded so an endless stream of distinct loops
//!   cannot grow the daemon's heap (evictions are counted and surfaced as
//!   telemetry — the "RSS stays bounded" claim is measured, not asserted);
//! - the **warm pool**: a long-lived [`EvalPool`] whose bounded
//!   compiled-program cache every per-batch pool adopts, so feature
//!   programs compile once per model, not once per batch.

use super::artifact::{ModelArtifact, ModelError};
use super::wire::{decode_inbound, AdmittedLoop, Decision, Inbound, ServeStatsSnapshot};
use crate::faults::Fnv1a;
use crate::ir::{ArenaRows, IrArena, IrNode, SymbolTable};
use crate::lang::vm::PoolStats;
use crate::lang::{EvalPool, FeatureExpr};
use crate::lru::LruCache;
use crate::telemetry::Telemetry;
use parking_lot::{Mutex, RwLock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Default bound on cached flattened arenas.
pub const DEFAULT_ARENA_CACHE_CAP: usize = 1024;

/// Default headroom of *new* interned symbols the daemon grants untrusted
/// input over its startup vocabulary.
pub const DEFAULT_SYMBOL_HEADROOM: usize = 4096;

/// Check the artifact file for changes every this many predict requests
/// (on top of explicit `Reload` messages). `0` disables polling.
pub const DEFAULT_RELOAD_CHECK_EVERY: u64 = 64;

/// Tunables of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bound on the arena LRU ([`DEFAULT_ARENA_CACHE_CAP`]).
    pub arena_cache_cap: usize,
    /// New-symbol headroom granted to requests
    /// ([`DEFAULT_SYMBOL_HEADROOM`]).
    pub symbol_headroom: usize,
    /// Poll the artifact file for hot-reload every N predict requests
    /// ([`DEFAULT_RELOAD_CHECK_EVERY`]; `0` = explicit `Reload` only).
    pub reload_check_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            arena_cache_cap: DEFAULT_ARENA_CACHE_CAP,
            symbol_headroom: DEFAULT_SYMBOL_HEADROOM,
            reload_check_every: DEFAULT_RELOAD_CHECK_EVERY,
        }
    }
}

/// A fully validated, ready-to-serve model: the artifact plus its
/// re-parsed features and content digest.
pub struct LoadedModel {
    /// The artifact as loaded from disk.
    pub artifact: ModelArtifact,
    /// `artifact.features`, parsed (validated at load; cannot fail here).
    pub features: Vec<FeatureExpr>,
    /// [`ModelArtifact::digest`] of the artifact.
    pub digest: u64,
}

/// Size+mtime signature of the artifact file, used to skip reload work
/// when nothing changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileSig {
    len: u64,
    mtime: Option<SystemTime>,
}

fn file_sig(path: &std::path::Path) -> Option<FileSig> {
    let meta = std::fs::metadata(path).ok()?;
    Some(FileSig {
        len: meta.len(),
        mtime: meta.modified().ok(),
    })
}

/// The arena-cache key of a loop: FNV-1a of its canonical
/// [`IrNode::dump`] (attrs sorted by `to_ir`), so hit rates do not depend
/// on the client's attribute order and the key is stable across daemon
/// restarts. The dump is streamed into the hash, never built.
pub fn arena_key(ir: &IrNode) -> u64 {
    let mut hash = Fnv1a::default();
    // Writing into a hash cannot fail.
    let _ = ir.dump_into(&mut hash);
    hash.0
}

/// [`arena_key`] of the tree `rows` flatten, streamed from the rows.
pub(crate) fn rows_key(rows: &ArenaRows, names: &SymbolTable) -> u64 {
    let mut hash = Fnv1a::default();
    let _ = rows.dump_into(names, &mut hash);
    hash.0
}

/// The shared, `Sync` inference engine behind every serve connection.
pub struct ServeEngine {
    model_path: PathBuf,
    model: RwLock<Arc<LoadedModel>>,
    model_sig: Mutex<Option<FileSig>>,
    arenas: Mutex<LruCache<u64, Arc<IrArena>>>,
    /// Long-lived donor of the shared compiled-program cache.
    warm: EvalPool<'static>,
    opts: ServeOptions,
    /// Absolute interner cap: startup vocabulary + configured headroom.
    symbol_cap: usize,
    telemetry: Telemetry,
    requests: AtomicU64,
    loops_evaluated: AtomicU64,
    errors: AtomicU64,
    arena_hits: AtomicU64,
    arena_misses: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    /// Failed (loop, feature) evaluations answered with `0.0`.
    feature_failures: AtomicU64,
    /// Pool counters accumulated across the per-batch pools.
    pool_vm_evals: AtomicU64,
    pool_program_hits: AtomicU64,
    pool_program_misses: AtomicU64,
    shutdown: AtomicBool,
}

impl ServeEngine {
    /// Loads the artifact at `model_path` and builds the engine.
    ///
    /// # Errors
    ///
    /// Any [`ModelError`] from the initial artifact load — the daemon
    /// refuses to start on a model it cannot fully validate.
    pub fn new(
        model_path: PathBuf,
        opts: ServeOptions,
        telemetry: Telemetry,
    ) -> Result<ServeEngine, ModelError> {
        let sig = file_sig(&model_path);
        let artifact = ModelArtifact::load(&model_path)?;
        let features = artifact.parsed_features()?;
        let digest = artifact.digest()?;
        // The symbol budget is anchored *after* the model's own features
        // and grammar vocabulary are interned, so legitimate startup
        // interning never eats into the untrusted-input headroom.
        let symbol_cap = crate::ir::symbol_count() + opts.symbol_headroom;
        telemetry
            .event("serve_start")
            .str("model", &model_path.display().to_string())
            .u64("model_digest", digest)
            .u64("n_features", features.len() as u64)
            .u64("arena_cache_cap", opts.arena_cache_cap as u64)
            .emit();
        Ok(ServeEngine {
            model_path,
            model: RwLock::new(Arc::new(LoadedModel {
                artifact,
                features,
                digest,
            })),
            model_sig: Mutex::new(sig),
            arenas: Mutex::new(LruCache::new(opts.arena_cache_cap)),
            warm: EvalPool::from_arenas(Vec::new()),
            symbol_cap,
            opts,
            telemetry,
            requests: AtomicU64::new(0),
            loops_evaluated: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            arena_hits: AtomicU64::new(0),
            arena_misses: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            feature_failures: AtomicU64::new(0),
            pool_vm_evals: AtomicU64::new(0),
            pool_program_hits: AtomicU64::new(0),
            pool_program_misses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The currently active model (a cheap `Arc` clone; holders survive
    /// hot-reloads untouched).
    pub fn model(&self) -> Arc<LoadedModel> {
        Arc::clone(&self.model.read())
    }

    /// The telemetry handle connections report through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Flags the whole daemon (all connections, the accept loop) to stop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once any connection processed a `Shutdown`.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Counts a request that was answered with an error.
    pub fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Decodes one frame payload with this daemon's symbol budget; see
    /// [`decode_inbound`]. A `Predict` batch comes back admitted, interned
    /// and keyed, or refused with nothing interned.
    ///
    /// # Errors
    ///
    /// The payload is not a decodable request.
    pub fn decode(&self, payload: &[u8]) -> Result<Inbound, String> {
        decode_inbound(payload, self.symbol_cap)
    }

    /// Answers one admitted `Predict` batch. The model is pinned once so a
    /// concurrent hot-reload cannot split the batch across models; a loop
    /// whose key hits the arena LRU drops its rows, a miss builds its
    /// arena from them.
    pub fn predict(&self, loops: Vec<AdmittedLoop>) -> Vec<Decision> {
        let depth = self.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.queue_peak.fetch_max(depth, Ordering::SeqCst);
        let decisions = self.predict_admitted(loops);
        self.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if self.opts.reload_check_every > 0 && n.is_multiple_of(self.opts.reload_check_every) {
            self.maybe_reload();
        }
        decisions
    }

    fn predict_admitted(&self, loops: Vec<AdmittedLoop>) -> Vec<Decision> {
        let model = self.model();
        let mut batch: Vec<Arc<IrArena>> = Vec::with_capacity(loops.len());
        let mut cached_flags = Vec::with_capacity(loops.len());
        for AdmittedLoop { key, rows } in loops {
            let hit = {
                let mut cache = self.arenas.lock();
                cache.get(&key).map(Arc::clone)
            };
            match hit {
                Some(arena) => {
                    self.arena_hits.fetch_add(1, Ordering::Relaxed);
                    cached_flags.push(true);
                    batch.push(arena);
                }
                None => {
                    self.arena_misses.fetch_add(1, Ordering::Relaxed);
                    // Build outside the lock; a racing insert of the same
                    // key is benign (identical arenas).
                    let arena = Arc::new(IrArena::from_rows(rows));
                    self.arenas.lock().insert(key, Arc::clone(&arena));
                    cached_flags.push(false);
                    batch.push(arena);
                }
            }
        }
        let n_loops = batch.len();
        let mut pool = EvalPool::from_arenas(batch);
        pool.adopt_program_cache(&self.warm);
        let budget = model.artifact.eval_budget;
        let mut failures = 0u64;
        let decisions = (0..n_loops)
            .map(|i| {
                // Deployment rule: a failed feature contributes 0.0 — the
                // compiler must always get *some* decision — and is counted.
                let row: Vec<f64> = model
                    .features
                    .iter()
                    .map(|f| {
                        pool.eval(f, i, budget).unwrap_or_else(|_| {
                            failures += 1;
                            0.0
                        })
                    })
                    .collect();
                Decision {
                    unroll: model.artifact.tree.predict(&row),
                    cached: cached_flags[i],
                }
            })
            .collect();
        self.feature_failures.fetch_add(failures, Ordering::Relaxed);
        let s = pool.stats();
        self.pool_vm_evals.fetch_add(s.vm_evals, Ordering::Relaxed);
        self.pool_program_hits
            .fetch_add(s.program_hits, Ordering::Relaxed);
        self.pool_program_misses
            .fetch_add(s.program_misses, Ordering::Relaxed);
        self.loops_evaluated
            .fetch_add(n_loops as u64, Ordering::Relaxed);
        decisions
    }

    /// Checks the artifact file signature and reloads when it changed.
    /// Failures keep the old model and are counted, never fatal.
    pub fn maybe_reload(&self) -> bool {
        let sig = file_sig(&self.model_path);
        {
            let current = self.model_sig.lock();
            if sig == *current {
                return false;
            }
        }
        matches!(self.reload(), Ok(true))
    }

    /// Reloads the model artifact from disk. In-flight batches keep the
    /// `Arc` they pinned; only future batches see the new model.
    ///
    /// # Errors
    ///
    /// Any [`ModelError`] from the load — the old model stays active, the
    /// failure is counted and emitted as a `serve_reload_failed` event.
    pub fn reload(&self) -> Result<bool, ModelError> {
        let sig = file_sig(&self.model_path);
        let outcome = ModelArtifact::load(&self.model_path).and_then(|artifact| {
            let features = artifact.parsed_features()?;
            let digest = artifact.digest()?;
            Ok((artifact, features, digest))
        });
        match outcome {
            Ok((artifact, features, digest)) => {
                *self.model_sig.lock() = sig;
                if digest == self.model.read().digest {
                    return Ok(false);
                }
                *self.model.write() = Arc::new(LoadedModel {
                    artifact,
                    features,
                    digest,
                });
                self.reloads.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .event("serve_reload")
                    .u64("model_digest", digest)
                    .emit();
                Ok(true)
            }
            Err(e) => {
                self.reload_failures.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .event("serve_reload_failed")
                    .str("detail", &e.to_string())
                    .emit();
                Err(e)
            }
        }
    }

    /// Counter snapshot for `Stats` responses and telemetry.
    pub fn stats(&self) -> ServeStatsSnapshot {
        let arenas = self.arenas.lock();
        ServeStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            loops_evaluated: self.loops_evaluated.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            arena_hits: self.arena_hits.load(Ordering::Relaxed),
            arena_misses: self.arena_misses.load(Ordering::Relaxed),
            arena_evictions: arenas.evictions(),
            arena_entries: arenas.len() as u64,
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_peak.load(Ordering::Relaxed),
            feature_failures: self.feature_failures.load(Ordering::Relaxed),
        }
    }

    /// The accumulated evaluation counters of the per-batch pools (the
    /// shared program cache's eviction counter rides along).
    pub fn pool_stats(&self) -> PoolStats {
        let warm = self.warm.stats();
        PoolStats {
            vm_evals: self.pool_vm_evals.load(Ordering::Relaxed),
            program_hits: self.pool_program_hits.load(Ordering::Relaxed),
            program_misses: self.pool_program_misses.load(Ordering::Relaxed),
            // The shared LRU counts evictions across every adopter.
            program_evictions: warm.program_evictions,
            ..PoolStats::default()
        }
    }

    /// Publishes the daemon's counters as `serve.*` gauges (callers decide
    /// when to [`Telemetry::emit_metrics`]).
    pub fn record_telemetry(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let s = self.stats();
        let t = &self.telemetry;
        t.gauge_set("serve.requests", s.requests as f64);
        t.gauge_set("serve.loops_evaluated", s.loops_evaluated as f64);
        t.gauge_set("serve.errors", s.errors as f64);
        t.gauge_set("serve.arena_hits", s.arena_hits as f64);
        t.gauge_set("serve.arena_misses", s.arena_misses as f64);
        t.gauge_set("serve.arena_evictions", s.arena_evictions as f64);
        t.gauge_set("serve.arena_entries", s.arena_entries as f64);
        t.gauge_set("serve.reloads", s.reloads as f64);
        t.gauge_set("serve.reload_failures", s.reload_failures as f64);
        t.gauge_set("serve.queue_depth", self.queue_depth.load(Ordering::Relaxed) as f64);
        t.gauge_set("serve.queue_depth_peak", s.queue_depth_peak as f64);
        t.gauge_set("serve.feature_failures", s.feature_failures as f64);
        let hit_rate = if s.arena_hits + s.arena_misses > 0 {
            s.arena_hits as f64 / (s.arena_hits + s.arena_misses) as f64
        } else {
            0.0
        };
        t.gauge_set("serve.arena_hit_rate", hit_rate);
        let p = self.pool_stats();
        t.gauge_set("serve.pool_vm_evals", p.vm_evals as f64);
        t.gauge_set("serve.pool_program_hits", p.program_hits as f64);
        t.gauge_set("serve.pool_program_misses", p.program_misses as f64);
        t.gauge_set("serve.pool_program_evictions", p.program_evictions as f64);
    }

    /// Publishes the gauges *and* writes them to the event log as `metric`
    /// events (gauges are in-memory until emitted). Called when a
    /// connection or the daemon winds down.
    pub fn flush_telemetry(&self) {
        self.record_telemetry();
        self.telemetry.emit_metrics("serve");
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("model_path", &self.model_path)
            .field("model_digest", &self.model.read().digest)
            .field("stats", &self.stats())
            .finish()
    }
}
