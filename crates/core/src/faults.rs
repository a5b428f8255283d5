//! Deterministic fault injection for the search and measurement runtimes.
//!
//! The integration tests (and any soak harness) need to *prove* that the
//! engine survives misbehaving evaluators: a fitness function that panics,
//! exhausts its step budget, or returns NaN must cost one candidate, never
//! the search. [`FaultInjector`] wraps any [`FitnessFn`] and injects those
//! failures at seeded, reproducible points:
//!
//! - [`FaultTrigger::OnCall`] fires on the Nth fitness call — exact on one
//!   island worker slot, approximate (but still bounded) when several
//!   slots step islands concurrently, which is all cooperative
//!   cancellation needs.
//! - [`FaultTrigger::OnMatch`] fires on candidates whose expression text
//!   hashes into a residue class — a property of the *candidate*, so the
//!   same individuals fail regardless of worker count or evaluation order.
//!   This is what the determinism tests use.
//! - [`FaultTrigger::OnKeyPrefix`] fires on every event whose key starts
//!   with a given prefix — the natural trigger for non-fitness layers
//!   (measurement workers key events as `measure:<bench>:<site>`, the
//!   dataset store as `shard-write:<bench>`, the island supervisor as
//!   `island:<id>:g<generation>#a<attempt>`), where a test wants *one
//!   specific* benchmark, site or step to fail persistently. These
//!   structured keys match prefix plans only and are not fitness calls,
//!   so they never shift an `OnCall` schedule.
//!
//! Beyond the evaluator faults, two kinds model the I/O layer: a
//! [`FaultKind::CorruptWrite`] tells a store to scribble over the bytes it
//! just committed (torn write, bitrot), and a [`FaultKind::Delay`] stalls
//! the stage for a bounded time so deadline/watchdog logic can be driven
//! deterministically. Layers other than the fitness path consult the
//! injector directly through [`FaultInjector::fire`].
//!
//! [`CancelToken`] is the cooperative cancellation primitive the
//! [`crate::search::SearchDriver`] polls between GP generations; a
//! [`FaultKind::Cancel`] plan flips it from inside the evaluator, which is
//! the deterministic stand-in for "the process was killed here".

use crate::gp::FitnessFn;
use crate::lang::FeatureExpr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cooperative cancellation flag, shared between the party requesting the
/// stop and the search driver polling for it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the fitness call (the engine must isolate it).
    Panic,
    /// Behave as if the evaluator ran out of step budget: the candidate is
    /// reported invalid, exactly like `EvalError::BudgetExceeded` surfacing
    /// as a `None` fitness.
    ExhaustBudget,
    /// Return `NaN` fitness (the engine must sanitize it to invalid).
    NanFitness,
    /// Flip the injector's [`CancelToken`] and then evaluate normally, so an
    /// interrupted run's state matches an uninterrupted run's state at the
    /// same point — the property the resume tests rely on.
    Cancel,
    /// Stall the stage for the given number of milliseconds before it
    /// proceeds (or, in layers with a watchdog, before the attempt is
    /// abandoned as hung). Deterministic stand-in for a wedged I/O path or
    /// an overloaded machine.
    Delay(u64),
    /// Corrupt the bytes a store just committed (torn write, bitrot). Only
    /// meaningful to I/O layers; the fitness path treats it as a no-op.
    CorruptWrite,
    /// Kill the worker attempting the keyed island generation step: the
    /// attempt is abandoned before its results commit, exactly as if the
    /// worker crashed mid-step (a framed executor also drops its
    /// connection, so the next attempt respawns the worker process). The
    /// island supervisor retries from the island's last committed state
    /// with bounded backoff, and freezes the island once its restart limit
    /// is exhausted. Keys look like `island:<id>:g<generation>#a<attempt>`,
    /// so a plan can fail one attempt (transient crash) or every attempt
    /// (dead island). Benign on the fitness path.
    IslandKill,
    /// Stall the keyed island step attempt for the given number of
    /// milliseconds *after* its heartbeat was published — a hung step or
    /// a wedged connection. Wall-clock only: the step's results are
    /// unchanged, so injected stalls can never alter the search
    /// trajectory (the determinism rule the island tests pin). Benign on
    /// the fitness path.
    IslandStall(u64),
    /// Delay an island worker's heartbeat publication by the given number
    /// of milliseconds — a late check-in. The deadline monitor reports a
    /// missed heartbeat; the step itself proceeds normally. Benign on the
    /// fitness path.
    SlowHeartbeat(u64),
    /// Truncate the frame carrying the keyed island step to a
    /// process-level worker mid-header/mid-payload (a torn write). The
    /// worker rejects the torn frame with a typed error and exits; the
    /// supervisor sees the connection close, discards the attempt and
    /// respawns from the island's last committed state. Does nothing
    /// in-process. Benign on the fitness path.
    TornFrame,
    /// Send the frame carrying the keyed island step twice with the same
    /// sequence number. The receiver's dedup window drops the replay, so
    /// this fault is *proven* neutral: the run's bytes cannot change. Does
    /// nothing in-process. Benign on the fitness path.
    DuplicateFrame,
    /// Delay the supervisor→worker handshake by the given number of
    /// milliseconds when the keyed attempt has to (re)connect (a slow
    /// worker start). Wall-clock only; does nothing in-process. Benign on
    /// the fitness path.
    SlowHandshake(u64),
}

/// When a plan fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fire on the `n`th fitness call (1-based), once. Only fitness calls
    /// count: structured keys neither match nor advance the counter.
    OnCall(u64),
    /// Fire on every candidate whose expression-text hash `h` satisfies
    /// `h % modulus == residue`. Order-independent, thread-count-independent.
    /// Matches fitness calls only, never structured keys.
    OnMatch {
        /// Hash modulus (0 is treated as "never fires").
        modulus: u64,
        /// Residue class that triggers the fault.
        residue: u64,
    },
    /// Fire on every event whose key starts with the prefix. Keys are the
    /// candidate's expression text on the fitness path, and structured
    /// `stage:detail` strings elsewhere (`measure:<bench>:<site>`,
    /// `shard-write:<bench>`, `island:<id>:g<generation>#a<attempt>`), so a
    /// test can target one site, shard or island step. The only trigger
    /// structured keys can match.
    OnKeyPrefix(String),
}

/// One injection rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What to inject.
    pub kind: FaultKind,
}

/// Seeded fault-injection harness wrapping a fitness function.
#[derive(Debug)]
pub struct FaultInjector {
    plans: Vec<FaultPlan>,
    calls: AtomicU64,
    injected: AtomicU64,
    cancel: CancelToken,
}

/// FNV-1a, the stable hash used for [`FaultTrigger::OnMatch`] and the
/// checkpoint identity fingerprints.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
}

/// Streaming FNV-1a: text written into it hashes exactly as [`fnv1a`] of
/// the concatenated bytes would, without materialising them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(pub(crate) u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Fnv1a {
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// The runtime's stable content hash (FNV-1a), shared by every identity
/// fingerprint and checksum in the workspace: checkpoint identities,
/// dataset-shard checksums, per-site noise seeds. Stable across platforms
/// and releases — files hashed with it remain verifiable forever.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

impl FaultInjector {
    /// An injector executing `plans` (checked in order; first match wins).
    pub fn new(plans: Vec<FaultPlan>) -> Self {
        FaultInjector {
            plans,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            cancel: CancelToken::new(),
        }
    }

    /// The token [`FaultKind::Cancel`] plans flip. Hand a clone to the
    /// search driver so injected cancellations interrupt the run.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Total fitness calls observed so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Wraps `inner` so that fitness calls pass through the injector.
    pub fn wrap<'a, F: FitnessFn>(&'a self, inner: &'a F) -> InjectedFitness<'a, F> {
        InjectedFitness {
            injector: self,
            inner,
        }
    }

    /// Reports one event under the structured key `key` and returns the
    /// fault to inject, if any [`FaultTrigger::OnKeyPrefix`] plan fires
    /// (checked in order; first match wins). Measurement, store and island
    /// layers call this; it does not count as a fitness call.
    pub fn fire(&self, key: &str) -> Option<FaultKind> {
        self.fired(key, None).next()
    }

    /// Reports one event under the structured key `key` and returns *every*
    /// fault whose [`FaultTrigger::OnKeyPrefix`] plan fires, in plan
    /// (insertion) order. Unlike [`FaultInjector::fire`], overlapping
    /// schedules compose: an `island:1:` stall and an `island:1:g3` kill
    /// armed together both fire on `island:1:g3#a1`, stall first. The
    /// island supervisor uses this so a single step attempt can carry
    /// several faults (e.g. a stalled connection that is then killed).
    pub fn fire_all(&self, key: &str) -> Vec<FaultKind> {
        self.fired(key, None).collect()
    }

    /// One fitness call on the candidate printed as `text`: advances the
    /// call counter and checks every trigger kind.
    fn fire_fitness(&self, text: &str) -> Option<FaultKind> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        self.fired(text, Some(call)).next()
    }

    /// The kinds of the plans firing on `key`, in plan order, each counted
    /// as injected when yielded. `call` is the fitness-call number, `None`
    /// for structured keys (which then match prefix plans only).
    fn fired<'s>(
        &'s self,
        key: &'s str,
        call: Option<u64>,
    ) -> impl Iterator<Item = FaultKind> + 's {
        let hash = call.map(|_| fnv1a(key.as_bytes()));
        self.plans
            .iter()
            .filter(move |plan| match (&plan.trigger, call, hash) {
                (FaultTrigger::OnKeyPrefix(prefix), _, _) => key.starts_with(prefix.as_str()),
                (FaultTrigger::OnCall(n), Some(call), _) => call == *n,
                (FaultTrigger::OnMatch { modulus, residue }, _, Some(hash)) => {
                    *modulus > 0 && hash % *modulus == *residue % *modulus
                }
                _ => false,
            })
            .map(|plan| {
                self.injected.fetch_add(1, Ordering::SeqCst);
                plan.kind
            })
    }
}

/// A [`FitnessFn`] with faults injected; produced by [`FaultInjector::wrap`].
pub struct InjectedFitness<'a, F> {
    injector: &'a FaultInjector,
    inner: &'a F,
}

impl<F: FitnessFn> FitnessFn for InjectedFitness<'_, F> {
    fn fitness(&self, expr: &FeatureExpr) -> Option<f64> {
        match self.injector.fire_fitness(&expr.to_string()) {
            Some(FaultKind::Panic) => panic!("injected fault: evaluator panic"),
            Some(FaultKind::ExhaustBudget) => None,
            Some(FaultKind::NanFitness) => Some(f64::NAN),
            Some(FaultKind::Cancel) => {
                self.injector.cancel.cancel();
                self.inner.fitness(expr)
            }
            Some(FaultKind::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.fitness(expr)
            }
            // I/O, island-supervision and transport faults have no meaning
            // on the fitness path; evaluate normally.
            Some(
                FaultKind::CorruptWrite
                | FaultKind::IslandKill
                | FaultKind::IslandStall(_)
                | FaultKind::SlowHeartbeat(_)
                | FaultKind::TornFrame
                | FaultKind::DuplicateFrame
                | FaultKind::SlowHandshake(_),
            )
            | None => self.inner.fitness(expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_feature;

    fn feature(text: &str) -> FeatureExpr {
        parse_feature(text).unwrap()
    }

    #[test]
    fn on_call_fires_exactly_once() {
        let inj = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnCall(2),
            kind: FaultKind::ExhaustBudget,
        }]);
        let inner = |_: &FeatureExpr| Some(1.0);
        let wrapped = inj.wrap(&inner);
        let f = feature("count(//*)");
        assert_eq!(wrapped.fitness(&f), Some(1.0));
        assert_eq!(wrapped.fitness(&f), None);
        assert_eq!(wrapped.fitness(&f), Some(1.0));
        assert_eq!(inj.calls(), 3);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn on_match_depends_only_on_the_candidate() {
        let inj = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnMatch {
                modulus: 1,
                residue: 0,
            },
            kind: FaultKind::NanFitness,
        }]);
        let inner = |_: &FeatureExpr| Some(1.0);
        let wrapped = inj.wrap(&inner);
        // modulus 1 matches everything, in any call order.
        for text in ["count(//*)", "1", "get-attr(@x)"] {
            let got = wrapped.fitness(&feature(text));
            assert!(got.is_some_and(f64::is_nan), "{text}: {got:?}");
        }
    }

    #[test]
    fn cancel_flips_the_token_and_still_evaluates() {
        let inj = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnCall(1),
            kind: FaultKind::Cancel,
        }]);
        let token = inj.cancel_token();
        assert!(!token.is_cancelled());
        let inner = |_: &FeatureExpr| Some(4.0);
        let wrapped = inj.wrap(&inner);
        // The faulting call still returns the inner result: interrupting
        // must not perturb search state relative to an uninterrupted run.
        assert_eq!(wrapped.fitness(&feature("1")), Some(4.0));
        assert!(token.is_cancelled());
    }

    #[test]
    fn key_prefix_targets_specific_events() {
        let inj = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("measure:jpeg_encode:".into()),
            kind: FaultKind::CorruptWrite,
        }]);
        assert_eq!(
            inj.fire("measure:jpeg_encode:kernel0#1"),
            Some(FaultKind::CorruptWrite)
        );
        assert_eq!(inj.fire("measure:jpeg_decode:kernel0#1"), None);
        assert_eq!(inj.fire("shard-write:jpeg_encode"), None);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn delay_and_corrupt_are_benign_on_the_fitness_path() {
        let inj = FaultInjector::new(vec![
            FaultPlan {
                trigger: FaultTrigger::OnCall(1),
                kind: FaultKind::Delay(1),
            },
            FaultPlan {
                trigger: FaultTrigger::OnCall(2),
                kind: FaultKind::CorruptWrite,
            },
        ]);
        let inner = |_: &FeatureExpr| Some(2.0);
        let wrapped = inj.wrap(&inner);
        let f = feature("1");
        assert_eq!(wrapped.fitness(&f), Some(2.0));
        assert_eq!(wrapped.fitness(&f), Some(2.0));
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn overlapping_prefix_schedules_compose_in_insertion_order() {
        // Three plans whose prefixes all cover the same key: `fire` keeps
        // its historical first-match-wins contract, while `fire_all`
        // returns every match in insertion order so island schedules can
        // stack a stall and a kill on one attempt.
        let inj = FaultInjector::new(vec![
            FaultPlan {
                trigger: FaultTrigger::OnKeyPrefix("island:1:".into()),
                kind: FaultKind::IslandStall(5),
            },
            FaultPlan {
                trigger: FaultTrigger::OnKeyPrefix("island:1:g3".into()),
                kind: FaultKind::IslandKill,
            },
            FaultPlan {
                trigger: FaultTrigger::OnKeyPrefix("island:".into()),
                kind: FaultKind::TornFrame,
            },
        ]);
        assert_eq!(inj.fire("island:1:g3#a1"), Some(FaultKind::IslandStall(5)));
        assert_eq!(
            inj.fire_all("island:1:g3#a1"),
            vec![
                FaultKind::IslandStall(5),
                FaultKind::IslandKill,
                FaultKind::TornFrame
            ],
            "every overlapping plan fires, in insertion order"
        );
        assert_eq!(
            inj.fire_all("island:1:g2#a1"),
            vec![FaultKind::IslandStall(5), FaultKind::TornFrame],
            "non-matching plans are skipped without disturbing the order"
        );
        assert_eq!(inj.fire_all("measure:x:y#a1"), vec![]);
        // 1 (fire) + 3 + 2 injected events so far; none was a fitness call.
        assert_eq!(inj.injected(), 6);
        assert_eq!(inj.calls(), 0);
    }

    #[test]
    fn structured_keys_match_only_prefix_plans_and_are_not_calls() {
        let inj = FaultInjector::new(vec![
            FaultPlan {
                trigger: FaultTrigger::OnCall(2),
                kind: FaultKind::ExhaustBudget,
            },
            FaultPlan {
                trigger: FaultTrigger::OnMatch {
                    modulus: 1,
                    residue: 0,
                },
                kind: FaultKind::IslandKill,
            },
        ]);
        for key in ["island:0:g1#a1", "measure:b:s#a1", "shard-write:b"] {
            assert_eq!(inj.fire(key), None, "{key}");
            assert_eq!(inj.fire_all(key), vec![], "{key}");
        }
        assert_eq!(inj.calls(), 0);
        assert_eq!(inj.injected(), 0);
        // The second *fitness* call is still the one `OnCall(2)` hits.
        let inner = |_: &FeatureExpr| Some(1.0);
        let wrapped = inj.wrap(&inner);
        let f = feature("1");
        assert_eq!(wrapped.fitness(&f), Some(1.0), "IslandKill is benign here");
        assert_eq!(wrapped.fitness(&f), None);
        assert_eq!(inj.calls(), 2);
    }

    #[test]
    fn injected_panic_unwinds() {
        let inj = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnCall(1),
            kind: FaultKind::Panic,
        }]);
        let inner = |_: &FeatureExpr| Some(0.0);
        let wrapped = inj.wrap(&inner);
        let f = feature("1");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wrapped.fitness(&f)
        }));
        assert!(result.is_err());
    }
}
