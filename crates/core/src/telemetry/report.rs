//! Offline reader for the JSONL event log: `fegen report`.
//!
//! Reads `events.jsonl` line by line (skipping at most one truncated tail
//! line left by a hard kill), aggregates the events and renders a run
//! summary: progress and ETA of an in-flight campaign, the slowest spans
//! (sites), eval-engine cache statistics, the GP fitness trajectory and the
//! campaign's retry/quarantine tallies.

use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use super::EVENTS_FILE;

/// Event kinds this reader knows how to aggregate. A directory whose log
/// contains *only* kinds outside this list is almost certainly from a
/// different (newer/foreign) producer; summarizing it would print an
/// empty-looking report that reads as "the run did nothing", so
/// [`summarize_dir`] refuses with a typed error instead.
pub const KNOWN_KINDS: &[&str] = &[
    "campaign_start",
    "bench_done",
    "retry",
    "quarantine",
    "span",
    "metric",
    "checkpoint",
    "feature_step",
    "kfold_clamped",
    "search_start",
    "search_done",
    "shard_write",
    "gp_generation",
    "islands_start",
    "island_restart",
    "island_frozen",
    "island_heartbeat_missed",
    "island_migration",
    "island_converged",
    "island_done",
    "worker_respawn",
    "worker_frozen",
    "serve_start",
    "serve_request",
    "serve_reload",
    "serve_reload_failed",
];

/// Why a telemetry directory could not be summarized.
#[derive(Debug)]
pub enum ReportError {
    /// The directory or its `events.jsonl` could not be read.
    Io(io::Error),
    /// The log parsed, but every event kind is unknown to this reader —
    /// the summary would be silently empty, so we refuse instead.
    UnknownKindsOnly {
        /// The distinct kinds found, for the error message.
        kinds: Vec<String>,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Io(e) => write!(f, "cannot read telemetry: {e}"),
            ReportError::UnknownKindsOnly { kinds } => write!(
                f,
                "telemetry log contains only unknown event kind(s) [{}]; \
                 this reader would render an empty summary — was the log \
                 written by a newer fegen?",
                kinds.join(", ")
            ),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<io::Error> for ReportError {
    fn from(e: io::Error) -> Self {
        ReportError::Io(e)
    }
}

/// One parsed event line.
#[derive(Debug, Clone)]
pub struct ParsedEvent {
    pub seq: u64,
    pub ts_ms: u64,
    pub kind: String,
    pub fields: Value,
}

/// Looks up a key in a JSON map value.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A field as an unsigned integer (accepting any non-negative number).
pub fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match field(v, key)? {
        Value::U64(u) => Some(*u),
        Value::I64(i) if *i >= 0 => Some(*i as u64),
        Value::F64(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
        _ => None,
    }
}

/// A field as a float (accepting any number).
pub fn field_f64(v: &Value, key: &str) -> Option<f64> {
    match field(v, key)? {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

/// A field as a string slice.
pub fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key)? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// A field as a boolean.
pub fn field_bool(v: &Value, key: &str) -> Option<bool> {
    match field(v, key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Reads and parses every well-formed line of `dir/events.jsonl`.
/// Unparsable lines are counted, not fatal (a killed run may leave one).
pub fn read_events(dir: &Path) -> io::Result<(Vec<ParsedEvent>, usize)> {
    let path = dir.join(EVENTS_FILE);
    let file = std::fs::File::open(&path)?;
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Value>(&line) {
            Ok(v) => {
                let parsed = (
                    field_u64(&v, "seq"),
                    field_u64(&v, "ts_ms"),
                    field_str(&v, "kind").map(str::to_owned),
                );
                match parsed {
                    (Some(seq), Some(ts_ms), Some(kind)) => events.push(ParsedEvent {
                        seq,
                        ts_ms,
                        kind,
                        fields: v,
                    }),
                    _ => skipped += 1,
                }
            }
            Err(_) => skipped += 1,
        }
    }
    Ok((events, skipped))
}

fn fmt_dur_ms(ms: u64) -> String {
    let s = ms / 1000;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}.{:01}s", s, (ms % 1000) / 100)
    }
}

fn fmt_dur_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", 100.0 * hits as f64 / total as f64)
    }
}

/// Renders the run summary from parsed events.
pub fn render(events: &[ParsedEvent], skipped: usize) -> String {
    let mut out = String::new();
    if events.is_empty() {
        let _ = writeln!(out, "telemetry: no events");
        return out;
    }

    // Header: event counts, wall-clock window, sequence integrity.
    let first_ts = events.iter().map(|e| e.ts_ms).min().unwrap_or(0);
    let last_ts = events.iter().map(|e| e.ts_ms).max().unwrap_or(0);
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for e in events {
        *kinds.entry(&e.kind).or_insert(0) += 1;
    }
    let _ = writeln!(
        out,
        "telemetry: {} event(s) over {} ({} kind(s){})",
        events.len(),
        fmt_dur_ms(last_ts.saturating_sub(first_ts)),
        kinds.len(),
        if skipped > 0 {
            format!(", {skipped} unparsable line(s) skipped")
        } else {
            String::new()
        }
    );
    let kind_list: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}×{n}")).collect();
    let _ = writeln!(out, "  kinds: {}", kind_list.join(" "));

    // Campaign progress + ETA.
    let total: Option<u64> = events
        .iter()
        .rev()
        .find(|e| e.kind == "campaign_start")
        .and_then(|e| field_u64(&e.fields, "total"));
    let done: Vec<&ParsedEvent> = events.iter().filter(|e| e.kind == "bench_done").collect();
    if let Some(total) = total {
        let reused = done
            .iter()
            .filter(|e| field_bool(&e.fields, "resumed").unwrap_or(false))
            .count() as u64;
        let measured = done.len() as u64 - reused;
        let _ = writeln!(
            out,
            "campaign: {}/{} benchmark(s) done ({} measured, {} reused)",
            done.len(),
            total,
            measured,
            reused
        );
        let remaining = total.saturating_sub(done.len() as u64);
        if remaining > 0 && !done.is_empty() {
            let avg_us: f64 = done
                .iter()
                .filter_map(|e| field_u64(&e.fields, "dur_us"))
                .sum::<u64>() as f64
                / done.len() as f64;
            let eta_ms = (avg_us * remaining as f64 / 1000.0) as u64;
            let _ = writeln!(
                out,
                "  ETA: ~{} for the remaining {remaining} benchmark(s)",
                fmt_dur_ms(eta_ms)
            );
        }
        let retries = events.iter().filter(|e| e.kind == "retry").count();
        let quarantined = events.iter().filter(|e| e.kind == "quarantine").count();
        let _ = writeln!(
            out,
            "  resilience: {retries} retried attempt(s), {quarantined} quarantine event(s)"
        );
    }

    // Slowest spans (the campaign labels per-site work `site:<bench>:<site>`).
    let mut spans: Vec<(&str, u64)> = events
        .iter()
        .filter(|e| e.kind == "span")
        .filter_map(|e| {
            Some((
                field_str(&e.fields, "path")?,
                field_u64(&e.fields, "dur_us")?,
            ))
        })
        .collect();
    if !spans.is_empty() {
        spans.sort_by_key(|&(_, dur)| std::cmp::Reverse(dur));
        let _ = writeln!(out, "slowest spans:");
        for (path, dur) in spans.iter().take(8) {
            let _ = writeln!(out, "  {:>10}  {path}", fmt_dur_us(*dur));
        }
    }

    // Eval-engine statistics: last cumulative emission per metric name.
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "metric") {
        if let (Some(name), Some(v)) = (
            field_str(&e.fields, "metric"),
            field_f64(&e.fields, "value"),
        ) {
            metrics.insert(name.to_owned(), v);
        }
    }
    let get = |name: &str| metrics.get(name).copied().unwrap_or(0.0) as u64;
    let vm = get("eval.vm_evals");
    let interp = get("eval.interp_evals");
    if vm + interp > 0 {
        let _ = writeln!(
            out,
            "eval engine: {} evaluation(s) ({} vm, {} interpreter)",
            vm + interp,
            vm,
            interp
        );
        let _ = writeln!(
            out,
            "  program cache: {} hit rate ({} hits / {} misses)",
            rate(get("eval.program_hits"), get("eval.program_misses")),
            get("eval.program_hits"),
            get("eval.program_misses"),
        );
        let fast = get("eval.path_fast");
        let plan = get("eval.path_plan");
        if fast + plan > 0 {
            let _ = writeln!(out, "  vm paths:      {fast} fast / {plan} loop-nest");
        }
        let judged = get("fitness.judged");
        let reused = get("fitness.reused");
        if judged + reused > 0 {
            let _ = writeln!(
                out,
                "  fitness reuse: {} ({reused} reused / {judged} judged)",
                rate(reused, judged),
            );
        }
    }

    // Fork-once campaign accounting: snapshots built, cells forked off
    // them, and how much shared work the snapshots actually saved.
    let snapshots = get("campaign.snapshot_builds");
    if snapshots > 0 {
        let forks = get("campaign.forks");
        let init_forks = get("campaign.init_forks");
        let _ = writeln!(
            out,
            "fork-once: {snapshots} snapshot(s) built, {forks} cell(s) forked \
             ({init_forks} reusing pre-warmed init state)"
        );
        let insns = get("campaign.sim_insns");
        if forks > 0 && insns > 0 {
            let _ = writeln!(
                out,
                "  simulated: {insns} instruction(s), {:.0} per cell",
                insns as f64 / forks as f64
            );
        }
        if let Some(reuse) = metrics.get("campaign.snapshot_reuse_rate") {
            let _ = writeln!(
                out,
                "  image reuse: {:.1}% of per-function decoded images served from the snapshot",
                reuse * 100.0
            );
        }
    }

    // GP trajectory: generations seen, last best/mean, stagnation.
    let gens: Vec<&ParsedEvent> = events
        .iter()
        .filter(|e| e.kind == "gp_generation")
        .collect();
    if let Some(last) = gens.last() {
        let best = field_f64(&last.fields, "best").unwrap_or(f64::NAN);
        let mean = field_f64(&last.fields, "mean").unwrap_or(f64::NAN);
        let stagnant = field_u64(&last.fields, "stagnant").unwrap_or(0);
        let _ = writeln!(
            out,
            "gp: {} generation event(s); last best {best:.4}, mean {mean:.4}, stagnant {stagnant}",
            gens.len()
        );
    }

    // Islands: restarts, freezes, heartbeats, migrations, slowest island —
    // the search-phase mirror of the campaign resilience tally — plus the
    // transport tally when a framed executor stepped them. Restarts and
    // respawns are observational; frozen islands are the only degradation
    // that reaches the merge.
    if let Some(start) = events.iter().rev().find(|e| e.kind == "islands_start") {
        let islands = field_u64(&start.fields, "islands").unwrap_or(0);
        let workers = field_u64(&start.fields, "workers").unwrap_or(1);
        let executor = field_str(&start.fields, "executor").unwrap_or("in-process");
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
        let restarts: u64 = events
            .iter()
            .filter(|e| e.kind == "island_restart")
            .filter_map(|e| field_u64(&e.fields, "restarts"))
            .sum();
        let rounds = events
            .iter()
            .filter(|e| e.kind == "island_migration")
            .filter_map(|e| field_u64(&e.fields, "round"))
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "islands: {islands} island(s), {workers} worker(s), executor {executor}"
        );
        let _ = writeln!(
            out,
            "  resilience: {restarts} restarted step(s), {} frozen island(s), \
             {} missed heartbeat(s)",
            count("island_frozen"),
            count("island_heartbeat_missed")
        );
        let _ = writeln!(
            out,
            "  migration: {} exchange(s), last at round {rounds}",
            count("island_migration")
        );
        // Last word per island wins: a resumed run re-reports them.
        let mut done: BTreeMap<u64, (String, u64)> = BTreeMap::new();
        for e in events.iter().filter(|e| e.kind == "island_done") {
            if let Some(id) = field_u64(&e.fields, "island") {
                done.insert(
                    id,
                    (
                        field_str(&e.fields, "status").unwrap_or("?").to_owned(),
                        field_u64(&e.fields, "step_us").unwrap_or(0),
                    ),
                );
            }
        }
        if let Some((id, (status, dur))) = done
            .iter()
            .max_by_key(|(id, (_, dur))| (*dur, u64::MAX - *id))
        {
            let _ = writeln!(
                out,
                "  slowest island: {id} ({}, {status})",
                fmt_dur_us(*dur)
            );
        }
        if executor != "in-process" {
            let _ = writeln!(
                out,
                "  frames: {} handshake(s), {} sent / {} received, {} duplicate(s) dropped, \
                 {} digest/handshake rejection(s), {} worker respawn(s)",
                get("worker.handshakes"),
                get("worker.frames_tx"),
                get("worker.frames_rx"),
                get("worker.duplicates_dropped"),
                get("worker.digest_rejections"),
                count("worker_respawn"),
            );
        }
    }

    // Serve daemon: request volume, cache behavior, hot reloads. Gauges
    // are cumulative, so the last emission is the daemon's final word.
    if events.iter().any(|e| e.kind == "serve_start") || metrics.contains_key("serve.requests") {
        let requests = get("serve.requests");
        let loops = get("serve.loops_evaluated");
        let errors = get("serve.errors");
        let _ = writeln!(
            out,
            "serve: {requests} request(s), {loops} loop(s) evaluated, {errors} error(s)"
        );
        let _ = writeln!(
            out,
            "  arena cache:   {} hit rate ({} hits / {} misses), {} entries, {} eviction(s)",
            rate(get("serve.arena_hits"), get("serve.arena_misses")),
            get("serve.arena_hits"),
            get("serve.arena_misses"),
            get("serve.arena_entries"),
            get("serve.arena_evictions"),
        );
        let _ = writeln!(
            out,
            "  program cache: {} hit rate ({} hits / {} misses), {} eviction(s)",
            rate(get("serve.pool_program_hits"), get("serve.pool_program_misses")),
            get("serve.pool_program_hits"),
            get("serve.pool_program_misses"),
            get("serve.pool_program_evictions"),
        );
        let _ = writeln!(
            out,
            "  feature failures: {} (loop, feature) evaluation(s) answered with 0.0",
            get("serve.feature_failures"),
        );
        let _ = writeln!(
            out,
            "  queue depth peak: {}; reloads: {} ({} failed)",
            get("serve.queue_depth_peak"),
            get("serve.reloads"),
            get("serve.reload_failures"),
        );
    }

    // Checkpoint write latency.
    let ckpt: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "checkpoint")
        .filter_map(|e| field_u64(&e.fields, "dur_us"))
        .collect();
    if !ckpt.is_empty() {
        let max = ckpt.iter().copied().max().unwrap_or(0);
        let sum: u64 = ckpt.iter().sum();
        let _ = writeln!(
            out,
            "checkpoints: {} write(s), mean {}, max {}",
            ckpt.len(),
            fmt_dur_us(sum / ckpt.len() as u64),
            fmt_dur_us(max)
        );
    }

    out
}

/// Convenience wrapper: read `dir/events.jsonl` and render the summary.
///
/// # Errors
///
/// [`ReportError::Io`] when the log cannot be read;
/// [`ReportError::UnknownKindsOnly`] when the log is non-empty but every
/// event kind is foreign to this reader — a summary of it would be a
/// misleading zero-report, so the caller gets a typed refusal instead.
pub fn summarize_dir(dir: &Path) -> Result<String, ReportError> {
    let (events, skipped) = read_events(dir)?;
    if !events.is_empty() && !events.iter().any(|e| KNOWN_KINDS.contains(&e.kind.as_str())) {
        let mut kinds: Vec<String> = events.iter().map(|e| e.kind.clone()).collect();
        kinds.sort();
        kinds.dedup();
        return Err(ReportError::UnknownKindsOnly { kinds });
    }
    Ok(render(&events, skipped))
}

/// Verifies the structural invariants the sink promises: every line parses
/// (at most one truncated tail tolerated by `read_events`) and sequence
/// numbers are strictly increasing in file order. Returns the event count.
pub fn check_integrity(dir: &Path) -> io::Result<Result<usize, String>> {
    let (events, skipped) = read_events(dir)?;
    if skipped > 0 {
        return Ok(Err(format!("{skipped} unparsable line(s)")));
    }
    for pair in events.windows(2) {
        if pair[1].seq <= pair[0].seq {
            return Ok(Err(format!(
                "sequence not strictly increasing: {} then {}",
                pair[0].seq, pair[1].seq
            )));
        }
    }
    Ok(Ok(events.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fegen-report-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn summarizes_a_small_run() {
        let dir = tmp_dir("small");
        let t = Telemetry::to_dir(&dir).expect("open");
        t.event("campaign_start").u64("total", 3).emit();
        t.event("bench_done")
            .str("bench", "a")
            .u64("dur_us", 1000)
            .bool("resumed", false)
            .emit();
        t.event("bench_done")
            .str("bench", "b")
            .u64("dur_us", 3000)
            .bool("resumed", true)
            .emit();
        t.event("retry").str("site", "a:k0#1").emit();
        {
            let _s = t.span("site:a:k0#1");
        }
        t.counter_add("eval.vm_evals", 10);
        t.counter_add("eval.interp_evals", 2);
        t.counter_add("eval.program_hits", 8);
        t.counter_add("eval.program_misses", 2);
        t.counter_add("eval.path_fast", 6);
        t.counter_add("eval.path_plan", 4);
        t.gauge_set("fitness.judged", 144.0);
        t.gauge_set("fitness.reused", 330.0);
        t.counter_add("campaign.snapshot_builds", 3);
        t.counter_add("campaign.forks", 320);
        t.counter_add("campaign.init_forks", 300);
        t.counter_add("campaign.sim_insns", 48_000);
        t.gauge_set("campaign.snapshot_reuse_rate", 0.75);
        t.emit_metrics("eval_pool");
        t.event("gp_generation")
            .u64("generation", 5)
            .f64("best", 0.9)
            .f64("mean", 0.5)
            .u64("stagnant", 1)
            .emit();
        t.event("checkpoint").u64("dur_us", 500).emit();
        drop(t);

        let summary = summarize_dir(&dir).expect("summarize");
        assert!(summary.contains("2/3 benchmark(s) done"), "{summary}");
        assert!(summary.contains("1 measured, 1 reused"), "{summary}");
        assert!(summary.contains("ETA"), "{summary}");
        assert!(summary.contains("site:a:k0#1"), "{summary}");
        assert!(summary.contains("80.0%"), "{summary}");
        assert!(summary.contains("12 evaluation(s)"), "{summary}");
        assert!(
            summary.contains("vm paths:      6 fast / 4 loop-nest\n"),
            "{summary}"
        );
        assert!(
            summary.contains("fitness reuse: 69.6% (330 reused / 144 judged)\n"),
            "{summary}"
        );
        assert!(
            summary.contains("3 snapshot(s) built, 320 cell(s) forked"),
            "{summary}"
        );
        assert!(summary.contains("image reuse: 75.0%"), "{summary}");
        assert!(
            summary.contains("simulated: 48000 instruction(s), 150 per cell"),
            "{summary}"
        );
        assert!(summary.contains("best 0.9000"), "{summary}");
        assert!(summary.contains("checkpoints: 1 write(s)"), "{summary}");
        assert!(
            matches!(check_integrity(&dir).expect("read"), Ok(n) if n > 0),
            "integrity"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An island run's log; `executor` is the `islands_start` field.
    fn island_log(dir: &std::path::Path, executor: &str) {
        let t = Telemetry::to_dir(dir).expect("open");
        t.event("islands_start")
            .u64("islands", 4)
            .u64("migration_every", 3)
            .u64("restart_limit", 2)
            .u64("workers", 2)
            .str("executor", executor)
            .emit();
        t.event("gp_generation")
            .u64("island", 0)
            .u64("generation", 1)
            .f64("best", 1.25)
            .f64("mean", 1.0)
            .u64("stagnant", 0)
            .emit();
        t.event("island_restart")
            .u64("island", 1)
            .u64("generation", 3)
            .u64("restarts", 2)
            .emit();
        t.event("worker_respawn")
            .u64("worker", 1)
            .u64("island", 1)
            .emit();
        t.event("island_frozen")
            .u64("island", 1)
            .u64("generations", 2)
            .u64("restarts", 3)
            .emit();
        t.event("island_heartbeat_missed")
            .u64("island", 3)
            .u64("overdue_ms", 900)
            .u64("deadline_ms", 250)
            .emit();
        t.event("island_migration")
            .u64("round", 3)
            .u64("from", 0)
            .u64("to", 1)
            .f64("quality", 1.5)
            .emit();
        t.event("island_migration")
            .u64("round", 6)
            .u64("from", 2)
            .u64("to", 3)
            .f64("quality", 1.7)
            .emit();
        for id in 0..4u64 {
            t.event("island_done")
                .u64("island", id)
                .str("status", if id == 1 { "frozen" } else { "converged" })
                .u64("generations", 6)
                .u64("restarts", u64::from(id == 1) * 3)
                .u64("step_us", 1_000 * (id + 1))
                .emit();
        }
        t.counter_add("worker.handshakes", 3);
        t.counter_add("worker.frames_tx", 40);
        t.counter_add("worker.frames_rx", 38);
        t.counter_add("worker.duplicates_dropped", 1);
        t.counter_add("worker.digest_rejections", 1);
        t.emit_metrics("eval_pool");
    }

    #[test]
    fn summarizes_in_process_islands() {
        let dir = tmp_dir("islands");
        island_log(&dir, "in-process");
        let summary = summarize_dir(&dir).expect("summarize");
        assert!(
            summary.contains("islands: 4 island(s), 2 worker(s), executor in-process"),
            "{summary}"
        );
        assert!(
            summary.contains("2 restarted step(s), 1 frozen island(s), 1 missed heartbeat(s)"),
            "{summary}"
        );
        assert!(
            summary.contains("2 exchange(s), last at round 6"),
            "{summary}"
        );
        assert!(summary.contains("slowest island: 3"), "{summary}");
        assert!(summary.contains("gp: 1 generation event(s)"), "{summary}");
        assert!(
            !summary.contains("frames:"),
            "in-process has no frames: {summary}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summarizes_framed_islands_with_frame_counters() {
        let dir = tmp_dir("framed");
        island_log(&dir, "stdio");
        let summary = summarize_dir(&dir).expect("summarize");
        assert!(
            summary.contains("islands: 4 island(s), 2 worker(s), executor stdio"),
            "{summary}"
        );
        assert!(
            summary.contains("2 restarted step(s), 1 frozen island(s), 1 missed heartbeat(s)"),
            "{summary}"
        );
        assert!(
            summary.contains(
                "frames: 3 handshake(s), 40 sent / 38 received, 1 duplicate(s) dropped, \
                 1 digest/handshake rejection(s), 1 worker respawn(s)"
            ),
            "{summary}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn integrity_flags_bad_sequences() {
        let dir = tmp_dir("badseq");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join(EVENTS_FILE),
            "{\"seq\":1,\"ts_ms\":0,\"kind\":\"a\"}\n{\"seq\":1,\"ts_ms\":0,\"kind\":\"b\"}\n",
        )
        .expect("write");
        let got = check_integrity(&dir).expect("read");
        assert!(got.is_err(), "{got:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_log_renders() {
        let s = render(&[], 0);
        assert!(s.contains("no events"));
    }

    #[test]
    fn unknown_kinds_only_is_a_typed_error_not_a_zero_summary() {
        let dir = tmp_dir("unknown");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join(EVENTS_FILE),
            "{\"seq\":1,\"ts_ms\":0,\"kind\":\"zorp\"}\n\
             {\"seq\":2,\"ts_ms\":1,\"kind\":\"blip\",\"n\":3}\n",
        )
        .expect("write");
        match summarize_dir(&dir) {
            Err(ReportError::UnknownKindsOnly { kinds }) => {
                assert_eq!(kinds, vec!["blip".to_string(), "zorp".to_string()]);
            }
            other => panic!("expected UnknownKindsOnly, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_kinds_mixed_with_known_still_summarize() {
        let dir = tmp_dir("mixed");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join(EVENTS_FILE),
            "{\"seq\":1,\"ts_ms\":0,\"kind\":\"zorp\"}\n\
             {\"seq\":2,\"ts_ms\":1,\"kind\":\"checkpoint\",\"dur_us\":500}\n",
        )
        .expect("write");
        let summary = summarize_dir(&dir).expect("mixed logs still summarize");
        assert!(summary.contains("checkpoints: 1 write(s)"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_io_error() {
        let dir = tmp_dir("absent");
        assert!(matches!(summarize_dir(&dir), Err(ReportError::Io(_))));
    }

    #[test]
    fn summarizes_serve_daemon() {
        let dir = tmp_dir("serve");
        let t = Telemetry::to_dir(&dir).expect("open");
        t.event("serve_start")
            .str("model", "model.fgm")
            .u64("model_digest", 7)
            .u64("n_features", 2)
            .u64("arena_cache_cap", 32)
            .emit();
        t.gauge_set("serve.requests", 10.0);
        t.gauge_set("serve.loops_evaluated", 40.0);
        t.gauge_set("serve.errors", 1.0);
        t.gauge_set("serve.arena_hits", 30.0);
        t.gauge_set("serve.arena_misses", 10.0);
        t.gauge_set("serve.arena_entries", 8.0);
        t.gauge_set("serve.arena_evictions", 2.0);
        t.gauge_set("serve.pool_program_hits", 78.0);
        t.gauge_set("serve.pool_program_misses", 2.0);
        t.gauge_set("serve.pool_program_evictions", 0.0);
        t.gauge_set("serve.queue_depth_peak", 3.0);
        t.gauge_set("serve.reloads", 1.0);
        t.gauge_set("serve.reload_failures", 1.0);
        t.gauge_set("serve.feature_failures", 5.0);
        t.emit_metrics("serve");
        drop(t);

        let summary = summarize_dir(&dir).expect("summarize");
        assert!(
            summary.contains("serve: 10 request(s), 40 loop(s) evaluated, 1 error(s)"),
            "{summary}"
        );
        assert!(
            summary.contains("arena cache:   75.0% hit rate (30 hits / 10 misses), 8 entries, 2 eviction(s)"),
            "{summary}"
        );
        assert!(
            summary.contains("program cache: 97.5% hit rate (78 hits / 2 misses), 0 eviction(s)"),
            "{summary}"
        );
        assert!(
            summary.contains("feature failures: 5 (loop, feature) evaluation(s) answered with 0.0"),
            "{summary}"
        );
        assert!(
            summary.contains("queue depth peak: 3; reloads: 1 (1 failed)"),
            "{summary}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
