//! Helpers shared by the workloads: statistics, the result line, peak
//! memory, telemetry log reading and the quick-suite data set-up.

use crate::Outcome;
use fegen_bench::{
    campaign_fingerprint, load_suite_data, run_campaign, CampaignConfig, CampaignReport,
    DatasetStore, ExperimentConfig, SamplingPolicy, SuiteData,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Parallel campaign workers, for the `measure` workload and for every
/// workload's data set-up.
pub const JOBS: usize = 2;

/// Times a repeated set-up: run `f` `repeats` times, keep the last result
/// and report the median duration in seconds.
pub fn repeated_setup<T>(
    repeats: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous result first, so set-ups do not pile up memory.
        drop(last.take());
        let started = Instant::now();
        let value = f()?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up ran"), median(&times)))
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Linear-interpolated quantile of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The 99th percentile, or the highest percentile that still has at least
/// ten samples beyond it when there are fewer than 1,000 samples.
pub fn tail(xs: &[f64]) -> f64 {
    if xs.len() < 11 {
        return xs.iter().copied().fold(0.0, f64::max);
    }
    let q = (1.0 - 10.0 / xs.len() as f64).min(0.99);
    quantile(xs, q)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// The result line: `names` in order, a metric the run did not set
    /// reading 0 (the layer did no work on this workload).
    pub fn to_json(&self, outcome: &Outcome, names: &[(&str, &str)]) -> String {
        let mut fields = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let mut value = self.0.get(*name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} is not finite ({value}); reported as 0");
                value = 0.0;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            fields.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing `{line}`: {e}"))?;
    Ok(kib / 1024.0)
}

/// The events of a telemetry directory's JSONL log, one line each.
pub fn telemetry_events(dir: &Path) -> Result<Vec<String>, String> {
    let path = dir.join(fegen_core::telemetry::EVENTS_FILE);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text.lines().map(str::to_owned).collect())
}

/// The raw value text of a top-level `"key":value` field of one event
/// line (the program writes flat objects whose string values hold no
/// escaped quotes in the fields read here).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The `kind` of an event line.
pub fn kind(line: &str) -> &str {
    field(line, "kind").unwrap_or("")
}

/// A numeric field of an event line.
pub fn num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// The last value of a metric event named `name` (counters and gauges are
/// cumulative, so the last one is the total).
pub fn last_metric(events: &[String], name: &str) -> f64 {
    events
        .iter()
        .rev()
        .filter(|l| kind(l) == "metric" && field(l, "metric") == Some(name))
        .find_map(|l| num(l, "value"))
        .unwrap_or(0.0)
}

/// Numeric field `key` of every event of kind `k`.
pub fn fields_of(events: &[String], k: &str, key: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|l| kind(l) == k)
        .filter_map(|l| num(l, key))
        .collect()
}

/// A fresh, empty dataset store at `dir` for the quick suite.
pub fn fresh_store(dir: &Path, fingerprint: u64) -> Result<DatasetStore, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    DatasetStore::open(dir, fingerprint).map_err(|e| format!("opening dataset: {e}"))
}

/// The campaign configuration every workload measures with.
pub fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        jobs: JOBS,
        sampling: SamplingPolicy::default(),
        ..CampaignConfig::default()
    }
}

/// Measures the quick suite into a fresh store under `dir` and loads it
/// back: the pipeline's data stage, as `run_all --dataset-dir` runs it.
pub fn suite_data(dir: &Path) -> Result<(SuiteData, CampaignReport), String> {
    let config = ExperimentConfig::quick();
    let campaign = campaign_config();
    let store = fresh_store(dir, campaign_fingerprint(&config, &campaign.sampling))?;
    let report = run_campaign(
        &config,
        &campaign,
        &store,
        None,
        &fegen_core::CancelToken::new(),
    )
    .map_err(|e| format!("campaign: {e}"))?;
    let (data, quarantined) =
        load_suite_data(&config, &store).map_err(|e| format!("loading dataset: {e}"))?;
    if !quarantined.is_empty() {
        return Err(format!("{} quarantined site(s)", quarantined.len()));
    }
    Ok((data, report))
}
