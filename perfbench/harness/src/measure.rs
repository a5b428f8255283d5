//! `measure`: a fork-once measurement campaign over the quick suite (57
//! benchmarks, 1,477 loop sites, 23,632 cells) with two jobs into a fresh
//! dataset store. The only workload where `sim`, `campaign` and `dataset`
//! do the work.

use crate::common::{
    campaign_config, fields_of, fresh_store, mean, median, peak_rss_mib, quantile, ratio,
    repeated_setup, telemetry_events, JOBS,
};
use crate::{Args, Outcome};
use fegen_bench::{
    campaign_fingerprint, run_campaign_with_telemetry, BenchmarkSnapshot, CampaignReport,
    DatasetStore, ExperimentConfig,
};
use fegen_core::{stable_hash, CancelToken, Telemetry, TelemetryConfig};
use std::path::Path;
use std::time::Instant;

/// Loop sites of the quick suite.
const EXPECTED_SITES: usize = 1_477;
/// `(site, factor)` cells of the quick suite.
const EXPECTED_CELLS: u64 = 23_632;
/// Digest of every shard file (name and bytes, in name order) the seed
/// commit's campaign writes.
const EXPECTED_SHARD_DIGEST: u64 = 0x63d6_f929_6a1d_9278;
/// Set-ups timed per run.
const SETUP_REPEATS: usize = 3;
/// The traced run times every this-many-th cell's fork.
const CELL_SAMPLE: usize = 5;

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let config = ExperimentConfig::quick();
    let campaign = campaign_config();
    let dir = args.work.join("dataset");
    // Set-up: the campaign identity (generates and lowers the whole suite
    // to digest its RTL) and an empty store.
    let (fingerprint, setup_s) = repeated_setup(SETUP_REPEATS, || {
        let fingerprint = campaign_fingerprint(&config, &campaign.sampling);
        fresh_store(&dir, fingerprint)?;
        Ok(fingerprint)
    })?;

    if args.trace {
        traced(args, out, fingerprint)?;
    } else {
        let started = Instant::now();
        let mut walls = Vec::new();
        let mut rates = Vec::new();
        while walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            let (wall, report, digest) = campaign_once(&dir, fingerprint, &Telemetry::disabled())?;
            let ok = gate(&report, digest);
            out.op(ok);
            walls.push(wall);
            rates.push(report.forks as f64 / wall);
        }
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("unit_s", median(&walls));
        out.metrics.set("items_per_s", median(&rates));
        out.metrics.set("peak_rss_mib", peak_rss_mib(None)?);
    }
    Ok(())
}

/// One campaign into a fresh store: wall seconds, the report and the
/// shard digest.
fn campaign_once(
    dir: &Path,
    fingerprint: u64,
    telemetry: &Telemetry,
) -> Result<(f64, CampaignReport, u64), String> {
    let config = ExperimentConfig::quick();
    let store = fresh_store(dir, fingerprint)?.with_telemetry(telemetry.clone());
    let started = Instant::now();
    let report = run_campaign_with_telemetry(
        &config,
        &campaign_config(),
        &store,
        None,
        &CancelToken::new(),
        telemetry,
    )
    .map_err(|e| format!("campaign: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    Ok((wall, report, shard_digest(&store)?))
}

/// Digest of every shard file, names and bytes, in name order.
fn shard_digest(store: &DatasetStore) -> Result<u64, String> {
    let shards = store.dir().join(fegen_bench::dataset::SHARD_DIR);
    let mut paths: Vec<_> = std::fs::read_dir(&shards)
        .map_err(|e| format!("listing {}: {e}", shards.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let mut bytes = Vec::new();
    for p in &paths {
        bytes.extend(p.file_name().unwrap_or_default().as_encoded_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(p).map_err(|e| format!("reading {}: {e}", p.display()))?);
    }
    Ok(stable_hash(&bytes))
}

/// The measure gate: every site measured, nothing quarantined, every cell
/// forked, and shards byte-identical to the seed commit's.
fn gate(report: &CampaignReport, digest: u64) -> bool {
    let ok = report.sites_measured == EXPECTED_SITES
        && report.quarantined.is_empty()
        && report.forks == EXPECTED_CELLS
        && digest == EXPECTED_SHARD_DIGEST;
    if !ok {
        eprintln!(
            "perfbench: measure gate failed: {} site(s), {} quarantined, {} cell(s), \
             shard digest {digest:#018x} (want {EXPECTED_SITES}, 0, {EXPECTED_CELLS}, \
             {EXPECTED_SHARD_DIGEST:#018x})",
            report.sites_measured,
            report.quarantined.len(),
            report.forks
        );
    }
    ok
}

/// The traced run: one campaign with the program's telemetry on, then the
/// `sim` layer timed from outside (snapshot builds and sampled cell forks).
fn traced(args: &Args, out: &mut Outcome, fingerprint: u64) -> Result<(), String> {
    let tel_dir = args.work.join("telemetry");
    let telemetry = TelemetryConfig {
        dir: Some(tel_dir.clone()),
        ..TelemetryConfig::default()
    }
    .build()
    .map_err(|e| format!("telemetry: {e}"))?;
    let (wall, report, digest) =
        campaign_once(&args.work.join("dataset"), fingerprint, &telemetry)?;
    drop(telemetry);
    out.op(gate(&report, digest));
    let events = telemetry_events(&tel_dir)?;
    let bench_us: f64 = fields_of(&events, "bench_done", "dur_us").iter().sum();
    let shard_us = fields_of(&events, "shard_write", "dur_us");
    let cells = report.forks as f64;

    // sim, from outside: every benchmark's snapshot build, and a fixed
    // sample of its cells forked one by one.
    let config = ExperimentConfig::quick();
    let mut build_s = 0.0;
    let mut cell_us = Vec::new();
    let mut index = 0usize;
    for b in fegen_suite::generate_suite(&config.suite) {
        let started = Instant::now();
        let snap = BenchmarkSnapshot::try_build(&b, &config.oracle)
            .map_err(|e| format!("snapshot {}: {e}", b.name))?;
        build_s += started.elapsed().as_secs_f64();
        for site in &snap.sites {
            for factor in 0..=config.oracle.max_factor {
                if index.is_multiple_of(CELL_SAMPLE) {
                    let started = Instant::now();
                    std::hint::black_box(snap.fork(site, factor))
                        .map_err(|e| format!("fork {}:{site}x{factor}: {e}", b.name))?;
                    cell_us.push(started.elapsed().as_secs_f64() * 1e6);
                }
                index += 1;
            }
        }
    }
    let worker_s = JOBS as f64 * wall;
    let sim_s = build_s + cells * mean(&cell_us) * 1e-6;
    let shard_s: f64 = shard_us.iter().sum::<f64>() * 1e-6;
    let m = &mut out.metrics;
    m.set("sim.snapshot_build_s", build_s);
    m.set("sim.cell_us.p50", median(&cell_us));
    m.set("sim.cell_us.p99", quantile(&cell_us, 0.99));
    m.set(
        "sim.init_reuse_ratio",
        ratio(report.init_forks as f64, cells),
    );
    m.set(
        "campaign.escalated_ratio",
        ratio(report.escalated_cells as f64, cells),
    );
    m.set("campaign.retries", report.retries as f64);
    m.set("campaign.quarantined", report.quarantined.len() as f64);
    m.set("campaign.busy_ratio", ratio(bench_us * 1e-6, worker_s));
    m.set("dataset.shard_write_ms.p50", median(&shard_us) * 1e-3);
    m.set(
        "measure.unattributed_pct",
        100.0 * ratio(worker_s - sim_s - shard_s, worker_s),
    );
    Ok(())
}
