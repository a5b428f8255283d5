//! Terminal reporting: the figures as ASCII bar charts and tables, plus
//! the measurement-campaign summary.

use crate::campaign::CampaignReport;
use crate::pipeline::mean;
use fegen_ml::metrics::percent_of_max;
use std::fmt::Write;

/// Renders a horizontal bar for a speedup value (1.0 = no change), scaled
/// so `max_speedup` fills `width` characters. Slowdowns render as `▒` bars
/// to the left marker.
pub fn speedup_bar(speedup: f64, max_speedup: f64, width: usize) -> String {
    let span = (max_speedup - 1.0).max(1e-9);
    if speedup >= 1.0 {
        let n = (((speedup - 1.0) / span) * width as f64).round() as usize;
        "█".repeat(n.min(width))
    } else {
        let n = (((1.0 - speedup) / span) * width as f64).round() as usize;
        format!("-{}", "▒".repeat(n.min(width)))
    }
}

/// A per-benchmark comparison table with one bar column per method
/// (Figures 12/13/15 are grouped bar charts; the terminal rendering keeps
/// the same information).
pub fn benchmark_table(
    names: &[String],
    methods: &[(&str, &[f64])],
    bar_width: usize,
) -> String {
    let mut out = String::new();
    let max_speedup = methods
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(1.0f64, f64::max);
    let name_w = names.iter().map(String::len).max().unwrap_or(8).max(8);
    for (i, name) in names.iter().enumerate() {
        let _ = writeln!(out, "{name:<name_w$}");
        for (m, values) in methods {
            let v = values[i];
            let _ = writeln!(
                out,
                "  {m:<10} {v:6.3}  {}",
                speedup_bar(v, max_speedup, bar_width)
            );
        }
    }
    let _ = writeln!(out, "{}", "-".repeat(name_w + bar_width + 20));
    for (m, values) in methods {
        let _ = writeln!(out, "  {:<10} mean speedup {:.4}", m, mean(values));
    }
    out
}

/// The headline summary: average speedups and percent-of-maximum for each
/// method against the oracle.
pub fn percent_of_max_summary(oracle: &[f64], methods: &[(&str, &[f64])]) -> String {
    let mut out = String::new();
    let oracle_mean = mean(oracle);
    let _ = writeln!(
        out,
        "oracle mean speedup {:.4} (maximum available)",
        oracle_mean
    );
    for (m, values) in methods {
        let s = mean(values);
        let pct = percent_of_max(s, oracle_mean) * 100.0;
        let _ = writeln!(out, "{m:<10} mean speedup {s:.4}  -> {pct:5.1}% of max");
    }
    out
}

/// Renders the outcome of a measurement campaign: what was measured,
/// reused, repaired and quarantined. The quarantine section names every
/// excluded site/benchmark with its attempt count and last error, so a
/// degraded campaign is loud about what the dataset is missing.
pub fn campaign_summary(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign: {} benchmark(s) — {} measured, {} reused from the dataset",
        report.total, report.measured, report.resumed
    );
    let _ = writeln!(
        out,
        "sites measured: {} ({} retried attempt(s), {} cell(s) escalated sampling)",
        report.sites_measured, report.retries, report.escalated_cells
    );
    if report.snapshot_builds > 0 {
        let _ = writeln!(
            out,
            "fork-once: {} snapshot(s) built, {} cell(s) forked ({} reusing pre-warmed init state), \
             {} instruction(s) simulated",
            report.snapshot_builds, report.forks, report.init_forks, report.sim_insns
        );
    }
    if !report.remeasured_corrupt.is_empty() {
        let _ = writeln!(
            out,
            "corrupt shard(s) detected and re-measured: {}",
            report.remeasured_corrupt.join(", ")
        );
    }
    if report.quarantined.is_empty() {
        let _ = writeln!(out, "quarantine: empty");
    } else {
        let _ = writeln!(out, "quarantine ({} entries):", report.quarantined.len());
        for q in &report.quarantined {
            let _ = writeln!(out, "  {q}");
        }
    }
    out
}

/// Formats the Figure 2(b)-style row.
pub fn fig2_row(method: &str, factor: usize, cycles: f64, baseline: f64, oracle: f64) -> String {
    let speedup = baseline / cycles;
    let pct = percent_of_max(speedup, baseline / oracle) * 100.0;
    format!(
        "{method:<14} unroll={factor:<2} cycles={cycles:>10.0} speedup={speedup:.4} ({pct:+.0}% of max)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_with_speedup() {
        let small = speedup_bar(1.05, 1.3, 30);
        let big = speedup_bar(1.3, 1.3, 30);
        assert!(big.chars().count() > small.chars().count());
        assert_eq!(big.chars().count(), 30);
    }

    #[test]
    fn slowdowns_render_distinctly() {
        let bar = speedup_bar(0.8, 1.3, 30);
        assert!(bar.starts_with('-'));
        assert!(bar.contains('▒'));
    }

    #[test]
    fn summary_contains_percentages() {
        let oracle = [1.10, 1.02];
        let ours = [1.08, 1.01];
        let s = percent_of_max_summary(&oracle, &[("ours", &ours)]);
        assert!(s.contains("% of max"));
        assert!(s.contains("1.06")); // oracle mean
    }

    #[test]
    fn campaign_summary_names_the_quarantined() {
        use crate::dataset::QuarantineEntry;
        let report = CampaignReport {
            total: 3,
            measured: 2,
            resumed: 1,
            remeasured_corrupt: vec!["epic_bench".into()],
            quarantined: vec![QuarantineEntry {
                bench: "adpcm_encode".into(),
                site: Some("kernel0#1".into()),
                attempts: 3,
                reason: "panicked: injected".into(),
            }],
            sites_measured: 7,
            retries: 2,
            escalated_cells: 1,
            snapshot_builds: 2,
            forks: 112,
            init_forks: 96,
            sim_insns: 5_600,
        };
        let s = campaign_summary(&report);
        assert!(s.contains("2 measured"));
        assert!(s.contains("epic_bench"));
        assert!(s.contains("adpcm_encode:kernel0#1"));
        assert!(s.contains("3 attempt(s)"));
        assert!(s.contains("2 snapshot(s) built"));
        assert!(s.contains("112 cell(s) forked"));
        assert!(s.contains("5600 instruction(s) simulated"));
        let clean = campaign_summary(&CampaignReport::default());
        assert!(clean.contains("quarantine: empty"));
        assert!(!clean.contains("fork-once"), "scratch runs stay silent");
    }

    #[test]
    fn table_lists_all_benchmarks_and_methods() {
        let names = vec!["a".to_owned(), "bb".to_owned()];
        let m1 = [1.1, 0.9];
        let m2 = [1.2, 1.0];
        let t = benchmark_table(&names, &[("gcc", &m1), ("ours", &m2)], 20);
        assert!(t.contains("bb"));
        assert!(t.matches("gcc").count() >= 2);
        assert!(t.contains("mean speedup"));
    }
}
