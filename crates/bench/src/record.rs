//! The one record format of `fegen bench`.
//!
//! Every stage ([`Stage::Eval`], [`Stage::Measure`], [`Stage::Serve`])
//! measures into a list of [`BenchRecord`]s with the same five fields,
//! written as one JSON array (`BENCH_<stage>.json` by default). A record's
//! `baseline` is the same quantity measured on the reference path in the
//! same run (the tree-walking interpreter, the scratch campaign); its
//! `floor` bounds `value / baseline` when there is a baseline and `value`
//! otherwise. Every floor is in `FLOORS`.
//!
//! [`run`] writes the file before it enforces anything, so a run that
//! fails a correctness check or a floor still leaves its numbers on disk.

use crate::stages;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// One stage of `fegen bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Compiled feature evaluation against the tree-walking interpreter.
    Eval,
    /// The fork-once measurement campaign against the scratch campaign.
    Measure,
    /// The `fegen serve` daemon, driven over its frame protocol.
    Serve,
}

impl Stage {
    /// Every stage, in command-line order.
    pub const ALL: [Stage; 3] = [Stage::Eval, Stage::Measure, Stage::Serve];

    /// The stage's command-line and file name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Eval => "eval",
            Stage::Measure => "measure",
            Stage::Serve => "serve",
        }
    }

    /// The stage called `name`, if any.
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Every floor `fegen bench` enforces: `(stage, metric, floor)`. Each sits
/// well under the committed numbers, so tripping one means a fast path
/// broke, not that the machine was noisy.
pub(crate) const FLOORS: [(Stage, &str, f64); 4] = [
    // The compiled engine holds parity with the interpreter on the
    // paper-shaped features.
    (Stage::Eval, "paper_features.vm_evals_per_sec", 1.0),
    // The generated mix keeps the loop-nest planner's speedup: losing a
    // plan form (indexed count, leaf level, cover, columnar sweep) trips it.
    (Stage::Eval, "generated_features.vm_evals_per_sec", 2.5),
    // Forking cells off per-benchmark snapshots beats compiling each one.
    (Stage::Measure, "forked.cells_per_sec", 2.0),
    // Serve throughput at the largest batch, in loops per second.
    (Stage::Serve, "batches.128.throughput_loops_per_sec", 50.0),
];

/// One measured number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// [`Stage::name`] of the stage that measured it.
    pub stage: String,
    /// Dotted path naming the quantity, e.g. `forked.cells_per_sec`.
    pub metric: String,
    /// The measurement.
    pub value: f64,
    /// The same quantity on the reference path, measured in the same run.
    pub baseline: Option<f64>,
    /// Lower bound on `value / baseline` (with a baseline) or `value`.
    pub floor: Option<f64>,
}

impl BenchRecord {
    /// A record without a baseline; its floor, if any, comes from
    /// [`FLOORS`].
    pub(crate) fn new(stage: Stage, metric: impl Into<String>, value: f64) -> BenchRecord {
        let metric = metric.into();
        let floor = FLOORS
            .iter()
            .find(|f| f.0 == stage && f.1 == metric)
            .map(|f| f.2);
        BenchRecord {
            stage: stage.name().to_owned(),
            metric,
            value,
            baseline: None,
            floor,
        }
    }

    /// The record with `baseline` as its reference measurement.
    pub(crate) fn vs(self, baseline: f64) -> BenchRecord {
        BenchRecord {
            baseline: Some(baseline),
            ..self
        }
    }

    /// The quantity the floor bounds: `value / baseline`, or `value`.
    pub(crate) fn bounded(&self) -> f64 {
        self.baseline.map_or(self.value, |b| self.value / b)
    }
}

/// Why a bench run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The workload could not be built, staged or driven, or the records
    /// could not be written.
    Run(String),
    /// A correctness check failed: the engines disagree (checked before
    /// timing, so no file is written), forked and scratch shards or site
    /// counts diverged, or the daemon answered with errors, never evicted,
    /// held more arenas than its cap or exited uncleanly.
    Check(String),
    /// A record fell under its floor.
    BelowFloor {
        /// The record's stage.
        stage: String,
        /// The record's metric.
        metric: String,
        /// `value / baseline`, or `value` without a baseline.
        measured: f64,
        /// The floor.
        floor: f64,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Run(detail) | BenchError::Check(detail) => write!(f, "{detail}"),
            BenchError::BelowFloor {
                stage,
                metric,
                measured,
                floor,
            } => write!(
                f,
                "perf regression: {stage} {metric} at {measured:.2}, below its {floor} floor"
            ),
        }
    }
}

impl std::error::Error for BenchError {}

/// What one stage measured.
pub(crate) struct StageRun {
    /// The records, in the order they are written and printed.
    pub(crate) records: Vec<BenchRecord>,
    /// Text printed after the records (the daemon's telemetry report).
    pub(crate) report: String,
    /// The stage's correctness checks, enforced after the file is written.
    pub(crate) checks: Result<(), BenchError>,
}

/// Runs `stage` (`quick`: the CI smoke scale), writes its records to
/// `out`, prints them to `summary`, then enforces the stage's correctness
/// checks and every floor. `fegen` is the binary the serve stage spawns as
/// its daemon.
///
/// # Errors
///
/// Any [`BenchError`]; a run that fails before measuring (setup, engine
/// disagreement) leaves no file behind.
pub fn run(
    stage: Stage,
    quick: bool,
    out: &Path,
    fegen: &Path,
    summary: &mut dyn std::io::Write,
) -> Result<(), BenchError> {
    let run = match stage {
        Stage::Eval => stages::eval(quick)?,
        Stage::Measure => stages::measure(quick)?,
        Stage::Serve => stages::serve(quick, fegen)?,
    };
    write(out, &run.records)?;
    let (table, report) = (render(&run.records), &run.report);
    let text = format!("{table}{report}report written to {}\n", out.display());
    summary
        .write_all(text.as_bytes())
        .map_err(|e| BenchError::Run(format!("printing: {e}")))?;
    run.checks?;
    check_floors(&run.records)
}

/// Writes `records` to `path` as a pretty-printed JSON array.
///
/// # Errors
///
/// [`BenchError::Run`] when encoding or writing fails.
pub(crate) fn write(path: &Path, records: &[BenchRecord]) -> Result<(), BenchError> {
    let io = |e: &dyn fmt::Display| BenchError::Run(format!("writing `{}`: {e}", path.display()));
    let json = serde_json::to_string_pretty(records).map_err(|e| io(&e))?;
    std::fs::write(path, json + "\n").map_err(|e| io(&e))
}

/// One line per record: metric and value, then the baseline with the ratio
/// and the floor where the record has them.
pub(crate) fn render(records: &[BenchRecord]) -> String {
    let num = |v: f64| {
        if v.fract() == 0.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.2}")
        }
    };
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{:<8} {:<46} {:>14}",
            r.stage,
            r.metric,
            num(r.value)
        ));
        if let Some(b) = r.baseline {
            out.push_str(&format!("  vs {:>12} ({:.2}x)", num(b), r.bounded()));
        }
        if let Some(floor) = r.floor {
            out.push_str(&format!("  floor {floor}"));
        }
        out.push('\n');
    }
    out
}

/// The floor pass: the first record whose [`BenchRecord::bounded`] value
/// is under its floor (or is NaN) fails the run.
///
/// # Errors
///
/// [`BenchError::BelowFloor`] naming that record.
pub(crate) fn check_floors(records: &[BenchRecord]) -> Result<(), BenchError> {
    for r in records {
        let (Some(floor), measured) = (r.floor, r.bounded()) else {
            continue;
        };
        if measured.is_nan() || measured < floor {
            let (stage, metric) = (r.stage.clone(), r.metric.clone());
            return Err(BenchError::BelowFloor {
                stage,
                metric,
                measured,
                floor,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn floored(value: f64, baseline: Option<f64>, floor: f64) -> BenchRecord {
        BenchRecord {
            stage: "eval".into(),
            metric: "m".into(),
            value,
            baseline,
            floor: Some(floor),
        }
    }

    #[test]
    fn floor_pass_bounds_the_ratio_with_a_baseline_and_the_value_without() {
        let at = [floored(5.0, Some(2.0), 2.5), floored(50.0, None, 50.0)];
        assert_eq!(check_floors(&at), Ok(()));
        for (under, measured) in [
            (floored(4.99, Some(2.0), 2.5), 2.495),
            (floored(49.99, None, 50.0), 49.99),
        ] {
            assert_eq!(
                check_floors(&[at[0].clone(), under.clone(), at[1].clone()]),
                Err(BenchError::BelowFloor {
                    stage: "eval".into(),
                    metric: "m".into(),
                    measured,
                    floor: under.floor.unwrap(),
                })
            );
        }
        assert!(check_floors(&[floored(f64::NAN, None, 1.0)]).is_err());
        assert_eq!(
            check_floors(&[BenchRecord::new(Stage::Eval, "loops", 0.0)]),
            Ok(())
        );
    }

    #[test]
    fn floors_attach_by_stage_and_metric() {
        for (stage, metric, floor) in FLOORS {
            assert_eq!(BenchRecord::new(stage, metric, 1.0).floor, Some(floor));
        }
        let other = Stage::ALL.into_iter().find(|&s| s != FLOORS[0].0).unwrap();
        assert_eq!(BenchRecord::new(other, FLOORS[0].1, 1.0).floor, None);
    }

    #[test]
    fn the_file_is_an_array_of_five_field_records() {
        let records = vec![
            BenchRecord::new(Stage::Measure, "forked.cells_per_sec", 6793.1).vs(529.4),
            BenchRecord::new(Stage::Measure, "cells", 23632.0),
        ];
        let path =
            std::env::temp_dir().join(format!("fegen-bench-record-{}.json", std::process::id()));
        write(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let Value::Seq(items) = serde_json::from_str::<Value>(&text).unwrap() else {
            panic!("not an array: {text}");
        };
        assert_eq!(items.len(), 2);
        for item in &items {
            let Value::Map(fields) = item else {
                panic!("not an object: {item:?}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["stage", "metric", "value", "baseline", "floor"]);
        }
        assert_eq!(
            serde_json::from_str::<Vec<BenchRecord>>(&text).unwrap(),
            records
        );
    }

    #[test]
    fn stages_round_trip_their_names() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.name()), Some(stage));
        }
        assert_eq!(Stage::parse("perf"), None);
    }
}
