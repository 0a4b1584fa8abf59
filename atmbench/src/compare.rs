//! `--compare`: parent runs against change runs, metric by metric.
//!
//! The rules: a change **improved** a metric only when at least ten
//! seed-paired runs exist, the change wins at least nine tenths of them
//! (ties count for neither side) and the medians differ by more than the
//! parent's own quartile spread. Otherwise a metric with a bound is
//! **worse** when the change's median is worse than the parent's by more
//! than the bound, **unresolved** when the parent's own quartile spread is
//! wider than the bound (unless every change run beats every parent run),
//! and **within bound** otherwise. A metric without a bound is worse by
//! the mirror of the improvement rule and unresolved otherwise.

use std::fmt::Write as _;

use crate::json::Value;
use crate::record::Record;
use crate::stats::quartiles;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Better direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// Reads the `end_to_end` and `per_layer` metric lists of a
/// `BENCHMARK.json` document.
///
/// # Errors
///
/// Names the first malformed entry.
pub fn specs(doc: &Value) -> Result<Vec<Spec>, String> {
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        for m in doc
            .get(list)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json lacks `{list}`"))?
        {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("`{list}` entry lacks `{k}`"))
            };
            out.push(Spec {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                better: match text("better")? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("unknown direction `{other}`")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(out)
}

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Shown better by the pair rule.
    Improved,
    /// Not worse than the parent by more than the bound.
    WithinBound,
    /// Worse by more than the bound (or, without a bound, by the pair
    /// rule).
    Worse,
    /// The spread is too wide to tell.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Minimum seed-paired runs for an improvement claim.
pub const MIN_PAIRS: usize = 10;

/// Applies the rules of the module docs to one metric. `pairs` holds
/// `(parent, change)` values of runs on the same seed.
#[must_use]
pub fn verdict(spec: &Spec, parent: &[f64], change: &[f64], pairs: &[(f64, f64)]) -> Verdict {
    let (Some(p), Some(c)) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    let sign = match spec.better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    // Positive gain: the change's median is better than the parent's.
    let gain = sign * (c[1] - p[1]);
    let parent_iqr = p[2] - p[0];
    let wins = pairs.iter().filter(|(a, b)| sign * (b - a) > 0.0).count();
    let losses = pairs.iter().filter(|(a, b)| sign * (b - a) < 0.0).count();
    let n = pairs.len();
    if n >= MIN_PAIRS && wins * 10 >= n * 9 && gain > parent_iqr {
        return Verdict::Improved;
    }
    let Some(bound) = spec.bound else {
        return if n >= MIN_PAIRS && losses * 10 >= n * 9 && -gain > parent_iqr {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    };
    let allowed = bound * p[1].abs();
    if -gain > allowed {
        return Verdict::Worse;
    }
    let worst_change = change
        .iter()
        .map(|x| sign * x)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|x| sign * x)
        .fold(f64::NEG_INFINITY, f64::max);
    if parent_iqr > allowed && worst_change <= best_parent {
        return Verdict::Unresolved;
    }
    Verdict::WithinBound
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric compared.
    pub spec: Spec,
    /// Parent quartiles `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Seed-paired runs.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every workload × metric of `specs` that both sides measured.
/// Runs pair up by workload, trace mode and seed.
#[must_use]
pub fn compare(parent: &[Record], change: &[Record], specs: &[Spec]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for spec in specs {
            let side = |runs: &[Record]| -> Vec<(u64, bool, f64)> {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metric(&spec.name).map(|v| (r.seed, r.traced, v)))
                    .collect()
            };
            let (ps, cs) = (side(parent), side(change));
            let values = |s: &[(u64, bool, f64)]| s.iter().map(|x| x.2).collect::<Vec<_>>();
            let (pv, cv) = (values(&ps), values(&cs));
            let (Some(pq), Some(cq)) = (quartiles(&pv), quartiles(&cv)) else {
                continue;
            };
            let mut unused = cs.clone();
            let mut pairs = Vec::new();
            for &(seed, traced, p) in &ps {
                if let Some(i) = unused
                    .iter()
                    .position(|&(s, t, _)| s == seed && t == traced)
                {
                    pairs.push((p, unused.remove(i).2));
                }
            }
            let sign = if spec.better == Better::Lower {
                -1.0
            } else {
                1.0
            };
            rows.push(Row {
                workload: w.to_owned(),
                spec: spec.clone(),
                parent: pq,
                change: cq,
                pairs: pairs.len(),
                wins: pairs.iter().filter(|(a, b)| sign * (b - a) > 0.0).count(),
                verdict: verdict(spec, &pv, &cv, &pairs),
            });
        }
    }
    rows
}

/// Renders the rows as a fixed-width table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<28} {:>34} {:>34} {:>7} {}\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict"
    );
    let side = |q: &[f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<28} {:>34} {:>34} {:>3}/{:<3} {}",
            r.workload,
            format!("{} ({})", r.spec.name, r.spec.unit),
            side(&r.parent),
            side(&r.change),
            r.wins,
            r.pairs,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(bound: Option<f64>) -> Spec {
        Spec {
            name: "job_s_p50".to_owned(),
            unit: "s".to_owned(),
            better: Better::Lower,
            bound,
        }
    }

    /// Ten runs around `center` with a ±`jitter` sawtooth.
    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (f64::from(i % 5) - 2.0) / 2.0)
            .collect()
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn a_clear_gain_on_ten_pairs_is_an_improvement() {
        let (p, c) = (runs(1.0, 0.01), runs(0.8, 0.01));
        assert_eq!(
            verdict(&spec(Some(0.05)), &p, &c, &paired(&p, &c)),
            Verdict::Improved
        );
    }

    #[test]
    fn nine_pairs_are_not_enough_to_claim_a_gain() {
        let (p, c) = (runs(1.0, 0.01), runs(0.8, 0.01));
        let pairs = paired(&p[..9], &c[..9]);
        assert_eq!(
            verdict(&spec(Some(0.05)), &p[..9], &c[..9], &pairs),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_an_improvement() {
        let p = runs(1.0, 0.03);
        let c: Vec<f64> = p.iter().map(|x| x - 0.01).collect();
        assert_eq!(
            verdict(&spec(Some(0.05)), &p, &c, &paired(&p, &c)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        let (p, c) = (runs(1.0, 0.01), runs(1.2, 0.01));
        assert_eq!(
            verdict(&spec(Some(0.05)), &p, &c, &paired(&p, &c)),
            Verdict::Worse
        );
        // Without a bound the mirrored pair rule decides.
        assert_eq!(
            verdict(&spec(None), &p, &c, &paired(&p, &c)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let (p, c) = (runs(1.0, 0.3), runs(1.02, 0.3));
        assert_eq!(
            verdict(&spec(Some(0.05)), &p, &c, &paired(&p, &c)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&spec(None), &p, &c, &paired(&p, &c)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn dominance_resolves_a_wide_spread() {
        // Every change run beats every parent run, but only five pairs.
        let p = [1.0, 1.2, 1.4, 1.6, 1.8];
        let c = [0.5, 0.6, 0.7, 0.8, 0.9];
        assert_eq!(
            verdict(&spec(Some(0.05)), &p, &c, &paired(&p, &c)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let s = Spec {
            better: Better::Higher,
            ..spec(Some(0.05))
        };
        let (p, c) = (runs(1.0, 0.01), runs(1.2, 0.01));
        assert_eq!(verdict(&s, &p, &c, &paired(&p, &c)), Verdict::Improved);
        assert_eq!(verdict(&s, &c, &p, &paired(&c, &p)), Verdict::Worse);
    }

    #[test]
    fn specs_come_from_both_metric_lists() {
        let doc = json::parse(
            r#"{"end_to_end":[{"name":"a","unit":"s","better":"lower","bound":0.1}],
                "per_layer":[{"name":"b","unit":"1/s","better":"higher"}]}"#,
        )
        .unwrap();
        let s = specs(&doc).unwrap();
        assert_eq!(s[0].bound, Some(0.1));
        assert_eq!((s[1].better, s[1].bound), (Better::Higher, None));
    }

    #[test]
    fn compare_pairs_runs_by_seed() {
        let rec = |seed: u64, v: f64| Record {
            workload: "w".to_owned(),
            seed,
            traced: false,
            correct: true,
            attempted: 1,
            failed: 0,
            nproc: 2,
            git_rev: String::new(),
            sim_digest: String::new(),
            metrics: vec![crate::record::Metric::new("job_s_p50", v, "s")],
        };
        let parent: Vec<Record> = (0..10).map(|s| rec(s, 1.0 + 0.001 * s as f64)).collect();
        let change: Vec<Record> = (0..10)
            .rev()
            .map(|s| rec(s, 0.5 + 0.001 * s as f64))
            .collect();
        let rows = compare(&parent, &change, &[spec(Some(0.05))]);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].pairs, rows[0].wins), (10, 10));
        assert_eq!(rows[0].verdict, Verdict::Improved);
        assert!(render(&rows).contains("improved"));
    }
}
