//! One benchmark run's record: every metric it measured, the host, and
//! the digest of the simulated results.
//!
//! Records are appended, one JSON object per line, to `runs.jsonl` in the
//! output directory; `--compare` reads two such files back.

use crate::json::{self, Value};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `job_s_p50`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit, e.g. `s`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// A complete run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics).
    pub traced: bool,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Jobs attempted in the measured phase.
    pub attempted: u64,
    /// Jobs that failed a check or returned an error.
    pub failed: u64,
    /// Host logical CPUs.
    pub nproc: u64,
    /// Git revision of the measured tree (`unknown` outside a checkout).
    pub git_rev: String,
    /// FNV-1a fold of the simulated results of the seed-determined job
    /// prefix; equal seeds must give equal digests.
    pub sim_digest: String,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("workload".to_owned(), Value::str(&self.workload)),
            ("seed".to_owned(), Value::int(self.seed)),
            ("trace".to_owned(), Value::Bool(self.traced)),
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::int(self.attempted)),
            ("failed".to_owned(), Value::int(self.failed)),
            (
                "host".to_owned(),
                Value::Obj(vec![
                    ("nproc".to_owned(), Value::int(self.nproc)),
                    ("git_rev".to_owned(), Value::str(&self.git_rev)),
                ]),
            ),
            ("sim_digest".to_owned(), Value::str(&self.sim_digest)),
            ("metrics".to_owned(), metrics_json(self.metrics.iter())),
        ])
    }

    /// The result line for a harness: exactly `correct`, `attempted`,
    /// `failed` and the metrics named in `names`, in that order.
    #[must_use]
    pub fn summary_json(&self, names: &[&str]) -> Value {
        let picked = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.name == *n));
        Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::int(self.attempted)),
            ("failed".to_owned(), Value::int(self.failed)),
            ("metrics".to_owned(), metrics_json(picked)),
        ])
    }

    /// Reads a record written by [`Record::to_json`].
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record lacks `{k}`"));
        let host = field("host")?;
        let metrics = field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("metric `{name}` lacks a numeric value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("metric `{name}` lacks a unit"))?
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let u = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not an integer"))
        };
        let b = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("`{k}` is not a bool"))
        };
        let s = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{k}` is not a string"))
        };
        Ok(Record {
            workload: s("workload")?,
            seed: u("seed")?,
            traced: b("trace")?,
            correct: b("correct")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            nproc: host
                .get("nproc")
                .and_then(Value::as_u64)
                .ok_or("`host.nproc` missing")?,
            git_rev: host
                .get("git_rev")
                .and_then(Value::as_str)
                .ok_or("`host.git_rev` missing")?
                .to_owned(),
            sim_digest: s("sim_digest")?,
            metrics,
        })
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Value {
    Value::Obj(
        metrics
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".to_owned(), Value::num(m.value)),
                        ("unit".to_owned(), Value::str(&m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Reads every record of a JSON-lines file's text, skipping blank lines.
///
/// # Errors
///
/// Names the first line that is not a record.
pub fn parse_lines(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            json::parse(l)
                .and_then(|v| Record::from_json(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        Record {
            workload: "fleet_serve".to_owned(),
            seed: u64::MAX - 1,
            traced: false,
            correct: true,
            attempted: 120,
            failed: 0,
            nproc: 2,
            git_rev: "0123abcd".to_owned(),
            sim_digest: "00ff00ff00ff00ff".to_owned(),
            metrics: vec![
                Metric::new("job_s_p50", 0.1412345678901234, "s"),
                Metric::new("peak_rss_mb", 27.5, "MB"),
            ],
        }
    }

    #[test]
    fn a_record_round_trips_through_one_json_line() {
        let r = record();
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        let back = parse_lines(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(back, vec![r.clone(), r]);
    }

    #[test]
    fn the_summary_line_has_exactly_the_harness_keys() {
        let v = record().summary_json(&["job_s_p50"]);
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn a_truncated_record_is_refused() {
        assert!(parse_lines("{\"workload\":\"x\"}").is_err());
    }
}
