//! The result of one benchmark invocation, its JSON file form and the
//! one-line summary the benchmark prints last.

use std::fmt::Write as _;

use fabricsim::obs::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `MB`, `tx/s`.
    pub unit: String,
}

impl Metric {
    /// A measurement of `value` in `unit`.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// One correctness check and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short name of the check.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was compared, for the reader of the result file.
    pub detail: String,
}

/// Everything one invocation measured, with the host facts needed to
/// interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// `std::thread::available_parallelism` on the host.
    pub available_parallelism: usize,
    /// Host threads the workload needs at once.
    pub host_threads: usize,
    /// `SimConfig::digest` of the measured configuration.
    pub config_digest: String,
    /// CPU seconds of the reference kernel (median over the invocation):
    /// the host's speed while it measured.
    pub reference_s: f64,
    /// Set when the workload was not run, with the reason.
    pub skipped: Option<String>,
    /// Simulation runs the invocation executed.
    pub attempted: u64,
    /// Runs whose own checks failed.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Measurements, in report order.
    pub metrics: Vec<Metric>,
}

/// JSON string literal for `s`.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in shortest round-trip form; JSON has no NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl RunRecord {
    /// True when every check held, no run failed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.skipped.is_none()
            && self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// The summary line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record as one JSON object (the result file).
    pub fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    quote(&c.name),
                    c.ok,
                    quote(&c.detail)
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":{},\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"available_parallelism\":{},\
             \"host_threads\":{},\"config_digest\":{},\"reference_s\":{},\"skipped\":{},\
             \"correct\":{},\
             \"attempted\":{},\"failed\":{},\"checks\":[{}],\"metrics\":[{}]}}",
            quote(&self.workload),
            self.seed,
            self.trace,
            self.available_parallelism,
            self.host_threads,
            quote(&self.config_digest),
            number(self.reference_s),
            self.skipped.as_deref().map_or("null".to_string(), quote),
            self.correct(),
            self.attempted,
            self.failed,
            checks.join(","),
            metrics.join(",")
        )
    }

    /// Reads a record back from [`RunRecord::to_json`] output.
    ///
    /// # Errors
    /// A description of the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let doc = Json::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("field {k:?} is not a number"))
        };
        let string = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {k:?} is not a string"))
        };
        let flag = |k: &str| match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("field {k:?} is not a boolean")),
        };
        let checks = field("checks")?
            .as_array()
            .ok_or("checks is not an array")?
            .iter()
            .map(|c| {
                let ok = matches!(c.get("ok"), Some(Json::Bool(true)));
                match (c.get("name").and_then(Json::as_str), c.get("detail")) {
                    (Some(name), Some(Json::Str(detail))) => Ok(Check {
                        name: name.to_string(),
                        ok,
                        detail: detail.clone(),
                    }),
                    _ => Err("malformed check".to_string()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = field("metrics")?
            .as_array()
            .ok_or("metrics is not an array")?
            .iter()
            .map(|m| {
                let value = match m.get("value") {
                    Some(Json::Null) => f64::NAN,
                    v => v.and_then(Json::as_f64).ok_or("metric value missing")?,
                };
                match (
                    m.get("name").and_then(Json::as_str),
                    m.get("unit").and_then(Json::as_str),
                ) {
                    (Some(name), Some(unit)) => Ok(Metric {
                        name: name.to_string(),
                        value,
                        unit: unit.to_string(),
                    }),
                    _ => Err("malformed metric".to_string()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            workload: string("workload")?,
            seed: num("seed")? as u64,
            trace: flag("trace")?,
            available_parallelism: num("available_parallelism")? as usize,
            host_threads: num("host_threads")? as usize,
            config_digest: string("config_digest")?,
            reference_s: num("reference_s")?,
            skipped: match field("skipped")? {
                Json::Null => None,
                Json::Str(s) => Some(s.clone()),
                _ => return Err("skipped is neither null nor a string".into()),
            },
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            checks,
            metrics,
        })
    }
}
