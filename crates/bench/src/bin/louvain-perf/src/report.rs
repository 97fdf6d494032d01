//! The three renderings of a run: `name value unit` lines for people,
//! the `--out` result document (samples summarized as count and
//! quartiles, read back by `compare`), and the one-line JSON summary
//! printed last on standard output.

use crate::host::Host;
use crate::run::Outcome;
use crate::stats::Summary;
use louvain_core::json::Json;

pub fn human_lines(outcome: &Outcome) -> String {
    let mut out = String::new();
    for (m, v) in &outcome.metrics {
        let s = Summary::of(v);
        out.push_str(&format!("{} {} {}\n", m.name, s.median, m.unit));
    }
    out
}

/// Header fields of a result document.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub host: &'a Host,
}

pub fn result_json(info: &RunInfo<'_>, outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(m, v)| {
            let s = Summary::of(v);
            let fields = vec![
                ("unit".to_string(), Json::Str(m.unit.to_string())),
                (
                    "better".to_string(),
                    Json::Str(m.better.as_str().to_string()),
                ),
                ("n".to_string(), Json::UInt(s.n as u64)),
                ("q1".to_string(), Json::Num(s.q1)),
                ("median".to_string(), Json::Num(s.median)),
                ("q3".to_string(), Json::Num(s.q3)),
            ];
            (m.name.to_string(), Json::Obj(fields))
        })
        .collect();
    let c = &outcome.checks;
    let mut fields = vec![
        ("workload".to_string(), Json::Str(info.workload.to_string())),
        ("seed".to_string(), Json::UInt(info.seed)),
        ("seconds".to_string(), Json::UInt(info.seconds)),
        ("traced".to_string(), Json::Bool(info.traced)),
        ("host".to_string(), info.host.to_json()),
        ("attempted".to_string(), Json::UInt(c.attempted)),
        ("failed".to_string(), Json::UInt(c.failed)),
        (
            "failures".to_string(),
            Json::Arr(c.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    if let Some(s) = outcome.traced_solve_s {
        fields.push(("traced_solve_s".to_string(), Json::Num(s)));
    }
    fields.push(("metrics".to_string(), Json::Obj(metrics)));
    Json::Obj(fields)
}

/// The last line of standard output: medians only, on one line.
pub fn summary_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                Summary::of(v).median,
                m.unit
            )
        })
        .collect();
    let c = &outcome.checks;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        metrics.join(", ")
    )
}

/// A result document read back for `compare`.
#[derive(Clone, Debug)]
pub struct Loaded {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub traced_solve_s: Option<f64>,
    pub metrics: Vec<(String, Summary)>,
}

impl Loaded {
    pub fn parse(text: &str) -> Result<Loaded, String> {
        let doc = Json::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing `{k}`"));
        let uint = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not a count"))
        };
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric field `{k}` missing or not a number"))
        };
        let Json::Obj(entries) = field("metrics")? else {
            return Err("`metrics` is not an object".to_string());
        };
        let metrics = entries
            .iter()
            .map(|(name, m)| {
                let n = m
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or("metric without `n`")?;
                let s = Summary {
                    n: n as usize,
                    q1: num(m, "q1")?,
                    median: num(m, "median")?,
                    q3: num(m, "q3")?,
                };
                Ok((name.clone(), s))
            })
            .collect::<Result<_, String>>()?;
        Ok(Loaded {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            traced: matches!(field("traced")?, Json::Bool(true)),
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            traced_solve_s: doc.get("traced_solve_s").and_then(Json::as_f64),
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
