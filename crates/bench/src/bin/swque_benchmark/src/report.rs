//! What one benchmark run reports, and its two output forms: the result
//! line and the full JSON report.

use swque_trace::Json;

use crate::units::Workload;

/// Schema tag of the full JSON report (`--json PATH`).
pub const REPORT_SCHEMA: &str = "swque-benchmark-v1";

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, made of `[A-Za-z0-9_.-]`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, such as `s`, `ns` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// True for a legal metric name: 1–64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Everything one run of the benchmark produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// The gated metrics: end-to-end on a timed run, per-layer on a traced
    /// one.
    pub metrics: Vec<Metric>,
    /// Rates derived from the same measurements, printed for people but
    /// not gated (they move exactly with `rep_s`).
    pub info: Vec<Metric>,
    /// Each unit's label and, if it failed, why.
    pub units: Vec<(String, Option<String>)>,
    /// Rep summaries, spans and histograms.
    pub details: Vec<(String, Json)>,
}

impl Report {
    /// Units that failed.
    pub fn failed(&self) -> usize {
        self.units.iter().filter(|(_, f)| f.is_some()).count()
    }

    fn metrics_json(metrics: &[Metric]) -> Json {
        Json::obj(metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        }))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.failed() == 0)),
            ("attempted", Json::from(self.units.len())),
            ("failed", Json::from(self.failed())),
            ("metrics", Report::metrics_json(&self.metrics)),
        ])
    }

    /// The full report written by `--json`.
    pub fn to_json(&self) -> Json {
        let units = self
            .units
            .iter()
            .map(|(label, failure)| {
                Json::obj([
                    ("unit", Json::from(label.as_str())),
                    ("failure", failure.as_deref().map_or(Json::Null, Json::from)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("schema".to_string(), Json::from(REPORT_SCHEMA)),
            ("workload".to_string(), Json::from(self.workload.name())),
            ("seed".to_string(), Json::from(self.seed)),
            ("traced".to_string(), Json::from(self.traced)),
            ("result".to_string(), self.result_line()),
            ("info".to_string(), Report::metrics_json(&self.info)),
            ("units".to_string(), Json::Arr(units)),
        ];
        pairs.extend(self.details.iter().cloned());
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_allowed_charset() {
        for good in [
            "rep_s",
            "core.select_ns.CIRC-PC",
            "core.select_ns.AGE-multiAM",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".dot",
            "-dash",
            "has space",
            "slash/name",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn report_round_trips_through_the_json_parser() {
        let report = Report {
            workload: Workload::MlpStall,
            seed: 1,
            traced: false,
            metrics: vec![
                Metric::new("rep_s", 1.25, "s"),
                Metric::new("setup_s", 0.8125, "s"),
            ],
            info: vec![Metric::new("sim_kips", 1234.5, "kinst/s")],
            units: vec![
                ("a".to_string(), None),
                ("b".to_string(), Some("retired 3 of 4".to_string())),
            ],
            details: vec![("reps".to_string(), Json::obj([("n", Json::from(3u64))]))],
        };
        let json = report.to_json();
        let back = Json::parse(&json.to_string()).expect("the report parses");
        assert_eq!(back, json);
        let line = back.get("result").expect("result line");
        assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let rep_s = line
            .get("metrics")
            .and_then(|m| m.get("rep_s"))
            .expect("rep_s");
        assert_eq!(rep_s.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(rep_s.get("unit").and_then(Json::as_str), Some("s"));
    }
}
