//! The `swque-mc-v1` machine-readable report.
//!
//! One checker invocation produces one report: a run record per explored
//! target (kind × capacity × width × depth × injection) with its state
//! count, closure status, and any violations — each violation carrying
//! the minimized replay string. [`validate_report`] checks a report by
//! rebuilding it with [`report`]; `swque-bench check_json` calls it, and
//! `scripts/verify.sh` gates on it.

use swque_core::replay::Replay;
use swque_trace::json::Json;

use crate::explore::RunOutcome;

/// Schema tag of the checker's JSON report.
pub const MC_SCHEMA: &str = "swque-mc-v1";

/// One violation in a run record.
#[derive(Debug, Clone)]
pub struct McViolation {
    /// Stable property name.
    pub property: String,
    /// Human-readable account.
    pub detail: String,
    /// Minimized self-contained replay string (`swque-mc-replay-v1 …`).
    pub replay: String,
}

/// One explored target.
#[derive(Debug, Clone)]
pub struct McRun {
    /// Target label: an `IqKind` label or `CTRL`.
    pub target: String,
    /// Queue capacity (0 for the controller).
    pub capacity: usize,
    /// Issue width (0 for the controller).
    pub width: usize,
    /// Depth bound in events.
    pub depth: u64,
    /// Injection name, or `-` for the clean tree.
    pub inject: String,
    /// Distinct canonical states fully explored.
    pub states: u64,
    /// Deepest level at which a new state was discovered.
    pub deepest: u64,
    /// New states one step past the bound (0 = closed).
    pub frontier: u64,
    /// Whether the bound exhausted the reachable state space.
    pub closed: bool,
    /// Violations found (at most one per exploration, by construction).
    pub violations: Vec<McViolation>,
}

impl McRun {
    /// Builds a run record from an exploration outcome (violations are
    /// attached separately once minimized and rendered).
    pub fn from_outcome(
        target: &str,
        capacity: usize,
        width: usize,
        depth: u64,
        inject: Option<&str>,
        outcome: &RunOutcome,
    ) -> McRun {
        McRun {
            target: target.to_string(),
            capacity,
            width,
            depth,
            inject: inject.unwrap_or("-").to_string(),
            states: outcome.states,
            deepest: outcome.deepest,
            frontier: outcome.frontier,
            closed: outcome.closed(),
            violations: Vec::new(),
        }
    }

    /// Reads a run record back from its JSON (the inverse of the
    /// rendering in [`report`]). Beyond the field types it refuses what the
    /// checker cannot write: `closed` disagreeing with `frontier == 0`, and
    /// a violation whose replay does not parse under `swque-mc-replay-v1`,
    /// targets another kind, or expects another property. `Err` names the
    /// offending field.
    pub fn from_json(doc: &Json) -> Result<McRun, String> {
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{key}: not a string"))
        };
        let int =
            |key: &str| doc.get(key).and_then(Json::as_u64).ok_or(format!("{key}: not an integer"));
        let size = |key: &str| {
            int(key).and_then(|n| usize::try_from(n).map_err(|e| format!("{key}: {e}")))
        };
        let target = text(doc, "target")?;
        let (frontier, closed) = (int("frontier")?, doc.get("closed").and_then(Json::as_bool));
        let closed = closed.ok_or("closed: not a bool")?;
        if closed != (frontier == 0) {
            return Err(format!("closed: {closed} inconsistent with frontier={frontier}"));
        }
        let violations =
            doc.get("violations").and_then(Json::as_arr).ok_or("violations: not an array")?;
        let violations = violations
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let at = |e: String| format!("violations[{i}].{e}");
                let (property, replay) =
                    (text(v, "property").map_err(at)?, text(v, "replay").map_err(at)?);
                let parsed = Replay::parse(&replay).map_err(|e| at(format!("replay: {e}")))?;
                if parsed.target.label() != target {
                    return Err(at(format!(
                        "replay: targets {}, run explores {target}",
                        parsed.target.label()
                    )));
                }
                if parsed.expect.as_deref() != Some(property.as_str()) {
                    return Err(at(format!(
                        "replay: expect={:?} vs violated property {property:?}",
                        parsed.expect
                    )));
                }
                Ok(McViolation { property, detail: text(v, "detail").map_err(at)?, replay })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(McRun {
            target,
            capacity: size("capacity")?,
            width: size("width")?,
            depth: int("depth")?,
            inject: text(doc, "inject")?,
            states: int("states")?,
            deepest: int("deepest")?,
            frontier,
            closed,
            violations,
        })
    }

    fn to_json(&self) -> Json {
        let violations: Vec<Json> = self
            .violations
            .iter()
            .map(|v| {
                Json::obj([
                    ("property", Json::from(v.property.as_str())),
                    ("detail", Json::from(v.detail.as_str())),
                    ("replay", Json::from(v.replay.as_str())),
                ])
            })
            .collect();
        Json::obj([
            ("target", Json::from(self.target.as_str())),
            ("capacity", Json::from(self.capacity)),
            ("width", Json::from(self.width)),
            ("depth", Json::from(self.depth)),
            ("inject", Json::from(self.inject.as_str())),
            ("states", Json::from(self.states)),
            ("deepest", Json::from(self.deepest)),
            ("frontier", Json::from(self.frontier)),
            ("closed", Json::from(self.closed)),
            ("violations", Json::Arr(violations)),
        ])
    }
}

/// Assembles the full `swque-mc-v1` report.
pub fn report(smoke: bool, runs: &[McRun]) -> Json {
    let total_states: u64 = runs.iter().map(|r| r.states).sum();
    let violations: u64 = runs.iter().map(|r| r.violations.len() as u64).sum();
    Json::obj([
        ("schema", Json::from(MC_SCHEMA)),
        ("smoke", Json::from(smoke)),
        ("runs", Json::Arr(runs.iter().map(McRun::to_json).collect())),
        ("total_states", Json::from(total_states)),
        ("violations", Json::from(violations)),
    ])
}

/// Validates a `swque-mc-v1` report by rebuilding it: every run reads back
/// through [`McRun::from_json`], and [`report`] over those runs must give
/// the same bytes, so edited totals fail at their own path. Returns the
/// runs. `Err` names the first offending JSON path.
pub fn validate_report(doc: &Json) -> Result<Vec<McRun>, String> {
    let smoke = doc.get("smoke").and_then(Json::as_bool).ok_or("smoke: not a bool")?;
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("runs: not an array")?;
    let runs = runs
        .iter()
        .enumerate()
        .map(|(i, run)| McRun::from_json(run).map_err(|e| format!("runs[{i}].{e}")))
        .collect::<Result<Vec<_>, String>>()?;
    doc.mismatch(&report(smoke, &runs)).map_or(Ok(runs), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> McRun {
        McRun {
            target: "CIRC-PC".to_string(),
            capacity: 3,
            width: 2,
            depth: 8,
            inject: "-".to_string(),
            states: 412,
            deepest: 7,
            frontier: 0,
            closed: true,
            violations: vec![McViolation {
                property: "pc-age-ordered".to_string(),
                detail: "granted seq 1001 after younger seq 1002".to_string(),
                replay: "swque-mc-replay-v1 kind=CIRC-PC cap=3 width=2 \
                         inject=circ-pc-no-correct expect=pc-age-ordered events=d-.-,s2"
                    .to_string(),
            }],
        }
    }

    #[test]
    fn sample_replay_is_well_formed() {
        let run = sample_run();
        let replay = swque_core::replay::Replay::parse(&run.violations[0].replay).expect("parse");
        assert_eq!(replay.expect.as_deref(), Some("pc-age-ordered"));
    }

    #[test]
    fn report_has_the_schema_tag_and_fixed_key_order() {
        let text = report(true, &[sample_run()]).to_string();
        assert!(text.starts_with("{\"schema\":\"swque-mc-v1\",\"smoke\":true,\"runs\":["));
        assert!(text.contains("\"total_states\":412"));
        assert!(text.contains("\"violations\":1"));
    }

    #[test]
    fn report_round_trips_through_the_json_parser() {
        let json = report(false, &[sample_run()]);
        let text = json.to_string();
        let back = swque_trace::json::Json::parse(&text).expect("round trip");
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn report_rebuilds_from_its_runs() {
        let text = report(true, &[sample_run(), McRun { violations: Vec::new(), ..sample_run() }])
            .to_string();
        let runs = validate_report(&Json::parse(&text).expect("parses")).expect("valid");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].violations[0].replay, sample_run().violations[0].replay);
        assert_eq!(report(true, &runs).to_string(), text);
        // A run that claims closure with a live frontier is refused.
        let open = text.replacen("\"frontier\":0", "\"frontier\":3", 1);
        let err = validate_report(&Json::parse(&open).expect("parses")).unwrap_err();
        assert!(err.starts_with("runs[0].closed: true inconsistent with frontier=3"), "{err}");
    }
}
