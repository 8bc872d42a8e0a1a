//! Sweep campaigns: declarative manifests expanded into deterministic,
//! sharded, resumable simulation work (the `swque-sweep` binary).
//!
//! A *manifest* (schema [`MANIFEST_SCHEMA`]) names a campaign, fixes a run
//! budget, and lists axis values — issue-queue kinds, processor models,
//! controller thresholds, workload layout seeds, kernels. The cartesian
//! product of the axes is expanded in a fixed nested order into a list of
//! *work units*; each unit is one `run_kernel` simulation through the same
//! harness path the figure binaries use.
//!
//! Results are *sharded*: every completed unit writes one JSON file
//! (schema [`SHARD_SCHEMA`]) named by the unit's content hash — an FNV-1a
//! 64 digest of the unit's canonical JSON, which covers every
//! code-relevant knob (axes *and* budget). Shards make campaigns
//! resumable: a re-run validates existing shards (parse, schema, key
//! match), repairs invalid ones, and only simulates what is missing, so a
//! campaign killed mid-run finishes from where it died and an edited
//! manifest reuses every unit it still shares with the old one.
//!
//! When every unit has a valid shard, the campaign *merges* (schema
//! [`CAMPAIGN_SCHEMA`]): one row per unit in expansion order, the
//! campaign-wide IPC geometric mean, and per-axis marginal geomeans. The
//! merge is strict — a missing, unparseable, or key-mismatched shard fails
//! it — and pure (a fold over shard files in a deterministic order), so
//! the merged report is byte-identical no matter how many workers produced
//! the shards or across how many interrupted runs.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use swque_core::{fnv1a64, IqKind};
use swque_trace::Json;
use swque_workloads::suite;

use crate::harness::{geomean, run_kernel, Budget, ProcessorModel, RunSpec};

/// Schema identifier of campaign manifests.
pub const MANIFEST_SCHEMA: &str = "swque-sweep-manifest-v1";
/// Schema identifier of per-unit shard files.
pub const SHARD_SCHEMA: &str = "swque-sweep-shard-v1";
/// Schema identifier of merged campaign reports.
pub const CAMPAIGN_SCHEMA: &str = "swque-sweep-campaign-v1";

/// Axis values of a campaign (each axis contributes one factor to the
/// cartesian product; an axis omitted from the manifest holds exactly its
/// default entry).
#[derive(Debug, Clone)]
pub struct Axes {
    /// Issue-queue organizations (default: `[SWQUE]`).
    pub kinds: Vec<IqKind>,
    /// Processor models (default: `[medium]`).
    pub models: Vec<ProcessorModel>,
    /// SWQUE MPKI-threshold overrides; `None` = the model's Table 3 value
    /// (default: `[None]`).
    pub mpki_thresholds: Vec<Option<f64>>,
    /// SWQUE FLPI-threshold overrides; `None` = the model's Table 3 value
    /// (default: `[None]`).
    pub flpi_thresholds: Vec<Option<f64>>,
    /// Workload layout seeds (default: `[0]`, the canonical programs).
    pub seeds: Vec<u64>,
    /// Kernel names (default: the whole suite).
    pub kernels: Vec<String>,
}

/// A parsed campaign manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Campaign name (becomes the merged report's `name`).
    pub name: String,
    /// Run budget shared by every unit.
    pub budget: Budget,
    /// Axis values.
    pub axes: Axes,
}

/// One fully-resolved simulation request of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Issue-queue organization.
    pub kind: IqKind,
    /// Processor model.
    pub model: ProcessorModel,
    /// MPKI-threshold override.
    pub mpki_threshold: Option<f64>,
    /// FLPI-threshold override.
    pub flpi_threshold: Option<f64>,
    /// Workload layout seed.
    pub seed: u64,
    /// Kernel name (validated against the suite at expansion time).
    pub kernel: String,
    /// The campaign budget (part of the unit so the content hash covers
    /// it: a budget change invalidates every shard, as it must).
    pub budget: Budget,
}

fn opt_f64_json(v: Option<f64>) -> Json {
    match v {
        Some(x) => Json::from(x),
        None => Json::Null,
    }
}

fn budget_json(b: &Budget) -> Json {
    Json::obj([
        ("warmup_insts", Json::from(b.warmup_insts)),
        ("max_insts", Json::from(b.max_insts)),
        (
            "scale",
            match b.scale {
                Some(s) => Json::from(s),
                None => Json::Null,
            },
        ),
    ])
}

impl WorkUnit {
    /// The unit as canonical JSON: fixed key order, every code-relevant
    /// knob present (axes and budget). This is the hashed representation —
    /// two units are the same shard if and only if this document is
    /// byte-identical.
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.kind.label())),
            ("model", Json::from(self.model.label())),
            ("mpki_threshold", opt_f64_json(self.mpki_threshold)),
            ("flpi_threshold", opt_f64_json(self.flpi_threshold)),
            ("seed", Json::from(self.seed)),
            ("kernel", Json::from(self.kernel.as_str())),
            ("budget", budget_json(&self.budget)),
        ])
    }

    /// Content hash of the unit: 16 lowercase hex digits of the FNV-1a 64
    /// digest of [`canonical_json`](Self::canonical_json). Shard files are
    /// named `<key>.json`.
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical_json().to_string().as_bytes()))
    }

    /// The harness spec this unit resolves to: the model's configuration
    /// with the controller-threshold overrides applied.
    pub fn spec(&self) -> RunSpec {
        let mut config = self.model.config();
        if let Some(mpki) = self.mpki_threshold {
            config.iq.swque.mpki_threshold = mpki;
        }
        if let Some(flpi) = self.flpi_threshold {
            config.iq.swque.flpi_threshold = flpi;
        }
        RunSpec { config, iq: self.kind, budget: self.budget, seed: self.seed }
    }
}

fn parse_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key).and_then(Json::as_u64).ok_or_else(|| format!("{key}: not an integer"))
}

fn opt_f64_axis(doc: &Json, key: &str) -> Result<Vec<Option<f64>>, String> {
    let Some(arr) = doc.get(key) else { return Ok(vec![None]) };
    let arr = arr.as_arr().ok_or_else(|| format!("axes.{key}: not an array"))?;
    if arr.is_empty() {
        return Err(format!("axes.{key}: empty axis"));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| match v {
            Json::Null => Ok(None),
            _ => {
                v.as_f64().map(Some).ok_or_else(|| format!("axes.{key}[{i}]: not a number or null"))
            }
        })
        .collect()
}

impl Manifest {
    /// Parses a manifest document (schema [`MANIFEST_SCHEMA`]). Omitted
    /// axes take their single-entry defaults; present axes must be
    /// non-empty and every value must parse (unknown kind/model labels and
    /// unknown keys are errors, not silent no-ops).
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text).map_err(|e| format!("manifest: parse error: {e}"))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != MANIFEST_SCHEMA {
            return Err(format!("schema: {schema:?}, expected {MANIFEST_SCHEMA:?}"));
        }
        for key in doc.keys() {
            if !["schema", "name", "budget", "axes"].contains(&key) {
                return Err(format!("$: unknown key {key:?}"));
            }
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("name: missing or not a string")?
            .to_string();
        let budget = doc.get("budget").ok_or("budget: missing")?;
        for key in budget.keys() {
            if !["warmup_insts", "max_insts", "scale"].contains(&key) {
                return Err(format!("budget: unknown key {key:?}"));
            }
        }
        let budget = Budget {
            warmup_insts: parse_u64(budget, "warmup_insts").map_err(|e| format!("budget.{e}"))?,
            max_insts: parse_u64(budget, "max_insts").map_err(|e| format!("budget.{e}"))?,
            scale: match budget.get("scale") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("budget.scale: not an integer or null")?),
            },
        };
        let axes = doc.get("axes").cloned().unwrap_or_else(|| Json::obj::<&str, _>([]));
        for key in axes.keys() {
            let known =
                ["kinds", "models", "mpki_thresholds", "flpi_thresholds", "seeds", "kernels"];
            if !known.contains(&key) {
                return Err(format!("axes: unknown key {key:?}"));
            }
        }
        let str_axis = |key: &str, default: Vec<String>| -> Result<Vec<String>, String> {
            let Some(arr) = axes.get(key) else { return Ok(default) };
            let arr = arr.as_arr().ok_or_else(|| format!("axes.{key}: not an array"))?;
            if arr.is_empty() {
                return Err(format!("axes.{key}: empty axis"));
            }
            arr.iter()
                .enumerate()
                .map(|(i, v)| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("axes.{key}[{i}]: not a string"))
                })
                .collect()
        };
        let kinds = str_axis("kinds", vec!["SWQUE".to_string()])?
            .iter()
            .map(|label| {
                IqKind::from_label(label)
                    .ok_or_else(|| format!("axes.kinds: unknown issue-queue kind {label:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let models = str_axis("models", vec!["medium".to_string()])?
            .iter()
            .map(|label| {
                ProcessorModel::from_label(label)
                    .ok_or_else(|| format!("axes.models: unknown model {label:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = match axes.get("seeds") {
            None => vec![0],
            Some(arr) => {
                let arr = arr.as_arr().ok_or("axes.seeds: not an array")?;
                if arr.is_empty() {
                    return Err("axes.seeds: empty axis".to_string());
                }
                arr.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.as_u64().ok_or_else(|| format!("axes.seeds[{i}]: not an integer"))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let default_kernels = suite::all().iter().map(|k| k.name.to_string()).collect();
        let kernels = str_axis("kernels", default_kernels)?;
        for name in &kernels {
            if suite::by_name(name).is_none() {
                return Err(format!("axes.kernels: unknown kernel {name:?}"));
            }
        }
        Ok(Manifest {
            name,
            budget,
            axes: Axes {
                kinds,
                models,
                mpki_thresholds: opt_f64_axis(&axes, "mpki_thresholds")?,
                flpi_thresholds: opt_f64_axis(&axes, "flpi_thresholds")?,
                seeds,
                kernels,
            },
        })
    }

    /// Expands the manifest into its work units — the cartesian product of
    /// the axes in the fixed nested order kind → model → MPKI threshold →
    /// FLPI threshold → seed → kernel (kernel innermost). This order *is*
    /// the campaign's unit order: merged-report rows follow it, and the
    /// `--limit` prefix used by resume tests cuts along it.
    pub fn units(&self) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        for &kind in &self.axes.kinds {
            for &model in &self.axes.models {
                for &mpki in &self.axes.mpki_thresholds {
                    for &flpi in &self.axes.flpi_thresholds {
                        for &seed in &self.axes.seeds {
                            for kernel in &self.axes.kernels {
                                units.push(WorkUnit {
                                    kind,
                                    model,
                                    mpki_threshold: mpki,
                                    flpi_threshold: flpi,
                                    seed,
                                    kernel: kernel.clone(),
                                    budget: self.budget,
                                });
                            }
                        }
                    }
                }
            }
        }
        units
    }
}

/// Simulates one unit and returns its shard document. Fails (rather than
/// writing a poisoned shard) when the simulator reports a pipeline
/// invariant violation or the measured window is degenerate.
pub fn run_unit(unit: &WorkUnit) -> Result<Json, String> {
    let kernel = suite::by_name(&unit.kernel)
        .ok_or_else(|| format!("unit {}: unknown kernel {:?}", unit.key(), unit.kernel))?;
    let result = run_kernel(&kernel, &unit.spec());
    if let Some(v) = &result.invariant {
        return Err(format!("unit {} ({}): {v}", unit.key(), unit.kernel));
    }
    if result.cycles == 0 || result.retired == 0 {
        return Err(format!("unit {} ({}): empty measurement window", unit.key(), unit.kernel));
    }
    Ok(Json::obj([
        ("schema", Json::from(SHARD_SCHEMA)),
        ("unit_key", Json::from(unit.key())),
        ("unit", unit.canonical_json()),
        (
            "result",
            Json::obj([
                ("cycles", Json::from(result.cycles)),
                ("retired", Json::from(result.retired)),
                ("ipc", Json::from(result.ipc())),
                ("mpki", Json::from(result.mpki())),
                ("flpi", Json::from(result.iq.flpi())),
                ("mode_switches", Json::from(result.swque.map_or(0, |s| s.switches))),
            ]),
        ),
    ]))
}

/// Path of `unit`'s shard file inside `out`.
pub fn shard_path(out: &Path, unit: &WorkUnit) -> PathBuf {
    out.join("shards").join(format!("{}.json", unit.key()))
}

/// Validates the shard document stored for `unit`: declared schema,
/// `unit_key` matching the recomputed content hash, the embedded unit
/// matching the expanded one byte-for-byte, and a well-formed result.
/// `Err` describes the first problem (the resume path treats any `Err` as
/// "shard missing" and re-runs the unit; the merge path treats it as
/// fatal).
pub fn validate_shard(text: &str, unit: &WorkUnit) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("parse error: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SHARD_SCHEMA {
        return Err(format!("schema: {schema:?}, expected {SHARD_SCHEMA:?}"));
    }
    let key = doc.get("unit_key").and_then(Json::as_str).unwrap_or("");
    if key != unit.key() {
        return Err(format!("unit_key: {key:?} does not match content hash {:?}", unit.key()));
    }
    let embedded = doc.get("unit").ok_or("unit: missing")?;
    if embedded.to_string() != unit.canonical_json().to_string() {
        return Err("unit: embedded unit differs from the manifest expansion".to_string());
    }
    validate_result(doc.get("result").ok_or("result: missing")?, "result")?;
    Ok(doc)
}

/// Validates the result object of a shard or campaign row: integer
/// counters, numeric rates, and a positive IPC (the merged report takes
/// geometric means over it). `path` prefixes the diagnostic, e.g.
/// `rows[3].result`.
pub fn validate_result(result: &Json, path: &str) -> Result<(), String> {
    for key in ["cycles", "retired", "mode_switches"] {
        result
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}.{key}: not an integer"))?;
    }
    for key in ["ipc", "mpki", "flpi"] {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}.{key}: not a number"))?;
    }
    let ipc = result.get("ipc").and_then(Json::as_f64).unwrap_or(0.0);
    if ipc.is_nan() || ipc <= 0.0 {
        return Err(format!("{path}.ipc: {ipc} not positive"));
    }
    Ok(())
}

/// Writes `doc` to `path` atomically: a worker-unique temporary in the
/// same directory, flushed, then renamed into place. A campaign killed
/// mid-write therefore leaves either no shard or a complete one — never a
/// truncated file a resume would have to distrust.
fn write_atomic(path: &Path, doc: &Json, tmp_tag: usize) -> Result<(), String> {
    let dir = path.parent().ok_or("shard path has no parent")?;
    let tmp = dir.join(format!(
        ".tmp-{tmp_tag}-{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("shard")
    ));
    std::fs::write(&tmp, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// Outcome of [`run_campaign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Total units in the manifest expansion.
    pub total: usize,
    /// Units whose valid shard already existed (skipped).
    pub skipped: usize,
    /// Units simulated by this invocation.
    pub ran: usize,
    /// Invalid shards deleted and re-queued before running.
    pub repaired: usize,
    /// `Some(path)` when every unit now has a shard and the merged
    /// campaign report was written.
    pub merged: Option<PathBuf>,
}

/// Runs (or resumes) a campaign: validates existing shards under
/// `out/shards/`, repairs invalid ones, simulates the missing units on
/// `workers` threads (`limit` caps how many this invocation runs — the
/// deterministic interruption used by resume tests), and merges the
/// campaign report once every unit has a shard.
pub fn run_campaign(
    manifest: &Manifest,
    out: &Path,
    workers: usize,
    limit: Option<usize>,
) -> Result<CampaignStatus, String> {
    let units = manifest.units();
    if units.is_empty() {
        return Err("manifest expands to zero units".to_string());
    }
    let shard_dir = out.join("shards");
    std::fs::create_dir_all(&shard_dir)
        .map_err(|e| format!("create {}: {e}", shard_dir.display()))?;

    let mut pending: Vec<&WorkUnit> = Vec::new();
    let mut skipped = 0usize;
    let mut repaired = 0usize;
    for unit in &units {
        let path = shard_path(out, unit);
        match std::fs::read_to_string(&path) {
            Ok(text) => match validate_shard(&text, unit) {
                Ok(_) => skipped += 1,
                Err(why) => {
                    eprintln!("[swque-sweep] repairing shard {} ({why})", path.display());
                    std::fs::remove_file(&path)
                        .map_err(|e| format!("remove {}: {e}", path.display()))?;
                    repaired += 1;
                    pending.push(unit);
                }
            },
            Err(_) => pending.push(unit),
        }
    }
    if let Some(limit) = limit {
        pending.truncate(limit);
    }

    // The same index-claiming pool shape as the harness sweep: claim order
    // is scheduling, not semantics — every shard is keyed by content, so
    // the on-disk outcome is identical for any worker count.
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let next: Mutex<usize> = Mutex::new(0);
    let done: Mutex<usize> = Mutex::new(0);
    let workers = workers.clamp(1, pending.len().max(1));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let pending = &pending;
            let errors = &errors;
            let next = &next;
            let done = &done;
            scope.spawn(move || loop {
                let i = {
                    let mut n = next.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    let i = *n;
                    *n += 1;
                    i
                };
                if i >= pending.len() {
                    break;
                }
                let unit = pending[i];
                let outcome =
                    run_unit(unit).and_then(|doc| write_atomic(&shard_path(out, unit), &doc, w));
                match outcome {
                    Ok(()) => {
                        let mut d = done.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        *d += 1;
                        eprintln!(
                            "[swque-sweep] {}/{} {} {}/{} seed {} {}",
                            *d,
                            pending.len(),
                            unit.key(),
                            unit.kind.label(),
                            unit.model.label(),
                            unit.seed,
                            unit.kernel,
                        );
                    }
                    Err(e) => {
                        errors.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(e)
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(first) = errors.first() {
        return Err(format!("{} unit(s) failed; first: {first}", errors.len()));
    }
    let ran = pending.len();

    let merged = if skipped + ran == units.len() {
        let report = merge_campaign(manifest, out)?;
        let path = out.join("campaign.json");
        write_atomic(&path, &report, usize::MAX)?;
        Some(path)
    } else {
        None
    };
    Ok(CampaignStatus { total: units.len(), skipped, ran, repaired, merged })
}

/// Per-axis marginal rows: for each (axis, value) with the axis length
/// > 1, the geomean IPC over the units holding that value.
fn marginals(units: &[WorkUnit], ipc: &[f64]) -> Vec<Json> {
    let mut out = Vec::new();
    let mut axis = |name: &str, values: Vec<(String, Vec<usize>)>| {
        if values.len() < 2 {
            return;
        }
        for (value, idx) in values {
            let ipcs: Vec<f64> = idx.iter().map(|&i| ipc[i]).collect();
            out.push(Json::obj([
                ("axis", Json::from(name)),
                ("value", Json::from(value)),
                ("units", Json::from(ipcs.len())),
                ("geomean_ipc", Json::from(geomean(&ipcs))),
            ]));
        }
    };
    // Group in first-seen order so the report is deterministic. Linear
    // scans keep this dependency-free; campaigns are thousands of units at
    // most.
    let group = |label: &dyn Fn(&WorkUnit) -> String| -> Vec<(String, Vec<usize>)> {
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, u) in units.iter().enumerate() {
            let l = label(u);
            match groups.iter_mut().find(|(g, _)| *g == l) {
                Some((_, idx)) => idx.push(i),
                None => groups.push((l, vec![i])),
            }
        }
        groups
    };
    let fmt_opt = |v: Option<f64>| v.map_or("default".to_string(), |x| format!("{x}"));
    axis("kind", group(&|u| u.kind.label().to_string()));
    axis("model", group(&|u| u.model.label().to_string()));
    axis("mpki_threshold", group(&|u| fmt_opt(u.mpki_threshold)));
    axis("flpi_threshold", group(&|u| fmt_opt(u.flpi_threshold)));
    axis("seed", group(&|u| u.seed.to_string()));
    axis("kernel", group(&|u| u.kernel.clone()));
    out
}

/// Merges a complete campaign into its report (schema
/// [`CAMPAIGN_SCHEMA`]). Strict: every unit's shard must exist and pass
/// [`validate_shard`] — a corrupt or stale shard fails the merge rather
/// than silently skewing the aggregates. Pure fold in unit order, so the
/// result is byte-identical regardless of how the shards were produced.
pub fn merge_campaign(manifest: &Manifest, out: &Path) -> Result<Json, String> {
    let units = manifest.units();
    let mut rows = Vec::with_capacity(units.len());
    let mut ipcs = Vec::with_capacity(units.len());
    for unit in &units {
        let path = shard_path(out, unit);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("merge: {}: {e}", path.display()))?;
        let doc =
            validate_shard(&text, unit).map_err(|e| format!("merge: {}: {e}", path.display()))?;
        let result = doc.get("result").cloned().unwrap_or(Json::Null);
        ipcs.push(result.get("ipc").and_then(Json::as_f64).unwrap_or(0.0));
        rows.push(Json::obj([
            ("unit_key", Json::from(unit.key())),
            ("unit", unit.canonical_json()),
            ("result", result),
        ]));
    }
    Ok(Json::obj([
        ("schema", Json::from(CAMPAIGN_SCHEMA)),
        ("name", Json::from(manifest.name.as_str())),
        ("units", Json::from(units.len())),
        ("budget", budget_json(&manifest.budget)),
        ("geomean_ipc", Json::from(geomean(&ipcs))),
        ("marginals", Json::Arr(marginals(&units, &ipcs))),
        ("rows", Json::Arr(rows)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_manifest() -> Manifest {
        Manifest::parse(
            r#"{"schema":"swque-sweep-manifest-v1","name":"t",
                "budget":{"warmup_insts":1000,"max_insts":4000,"scale":1200},
                "axes":{"kinds":["CIRC","AGE"],"seeds":[0,7],
                        "kernels":["mcf_like"]}}"#,
        )
        .expect("valid manifest")
    }

    #[test]
    fn expansion_order_is_kind_model_thresholds_seed_kernel() {
        let m = mini_manifest();
        let units = m.units();
        assert_eq!(units.len(), 4);
        let labels: Vec<(String, u64)> =
            units.iter().map(|u| (u.kind.label().to_string(), u.seed)).collect();
        assert_eq!(
            labels,
            vec![
                ("CIRC".to_string(), 0),
                ("CIRC".to_string(), 7),
                ("AGE".to_string(), 0),
                ("AGE".to_string(), 7),
            ],
        );
    }

    #[test]
    fn omitted_axes_default_to_single_entries() {
        let m = Manifest::parse(
            r#"{"schema":"swque-sweep-manifest-v1","name":"d",
                "budget":{"warmup_insts":1,"max_insts":2}}"#,
        )
        .expect("valid");
        assert_eq!(m.axes.kinds, vec![IqKind::Swque]);
        assert_eq!(m.axes.models, vec![ProcessorModel::Medium]);
        assert_eq!(m.axes.mpki_thresholds, vec![None]);
        assert_eq!(m.axes.flpi_thresholds, vec![None]);
        assert_eq!(m.axes.seeds, vec![0]);
        assert_eq!(m.axes.kernels.len(), suite::all().len());
        assert_eq!(m.budget.scale, None);
    }

    #[test]
    fn manifest_rejects_unknowns() {
        let bad = [
            (r#"{"schema":"nope","name":"x","budget":{"warmup_insts":1,"max_insts":2}}"#, "schema"),
            (
                r#"{"schema":"swque-sweep-manifest-v1","name":"x",
                    "budget":{"warmup_insts":1,"max_insts":2},
                    "axes":{"kinds":["BOGUS"]}}"#,
                "axes.kinds",
            ),
            (
                r#"{"schema":"swque-sweep-manifest-v1","name":"x",
                    "budget":{"warmup_insts":1,"max_insts":2},
                    "axes":{"kernels":["missing_like"]}}"#,
                "axes.kernels",
            ),
            (
                r#"{"schema":"swque-sweep-manifest-v1","name":"x",
                    "budget":{"warmup_insts":1,"max_insts":2},
                    "axes":{"seeds":[]}}"#,
                "axes.seeds",
            ),
            (
                r#"{"schema":"swque-sweep-manifest-v1","name":"x",
                    "budget":{"warmup_insts":1,"max_insts":2},"extra":1}"#,
                "unknown key",
            ),
        ];
        for (text, needle) in bad {
            let err = Manifest::parse(text).expect_err(needle);
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn unit_keys_are_stable_and_distinct() {
        let m = mini_manifest();
        let units = m.units();
        let keys: Vec<String> = units.iter().map(WorkUnit::key).collect();
        for k in &keys {
            assert_eq!(k.len(), 16, "16 hex digits: {k}");
        }
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "distinct units, distinct keys");
        // Re-expansion reproduces the same keys (content addressing).
        assert_eq!(keys, mini_manifest().units().iter().map(WorkUnit::key).collect::<Vec<_>>());
    }

    #[test]
    fn unit_thresholds_reach_the_spec_config() {
        let budget = Budget { warmup_insts: 10, max_insts: 20, scale: Some(30) };
        let large = ProcessorModel::Large.config();
        let plain = WorkUnit {
            kind: IqKind::Swque,
            model: ProcessorModel::Large,
            mpki_threshold: None,
            flpi_threshold: None,
            seed: 7,
            kernel: "mcf_like".to_string(),
            budget,
        };
        // Without overrides the spec is the model's configuration.
        let spec = RunSpec { config: large.clone(), iq: IqKind::Swque, budget, seed: 7 };
        assert_eq!(plain.spec(), spec);
        // Each override lands in its own field (neither is the default).
        assert!(large.iq.swque.mpki_threshold != 12.0 && large.iq.swque.flpi_threshold != 0.07);
        let unit = WorkUnit { mpki_threshold: Some(12.0), flpi_threshold: Some(0.07), ..plain };
        let mut expected = spec;
        expected.config.iq.swque.mpki_threshold = 12.0;
        expected.config.iq.swque.flpi_threshold = 0.07;
        assert_eq!(unit.spec(), expected);
    }

    #[test]
    fn budget_is_part_of_the_content_hash() {
        let m = mini_manifest();
        let mut changed = m.clone();
        changed.budget.max_insts += 1;
        assert_ne!(m.units()[0].key(), changed.units()[0].key());
    }
}
