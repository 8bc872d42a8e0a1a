//! Sweep campaigns: declarative manifests expanded into deterministic,
//! sharded, resumable simulation work (the `swque-sweep` binary).
//!
//! A *manifest* (schema [`MANIFEST_SCHEMA`]) names a campaign, fixes a run
//! budget, and lists axis values — issue-queue kinds, processor models,
//! controller thresholds, workload layout seeds, kernels. The cartesian
//! product of the axes is expanded in a fixed nested order into a list of
//! *work units*; each unit is one job of [`run_units`], the worker pool
//! `all_experiments` uses.
//!
//! Results are *sharded*: every completed unit writes one JSON file
//! (schema [`SHARD_SCHEMA`]) named by the unit's content hash — an FNV-1a
//! 64 digest of the unit's canonical JSON, which covers every
//! code-relevant knob (axes *and* budget). Shards make campaigns
//! resumable: a re-run validates existing shards, repairs invalid ones,
//! and only simulates what is missing, so a campaign killed mid-run
//! finishes from where it died and an edited manifest reuses every unit
//! it still shares with the old one.
//!
//! When every unit has a valid shard, the campaign *merges* (schema
//! [`CAMPAIGN_SCHEMA`]): one row per unit in expansion order, the
//! campaign-wide IPC geometric mean, and per-axis marginal geomeans. The
//! merge is strict — a missing, unparseable, or key-mismatched shard fails
//! it — and pure (a fold over shard files in a deterministic order), so
//! the merged report is byte-identical no matter how many workers produced
//! the shards or across how many interrupted runs.
//!
//! A document is valid when its writer rebuilds it: [`validate_shard_doc`]
//! reads the unit back with [`WorkUnit::from_json`] and re-renders it with
//! [`shard_doc`], and [`validate_campaign`] re-folds the rows through
//! [`campaign_doc`]. Either must reproduce the document byte for byte, so
//! an edited geomean, marginal or unit key fails exactly where it was
//! edited.

use std::path::{Path, PathBuf};

use swque_core::{fnv1a64, IqKind};
use swque_cpu::SimResult;
use swque_trace::Json;
use swque_workloads::suite;

use crate::harness::{geomean, run_units, Budget, ProcessorModel, RunSpec, Unit};

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

    /// Reads a unit back from its [`canonical_json`](Self::canonical_json),
    /// the inverse: `from_json(&u.canonical_json())` re-renders to the same
    /// bytes. `Err` names the offending field.
    pub fn from_json(doc: &Json) -> Result<WorkUnit, String> {
        let text = |key: &str| {
            doc.get(key).and_then(Json::as_str).ok_or_else(|| format!("{key}: not a string"))
        };
        let threshold = |key: &str| match doc.get(key) {
            Some(Json::Null) => Ok(None),
            v => v.and_then(Json::as_f64).map(Some).ok_or(format!("{key}: not a number or null")),
        };
        let (kind, model) = (text("kind")?, text("model")?);
        Ok(WorkUnit {
            kind: IqKind::from_label(kind)
                .ok_or(format!("kind: unknown issue-queue kind {kind:?}"))?,
            model: ProcessorModel::from_label(model)
                .ok_or(format!("model: unknown model {model:?}"))?,
            mpki_threshold: threshold("mpki_threshold")?,
            flpi_threshold: threshold("flpi_threshold")?,
            seed: parse_u64(doc, "seed")?,
            kernel: text("kernel")?.to_string(),
            budget: budget_from_json(doc.get("budget").ok_or("budget: missing")?)?,
        })
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

/// Reads the `budget` object of a manifest, unit or campaign; unknown keys
/// are errors, and an omitted `scale` is the kernels' default.
fn budget_from_json(budget: &Json) -> Result<Budget, String> {
    for key in budget.keys() {
        if !["warmup_insts", "max_insts", "scale"].contains(&key) {
            return Err(format!("budget: unknown key {key:?}"));
        }
    }
    Ok(Budget {
        warmup_insts: parse_u64(budget, "warmup_insts").map_err(|e| format!("budget.{e}"))?,
        max_insts: parse_u64(budget, "max_insts").map_err(|e| format!("budget.{e}"))?,
        scale: match budget.get("scale") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("budget.scale: not an integer or null")?),
        },
    })
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
        let budget = budget_from_json(doc.get("budget").ok_or("budget: missing")?)?;
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
    /// the campaign's unit order: merged-report rows follow it.
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

/// The result object of a shard or campaign row: the measured window's
/// counters and rates.
fn result_json(result: &SimResult) -> Json {
    Json::obj([
        ("cycles", Json::from(result.cycles)),
        ("retired", Json::from(result.retired)),
        ("ipc", Json::from(result.ipc())),
        ("mpki", Json::from(result.mpki())),
        ("flpi", Json::from(result.iq.flpi())),
        ("mode_switches", Json::from(result.swque.map_or(0, |s| s.switches))),
    ])
}

/// The shard document (schema [`SHARD_SCHEMA`]) of `unit` with its
/// `result` object.
pub fn shard_doc(unit: &WorkUnit, result: Json) -> Json {
    Json::obj([
        ("schema", Json::from(SHARD_SCHEMA)),
        ("unit_key", Json::from(unit.key())),
        ("unit", unit.canonical_json()),
        ("result", result),
    ])
}

/// Path of `unit`'s shard file inside `out`.
pub fn shard_path(out: &Path, unit: &WorkUnit) -> PathBuf {
    out.join("shards").join(format!("{}.json", unit.key()))
}

/// Reads the unit and result of a shard or campaign row: the unit through
/// [`WorkUnit::from_json`], its `unit_key` checked against the unit's
/// content hash, the result through [`validate_result`]. `path` (empty or
/// ending in `.`) prefixes every diagnostic.
fn read_row(row: &Json, path: &str) -> Result<(WorkUnit, Json), String> {
    let unit = WorkUnit::from_json(row.get("unit").unwrap_or(&Json::Null))
        .map_err(|e| format!("{path}unit.{e}"))?;
    let key = row.get("unit_key").and_then(Json::as_str).unwrap_or("");
    if key != unit.key() {
        return Err(format!(
            "{path}unit_key: {key:?} does not match the unit's content hash {:?}",
            unit.key()
        ));
    }
    let result = row.get("result").ok_or_else(|| format!("{path}result: missing"))?;
    validate_result(result, &format!("{path}result"))?;
    Ok((unit, result.clone()))
}

/// Validates a shard document: its result passes [`validate_result`] and
/// [`shard_doc`] rebuilds it byte for byte from its own unit and result.
/// Returns both. `Err` names the first offending JSON path.
pub fn validate_shard_doc(doc: &Json) -> Result<(WorkUnit, Json), String> {
    let (unit, result) = read_row(doc, "")?;
    doc.mismatch(&shard_doc(&unit, result.clone())).map_or(Ok((unit, result)), Err)
}

/// Validates the shard text stored for `unit` ([`validate_shard_doc`], and
/// its unit is `unit`) and returns its result object. `Err` describes the
/// first problem (the resume path treats any `Err` as "shard missing" and
/// re-runs the unit; the merge path treats it as fatal).
pub fn validate_shard(text: &str, unit: &WorkUnit) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("parse error: {e}"))?;
    let (stored, result) = validate_shard_doc(&doc)?;
    if stored.key() != unit.key() {
        return Err(format!(
            "unit_key: {:?} is not the manifest unit {:?}",
            stored.key(),
            unit.key()
        ));
    }
    Ok(result)
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

/// Writes `doc` to `path` atomically: a process-unique temporary in the
/// same directory, then renamed into place. A campaign killed mid-write
/// therefore leaves either no file or a complete one — never a truncated
/// file a resume or a reader would have to distrust.
fn write_atomic(path: &Path, doc: &Json) -> Result<(), String> {
    let dir = path.parent().ok_or("output path has no parent")?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("out");
    let tmp = dir.join(format!(".tmp-{}-{name}", std::process::id()));
    std::fs::write(&tmp, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// Writes the shard of a finished unit. Fails (rather than writing a
/// poisoned shard) when the simulator reports a pipeline invariant
/// violation or the measured window is empty.
fn write_shard(out: &Path, unit: &WorkUnit, result: &SimResult) -> Result<(), String> {
    if let Some(v) = &result.invariant {
        return Err(format!("unit {} ({}): {v}", unit.key(), unit.kernel));
    }
    if result.cycles == 0 || result.retired == 0 {
        return Err(format!("unit {} ({}): empty measurement window", unit.key(), unit.kernel));
    }
    write_atomic(&shard_path(out, unit), &shard_doc(unit, result_json(result)))
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
    /// The merged campaign report.
    pub merged: PathBuf,
}

/// Runs (or resumes) a campaign: validates existing shards under
/// `out/shards/`, repairs invalid ones, simulates the missing units on
/// [`run_units`] with `workers` threads, one job per unit, writing each
/// shard as its unit finishes, and merges the campaign report.
pub fn run_campaign(
    manifest: &Manifest,
    out: &Path,
    workers: usize,
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

    // One job per unit keeps a one-kernel campaign parallel. Every shard
    // is keyed by content, so the on-disk outcome is identical for any
    // worker count and completion order.
    let jobs = pending
        .iter()
        .map(|u| {
            let kernel = suite::by_name(&u.kernel)
                .ok_or_else(|| format!("unit {}: unknown kernel {:?}", u.key(), u.kernel))?;
            Ok((kernel, vec![Unit { spec: u.spec(), traced: false }]))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (mut finished, mut errors) = (0usize, Vec::new());
    run_units(&jobs, workers, |job, _, outcome| {
        let unit = pending[job];
        match write_shard(out, unit, &outcome.result) {
            Ok(()) => {
                finished += 1;
                eprintln!(
                    "[swque-sweep] {finished}/{} {} {}/{} seed {} {}",
                    pending.len(),
                    unit.key(),
                    unit.kind.label(),
                    unit.model.label(),
                    unit.seed,
                    unit.kernel,
                );
            }
            Err(e) => errors.push(e),
        }
    });
    if let Some(first) = errors.first() {
        return Err(format!("{} unit(s) failed; first: {first}", errors.len()));
    }
    let merged = merge_campaign(manifest, out)?;
    Ok(CampaignStatus { total: units.len(), skipped, ran: pending.len(), repaired, merged })
}

/// Per-axis marginal rows: for each (axis, value) with the axis length
/// > 1, the geomean IPC over the units holding that value.
fn marginals(rows: &[(WorkUnit, Json)], ipc: &[f64]) -> Vec<Json> {
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
        for (i, (u, _)) in rows.iter().enumerate() {
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

/// The merged report (schema [`CAMPAIGN_SCHEMA`]) of campaign `name` under
/// `budget` over `rows`, each a unit and its result object, in unit order.
/// A pure fold: the same rows give the same bytes.
///
/// # Panics
///
/// Panics if `rows` is empty or a result's `ipc` is not positive; callers
/// check each result with [`validate_result`] first.
pub fn campaign_doc(name: &str, budget: &Budget, rows: &[(WorkUnit, Json)]) -> Json {
    let ipcs: Vec<f64> =
        rows.iter().map(|(_, r)| r.get("ipc").and_then(Json::as_f64).unwrap_or(0.0)).collect();
    let row_docs = rows.iter().map(|(unit, result)| {
        Json::obj([
            ("unit_key", Json::from(unit.key())),
            ("unit", unit.canonical_json()),
            ("result", result.clone()),
        ])
    });
    Json::obj([
        ("schema", Json::from(CAMPAIGN_SCHEMA)),
        ("name", Json::from(name)),
        ("units", Json::from(rows.len())),
        ("budget", budget_json(budget)),
        ("geomean_ipc", Json::from(geomean(&ipcs))),
        ("marginals", Json::Arr(marginals(rows, &ipcs))),
        ("rows", Json::Arr(row_docs.collect())),
    ])
}

/// Validates a campaign report: every row reads back as a shard does, and
/// [`campaign_doc`] re-folds the rows into the same bytes — so an edited
/// geomean or marginal fails at its own path.
pub fn validate_campaign(doc: &Json) -> Result<(), String> {
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("rows: not an array")?;
    let declared = doc.get("units").and_then(Json::as_u64).ok_or("units: not an integer")?;
    if rows.is_empty() || rows.len() as u64 != declared {
        return Err(format!("rows: {} row(s) vs declared units {declared}", rows.len()));
    }
    let rows = rows
        .iter()
        .enumerate()
        .map(|(i, row)| read_row(row, &format!("rows[{i}].")))
        .collect::<Result<Vec<_>, String>>()?;
    let name = doc.get("name").and_then(Json::as_str).ok_or("name: not a string")?;
    let budget = budget_from_json(doc.get("budget").ok_or("budget: missing")?)?;
    doc.mismatch(&campaign_doc(name, &budget, &rows)).map_or(Ok(()), Err)
}

/// Merges a complete campaign and writes its report atomically to
/// `out/campaign.json`, returning that path. Strict: every unit's shard
/// must exist and pass [`validate_shard`] — a corrupt or stale shard fails
/// the merge rather than silently skewing the aggregates. The fold is in
/// unit order, so the report is byte-identical however the shards were
/// produced.
pub fn merge_campaign(manifest: &Manifest, out: &Path) -> Result<PathBuf, String> {
    let rows = manifest
        .units()
        .into_iter()
        .map(|unit| {
            let path = shard_path(out, &unit);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("merge: {}: {e}", path.display()))?;
            let result = validate_shard(&text, &unit)
                .map_err(|e| format!("merge: {}: {e}", path.display()))?;
            Ok((unit, result))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let path = out.join("campaign.json");
    write_atomic(&path, &campaign_doc(&manifest.name, &manifest.budget, &rows))?;
    Ok(path)
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
    fn units_read_back_from_their_canonical_json() {
        let mut units = mini_manifest().units();
        units[0].model = ProcessorModel::Large;
        units[1].mpki_threshold = Some(1.5);
        units[2].flpi_threshold = Some(0.07);
        units[3].budget.scale = None;
        for unit in &units {
            let text = unit.canonical_json().to_string();
            let back = WorkUnit::from_json(&Json::parse(&text).expect("parses")).expect("reads");
            assert_eq!(&back, unit);
            assert_eq!(back.canonical_json().to_string(), text);
        }
        let bad = Json::parse(&units[0].canonical_json().to_string().replace("CIRC", "NOPE"));
        let err = WorkUnit::from_json(&bad.expect("parses")).unwrap_err();
        assert!(err.starts_with("kind: unknown issue-queue kind \"NOPE\""), "{err}");
    }

    #[test]
    fn budget_is_part_of_the_content_hash() {
        let m = mini_manifest();
        let mut changed = m.clone();
        changed.budget.max_insts += 1;
        assert_ne!(m.units()[0].key(), changed.units()[0].key());
    }
}
