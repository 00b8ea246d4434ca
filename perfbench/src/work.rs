//! The batch workloads: what one iteration runs, how it is timed, and how
//! its outputs are judged.

use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;
use wavelan_analysis::json::to_string_pretty;
use wavelan_analysis::{Report, RunDocument};
use wavelan_bench::run_report;
use wavelan_core::sweep::{self, SweepDocument};
use wavelan_core::{Executor, Scale, NAMES};
use wavelan_validate::Verdict;

/// Executor workers for every workload: the host's core count.
pub const JOBS: usize = 2;

/// Artifacts of the contention workload: interference segment walks, MAC
/// deferral and capture, and Viterbi decode.
pub const CONTENTION: [&str; 6] = [
    "table10",
    "table11-13",
    "table14",
    "fec",
    "harq",
    "hidden-terminal",
];

/// Points of the sweep workload's oven-lhs space.
pub const SWEEP_POINTS: usize = 2_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Contention,
    Sweep,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "paper" => Workload::Paper,
            "contention" => Workload::Contention,
            "sweep" => Workload::Sweep,
            "serve" => Workload::Serve,
            _ => return None,
        })
    }
}

/// One timed operation of an iteration.
#[derive(Debug, Clone)]
pub struct Op {
    pub name: String,
    pub seconds: f64,
}

/// One iteration's timings, outputs and verdicts.
pub struct Iteration {
    /// The timed window: every operation plus serializing the documents.
    pub wall_s: f64,
    pub ops: Vec<Op>,
    /// Operations attempted (artifacts or sweep points).
    pub attempted: u64,
    /// Operations that failed inside the iteration (the fidelity checks
    /// are judged across seeds, by [`judge`]).
    pub failed: u64,
    /// FNV-64 of every output document, in order.
    pub digest: u64,
    /// Why operations failed.
    pub problems: Vec<String>,
    /// The reports produced (artifact workloads).
    pub reports: Vec<Report>,
    /// The sweep document (sweep workload).
    pub sweep: Option<SweepDocument>,
    /// Serialized output bytes.
    pub output_bytes: u64,
}

/// The `/run` and `repro --format json` document of one artifact.
pub fn run_json(report: Report, scale: Scale, seed: u64) -> String {
    to_string_pretty(&RunDocument {
        scale: scale.name(),
        seed,
        artifacts: vec![report],
    })
}

/// The workload's sweep space.
pub fn sweep_space() -> sweep::ParameterSpace {
    sweep::preset("oven-lhs")
        .expect("oven-lhs is a built-in preset")
        .with_points(SWEEP_POINTS)
}

/// `(artifact, scale, seed)` triples one iteration of an artifact workload
/// runs, in order. The serve workload's set is the smoke-scale run of
/// every artifact that its store holds.
pub fn artifact_runs(workload: Workload, seed: u64) -> Vec<(&'static str, Scale, u64)> {
    match workload {
        Workload::Paper => NAMES.iter().map(|&a| (a, Scale::Paper, seed)).collect(),
        Workload::Contention => CONTENTION
            .iter()
            .map(|&a| (a, Scale::Paper, seed))
            .collect(),
        Workload::Sweep | Workload::Serve => {
            NAMES.iter().map(|&a| (a, Scale::Smoke, seed)).collect()
        }
    }
}

/// One fidelity check's quantity resolved on one report.
pub struct Resolved {
    pub artifact: &'static str,
    pub id: &'static str,
    pub value: Result<f64, String>,
}

/// Resolves every fidelity check that runs at the report's scale.
pub fn resolve_checks(reports: &[Report], scale: Scale) -> Vec<Resolved> {
    let corpus = wavelan_validate::corpus();
    let mut out = Vec::new();
    for report in reports {
        for table in corpus.iter().filter(|t| t.artifact == report.artifact) {
            for check in table.checks.iter().filter(|c| c.runs_at(scale)) {
                out.push(Resolved {
                    artifact: report.artifact,
                    id: check.id,
                    value: check.quantity.resolve(report),
                });
            }
        }
    }
    out
}

/// Judges the mean of a check's values across seeds; `Err` says why the
/// check failed. Warns pass, as in `repro --validate`.
pub fn judge(id: &str, values: &[f64]) -> Result<(), String> {
    let corpus = wavelan_validate::corpus();
    let check = corpus
        .iter()
        .flat_map(|t| t.checks.iter())
        .find(|c| c.id == id)
        .ok_or_else(|| format!("unknown check {id}"))?;
    if values.is_empty() {
        return Err(format!("{id}: no values"));
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if check.expected.judge(mean) == Verdict::Fail {
        return Err(format!(
            "{id}: mean {mean} outside {}",
            check.expected.describe()
        ));
    }
    Ok(())
}

/// Runs one iteration of an artifact workload (`paper`, `contention`, or
/// the smoke set of `sweep`/`serve`): every artifact through the registry
/// as `repro` runs it, then the JSON documents `repro --format json`
/// prints, one per seed. Spans wrap each artifact run when `tracer` is on.
pub fn run_artifacts(
    workload: Workload,
    seed: u64,
    exec: &Executor,
    tracer: &mut Tracer,
) -> Iteration {
    let runs = artifact_runs(workload, seed);
    let start = Instant::now();
    let mut ops = Vec::with_capacity(runs.len());
    let mut docs: Vec<(Scale, u64, Vec<Report>)> = Vec::new();
    for &(artifact, scale, s) in &runs {
        let t = Instant::now();
        let report = tracer.time(&format!("core.artifact:{artifact}"), 1, || {
            run_report(artifact, scale, s, exec).expect("workload artifacts are registered")
        });
        ops.push(Op {
            name: artifact.to_string(),
            seconds: t.elapsed().as_secs_f64(),
        });
        match docs.last_mut() {
            Some((sc, sd, reports)) if *sc == scale && *sd == s => reports.push(report),
            _ => docs.push((scale, s, vec![report])),
        }
    }
    let json: Vec<String> = tracer.time("analysis.json", docs.len() as u64, || {
        docs.iter()
            .map(|(scale, s, reports)| {
                to_string_pretty(&RunDocument {
                    scale: scale.name(),
                    seed: *s,
                    artifacts: reports.clone(),
                })
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut bytes = Vec::new();
    for doc in &json {
        bytes.extend_from_slice(doc.as_bytes());
    }
    let reports: Vec<Report> = docs.into_iter().flat_map(|(_, _, r)| r).collect();
    Iteration {
        wall_s,
        ops,
        attempted: runs.len() as u64,
        failed: 0,
        digest: wavelan_store::fnv64(&bytes),
        problems: Vec::new(),
        reports,
        sweep: None,
        output_bytes: bytes.len() as u64,
    }
}

/// Runs one sweep iteration: the oven-lhs space at smoke scale, then its
/// JSON document as `repro sweep --format json` prints it.
pub fn run_sweep(seed: u64, exec: &Executor, tracer: &mut Tracer) -> Iteration {
    let space = sweep_space();
    let start = Instant::now();
    let result = tracer.time("core.sweep_run", SWEEP_POINTS as u64, || {
        space.run(Scale::Smoke, seed, exec)
    });
    let (json, doc, problems) = match result {
        Ok(doc) => {
            let json = tracer.time("analysis.json", 1, || to_string_pretty(&doc));
            let mut problems = Vec::new();
            if doc.points.len() != SWEEP_POINTS || doc.ranked.len() != SWEEP_POINTS {
                problems.push(format!("sweep returned {} points", doc.points.len()));
            }
            (json, Some(doc), problems)
        }
        Err(e) => (String::new(), None, vec![format!("sweep failed: {e}")]),
    };
    let wall_s = start.elapsed().as_secs_f64();
    Iteration {
        wall_s,
        ops: vec![Op {
            name: String::from("oven-lhs"),
            seconds: wall_s,
        }],
        attempted: SWEEP_POINTS as u64,
        failed: if problems.is_empty() {
            0
        } else {
            SWEEP_POINTS as u64
        },
        digest: wavelan_store::fnv64(json.as_bytes()),
        problems,
        reports: Vec::new(),
        sweep: doc,
        output_bytes: json.len() as u64,
    }
}

/// Runs one iteration of a batch workload.
pub fn run_batch(workload: Workload, seed: u64, exec: &Executor, tracer: &mut Tracer) -> Iteration {
    match workload {
        Workload::Sweep => run_sweep(seed, exec, tracer),
        _ => run_artifacts(workload, seed, exec, tracer),
    }
}

/// The sweep workload's set-up check: the oven-smoke sweep at the default
/// seed must match the committed golden document byte for byte.
pub fn sweep_golden_check(root: &Path, exec: &Executor) -> Result<(), String> {
    let path = root.join("tests/golden/sweep_smoke.json");
    let golden = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let space = sweep::preset("oven-smoke").expect("oven-smoke is a built-in preset");
    let doc = space
        .run(Scale::Smoke, 1996, exec)
        .map_err(|e| format!("oven-smoke sweep failed: {e}"))?;
    if to_string_pretty(&doc).as_bytes() == golden.as_slice() {
        Ok(())
    } else {
        Err(String::from(
            "oven-smoke sweep differs from tests/golden/sweep_smoke.json",
        ))
    }
}
