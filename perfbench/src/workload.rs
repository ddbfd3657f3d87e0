//! The three workloads and one *round* of each: a whole, fixed campaign
//! (or grid of cell campaigns) whose inputs never change from run to run.

use crate::trace::{TracedBackend, Tracer};
use spatter_core::matrix::{MatrixConfig, MatrixEntry, MatrixRunner};
use spatter_core::replay::ReplayHasher;
use spatter_core::{
    BackendSpec, CampaignConfig, CampaignReport, CampaignRunner, DialectSpec, MutationConfig,
};
use spatter_sdb::{EngineProfile, FaultId, FaultSet};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign seed of both campaign workloads.
pub const CAMPAIGN_SEED: u64 = 5;
/// Iterations per campaign round: enough for a p90 with ten iterations
/// beyond it. Iteration 48 of seed 5 is one the canonicalisation fault makes
/// fail on the fault-free engine; a round runs through it.
pub const CAMPAIGN_ITERATIONS: usize = 100;
/// Seed shared by every cell of the matrix grid.
pub const MATRIX_SEED: u64 = 3;
/// Iterations per matrix cell.
pub const MATRIX_ITERATIONS: usize = 20;
/// Roster labels of the matrix, in roster order.
pub const MATRIX_LABELS: [&str; 3] = ["reference", "twin", "stock"];
/// Roster index of the stock (faulty) engine.
pub const MATRIX_STOCK: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default campaign: stock PostgisLike engine, attribution on.
    CampaignAttributed,
    /// The default campaign with the default mutation script, attribution
    /// off.
    MutationRaw,
    /// The hermetic 3×3 differential matrix.
    Matrix3x3,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "campaign-attributed" => Some(Workload::CampaignAttributed),
            "mutation-raw" => Some(Workload::MutationRaw),
            "matrix-3x3" => Some(Workload::Matrix3x3),
            _ => None,
        }
    }
}

/// The engine under test of the campaign workloads: the stock in-process
/// PostgisLike engine that `CampaignConfig::default()` tests.
pub fn stock_spec() -> BackendSpec {
    let profile = EngineProfile::PostgisLike;
    BackendSpec::InProcess {
        profile,
        faults: profile.default_faults(),
    }
}

/// The fault-free in-process engine.
pub fn reference_spec() -> BackendSpec {
    BackendSpec::InProcess {
        profile: EngineProfile::PostgisLike,
        faults: FaultSet::none(),
    }
}

/// The seeded faults a spec's engine carries (none for external engines,
/// whose faults are unknown to the campaign).
pub fn spec_faults(spec: &BackendSpec) -> FaultSet {
    match spec {
        BackendSpec::InProcess { faults, .. } | BackendSpec::Stdio { faults, .. } => faults.clone(),
        BackendSpec::External { .. } => FaultSet::none(),
    }
}

/// The campaign of a campaign workload, on the given engine.
pub fn campaign_config(workload: Workload, engine: &BackendSpec) -> CampaignConfig {
    let mut config = CampaignConfig {
        iterations: CAMPAIGN_ITERATIONS,
        seed: CAMPAIGN_SEED,
        backend: engine.build(),
        ..CampaignConfig::default()
    };
    if workload == Workload::MutationRaw {
        config.mutations = Some(MutationConfig::default());
        config.attribute_findings = false;
    }
    config
}

/// The matrix grid: fault-free in-process reference, its fault-free twin
/// behind `ExternalBackend` with the `spatter-sdb-server` dialect, and the
/// stock in-process engine, over the default base campaign.
pub fn matrix_config(server: &Path, workers: usize) -> MatrixConfig {
    let profile = EngineProfile::PostgisLike;
    let twin = BackendSpec::External {
        dialect: DialectSpec::sdb_server(server, profile, FaultSet::none(), false),
    };
    let entries = vec![
        MatrixEntry::new(MATRIX_LABELS[0], reference_spec()),
        MatrixEntry::new(MATRIX_LABELS[1], twin),
        MatrixEntry::new(MATRIX_LABELS[2], stock_spec()),
    ];
    let base = CampaignConfig {
        iterations: MATRIX_ITERATIONS,
        seed: MATRIX_SEED,
        ..CampaignConfig::default()
    };
    MatrixConfig::new(entries, base).with_workers(workers)
}

/// The ordered cells of a roster of `n`, row-major, as `MatrixRunner::run`
/// visits them.
pub fn cells(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|left| (0..n).map(move |right| (left, right)))
        .filter(|(left, right)| left != right)
        .collect()
}

/// One campaign of a round: a matrix cell, or the whole round of a campaign
/// workload (cell `(0, 0)`).
pub struct CellRun {
    /// Roster indexes (`(0, 0)` for campaign workloads).
    pub cell: (usize, usize),
    /// The configuration the campaign ran, to rebuild its inputs.
    pub config: CampaignConfig,
    /// The campaign's report.
    pub report: CampaignReport,
    /// Wall time of `CampaignRunner::run`.
    pub wall: Duration,
    /// CPU seconds the process and its reaped children used in it.
    pub cpu_seconds: f64,
    /// The host speed while it ran: the mean of the samples taken just
    /// before and just after it (`calibrate::host_speed`).
    pub speed: f64,
}

impl CellRun {
    /// A wall-clock span of the campaign in reference seconds.
    fn reference(&self, span: Duration) -> f64 {
        span.as_secs_f64() * self.speed
    }
}

/// One whole round.
pub struct Round {
    /// The round's campaigns, in execution order.
    pub runs: Vec<CellRun>,
}

impl Round {
    /// Raw wall time of the round's campaigns.
    pub fn wall(&self) -> Duration {
        self.runs.iter().map(|run| run.wall).sum()
    }

    /// The wall-weighted host speed of the round.
    pub fn speed(&self) -> f64 {
        self.reference_wall() / self.wall().as_secs_f64()
    }

    fn reference_wall(&self) -> f64 {
        self.runs.iter().map(|run| run.reference(run.wall)).sum()
    }

    /// What the round leaves once its reports are dropped, every time in
    /// reference seconds.
    pub fn summary(&self) -> Summary {
        let mut iteration_ms = Vec::new();
        for run in &self.runs {
            let mut previous = Duration::ZERO;
            for (stamp, _, _) in &run.report.coverage_timeline {
                iteration_ms.push(run.reference(*stamp - previous) * 1e3);
                previous = *stamp;
            }
        }
        Summary {
            wall_s: self.reference_wall(),
            raw_wall_s: self.wall().as_secs_f64(),
            iterations: self.runs.iter().map(|run| run.report.iterations_run).sum(),
            iteration_ms,
            cpu_s: self
                .runs
                .iter()
                .map(|run| run.cpu_seconds * run.speed)
                .sum(),
            fingerprint: self
                .runs
                .iter()
                .map(|run| {
                    let (left, right) = run.cell;
                    (left, right, digest(&run.report), run.report.iterations_run)
                })
                .collect(),
            time_to_all_faults_s: self.time_to_all_faults(),
        }
    }

    /// Reference seconds into the round at which the last distinct seeded
    /// fault the round attributes was first attributed; `None` when none is.
    fn time_to_all_faults(&self) -> Option<f64> {
        let mut first: BTreeMap<FaultId, f64> = BTreeMap::new();
        let mut offset = 0.0;
        for run in &self.runs {
            for finding in &run.report.findings {
                for fault in &finding.attributed_faults {
                    let at = offset + run.reference(finding.elapsed);
                    first
                        .entry(*fault)
                        .and_modify(|t| *t = t.min(at))
                        .or_insert(at);
                }
            }
            offset += run.reference(run.wall);
        }
        first.into_values().reduce(f64::max)
    }
}

/// A round's figures without its reports, so that long runs keep no more
/// memory than one round needs. Times are in reference seconds.
pub struct Summary {
    /// Wall time of the round's campaigns.
    pub wall_s: f64,
    /// The same, as the wall clock read it.
    pub raw_wall_s: f64,
    /// Iterations completed (cell iterations for the matrix).
    pub iterations: usize,
    /// Per-iteration times in ms, from consecutive timeline stamps, in
    /// execution order.
    pub iteration_ms: Vec<f64>,
    /// CPU time of the process and its reaped children.
    pub cpu_s: f64,
    /// The round's determinism identity: each campaign's fingerprint digest
    /// (the digest `MatrixReport` cells carry) with its iteration count.
    pub fingerprint: Vec<(usize, usize, u64, usize)>,
    /// See [`Round::time_to_all_faults`].
    pub time_to_all_faults_s: Option<f64>,
}

/// Milliseconds of a duration.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The digest of a campaign's determinism fingerprint, as the matrix report
/// stores it per cell.
pub fn digest(report: &CampaignReport) -> u64 {
    let mut hasher = ReplayHasher::new();
    hasher.write_str(&report.determinism_fingerprint());
    hasher.finish()
}

/// The workload's input, built once per process.
pub enum Plan {
    /// A campaign workload.
    Campaign(Workload),
    /// The matrix grid.
    Matrix(MatrixRunner),
}

impl Plan {
    /// The plan of a workload; the matrix drives the given server binary.
    pub fn new(workload: Workload, server: &Path) -> Plan {
        match workload {
            Workload::Matrix3x3 => Plan::Matrix(MatrixRunner::new(matrix_config(server, 1))),
            other => Plan::Campaign(other),
        }
    }

    /// The campaigns of one round: each cell's configuration with its engine
    /// under test built fresh, wrapped in the tracer when one is given.
    pub fn round_configs(
        &self,
        tracer: Option<&Arc<Tracer>>,
    ) -> Vec<((usize, usize), CampaignConfig)> {
        let wrap = |mut config: CampaignConfig, spec: &BackendSpec| {
            if let Some(tracer) = tracer {
                config.backend = Arc::new(TracedBackend::new(
                    spec.build_boxed(),
                    spec_faults(spec),
                    Arc::clone(tracer),
                ));
            }
            config
        };
        match self {
            Plan::Campaign(workload) => {
                let spec = stock_spec();
                vec![((0, 0), wrap(campaign_config(*workload, &spec), &spec))]
            }
            Plan::Matrix(runner) => {
                let entries = &runner.config().entries;
                cells(entries.len())
                    .into_iter()
                    .map(|(left, right)| {
                        let config = runner.cell_campaign(left, right);
                        ((left, right), wrap(config, &entries[left].spec))
                    })
                    .collect()
            }
        }
    }

    /// Runs one round with one campaign worker, traced when a tracer is
    /// given. The host speed is sampled after every campaign; `speed` holds
    /// the last sample, taken before the round, and is left holding the
    /// round's last.
    pub fn run_round(&self, tracer: Option<&Arc<Tracer>>, speed: &mut f64) -> Round {
        let runs = self
            .round_configs(tracer)
            .into_iter()
            .map(|(cell, config)| {
                let runner = CampaignRunner::new(config.clone()).with_workers(1);
                let cpu_before = crate::stats::cpu_seconds();
                let start = Instant::now();
                let report = runner.run();
                let wall = start.elapsed();
                let cpu_seconds = crate::stats::cpu_seconds() - cpu_before;
                let speed_after = crate::calibrate::host_speed();
                let run_speed = (*speed + speed_after) / 2.0;
                *speed = speed_after;
                CellRun {
                    cell,
                    config,
                    report,
                    wall,
                    cpu_seconds,
                    speed: run_speed,
                }
            })
            .collect();
        Round { runs }
    }
}
