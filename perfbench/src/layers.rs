//! Per-layer figures of a traced round: the decorator's engine-call and span
//! totals, the generator and transform re-timed on the round's own inputs,
//! the probe-counter deltas, the SQL layer replayed from the captured
//! statements, and the out-of-process engine's session files.

use crate::trace::{CapturedSession, Step, TraceState};
use crate::workload::{ms, Round};
use spatter_core::CampaignRunner;
use spatter_sdb::parser::parse_statement;
use spatter_sdb::Engine;
use spatter_topo::coverage;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Plan and kernel probes whose per-round hit counts are reported as is.
pub const PLAN_PROBES: [&str; 9] = [
    "sdb.exec.join_nested_loop",
    "sdb.exec.join_index_scan",
    "sdb.exec.join_prepared",
    "sdb.exec.join_distance_prepared",
    "sdb.exec.knn_index_scan",
    "sdb.exec.insert",
    "sdb.exec.update",
    "sdb.exec.delete",
    "sdb.expr.function_predicate",
];

/// Probe families summed into one kernel count each.
pub const KERNEL_FAMILIES: [(&str, &str); 2] = [
    ("topo.predicate_calls", "topo.predicate."),
    ("topo.distance_calls", "topo.distance."),
];

/// A snapshot of the probe counters the layers report.
pub struct ProbeCounts(BTreeMap<&'static str, u64>);

impl ProbeCounts {
    /// Reads the counters now.
    pub fn read() -> ProbeCounts {
        let mut counts: BTreeMap<&'static str, u64> = PLAN_PROBES
            .iter()
            .map(|name| (*name, coverage::hit_count(name)))
            .collect();
        for (metric, prefix) in KERNEL_FAMILIES {
            let sum = coverage::TOPO_PROBES
                .iter()
                .filter(|probe| probe.starts_with(prefix))
                .map(|probe| coverage::hit_count(probe))
                .sum();
            counts.insert(metric, sum);
        }
        ProbeCounts(counts)
    }

    /// The hits since `earlier`, by metric name.
    pub fn since(&self, earlier: &ProbeCounts) -> Vec<(&'static str, f64)> {
        self.0
            .iter()
            .map(|(name, now)| (*name, (now - earlier.0[name]) as f64))
            .collect()
    }
}

/// Re-times `CampaignRunner::build_scenario` and `TransformPlan::apply` on
/// every iteration of the round's campaigns: `(generator, transform)`.
pub fn generator_and_transform(round: &Round) -> (Duration, Duration) {
    let mut generator = Duration::ZERO;
    let mut transform = Duration::ZERO;
    for run in &round.runs {
        let runner = CampaignRunner::new(run.config.clone());
        for iteration in 0..run.report.iterations_run {
            let start = Instant::now();
            let parts = runner.build_scenario(iteration, None);
            generator += start.elapsed();
            let start = Instant::now();
            let transformed = parts.plan.apply(&parts.spec);
            transform += start.elapsed();
            std::hint::black_box(transformed);
        }
    }
    (generator, transform)
}

/// The wall-time partition of one traced round. The engine-call figures
/// and the two spans come from the decorator; generator and transform are
/// re-timed outside the round and taken out of the time no span covers.
pub struct Partition {
    /// The traced round's wall time.
    pub wall: Duration,
    /// `build_scenario`, re-timed.
    pub generator: Duration,
    /// `TransformPlan::apply` of the main pass, re-timed.
    pub transform: Duration,
    /// Oracle work inside the spans but outside engine calls.
    pub oracle_other: Duration,
    /// What no layer covers: the wall less every other part (negative if
    /// the re-timed layers overshoot).
    pub unaccounted_ms: f64,
}

impl Partition {
    /// Builds the partition of a traced round.
    pub fn new(round: &Round, trace: &TraceState) -> Partition {
        let wall = round.wall();
        let (generator, transform) = generator_and_transform(round);
        let engine = trace.main.load + trace.main.query;
        let attribution_engine = trace.attribution.load + trace.attribution.query;
        let oracle_other = trace.main_span.saturating_sub(engine)
            + trace.attribution_span.saturating_sub(attribution_engine);
        let covered = generator + transform + engine + attribution_engine + oracle_other;
        Partition {
            wall,
            generator,
            transform,
            oracle_other,
            unaccounted_ms: ms(wall) - ms(covered),
        }
    }
}

/// The SQL layer replayed: every captured session's statements in order,
/// through `parse_statement` and `Engine::execute_parsed` on a fresh engine
/// of the session's configuration.
pub struct SqlReplay {
    /// Time in `parse_statement`.
    pub parse: Duration,
    /// Time in `Engine::execute_parsed`.
    pub execute: Duration,
    /// Statements replayed.
    pub statements: u64,
    /// Distinct statement texts among them.
    pub distinct: u64,
}

impl SqlReplay {
    /// Replays the captured sessions.
    pub fn run(sessions: &[CapturedSession]) -> SqlReplay {
        let mut replay = SqlReplay {
            parse: Duration::ZERO,
            execute: Duration::ZERO,
            statements: 0,
            distinct: 0,
        };
        let mut distinct: HashSet<&str> = HashSet::new();
        for session in sessions {
            let mut engine = Engine::with_faults(session.profile, session.faults.clone());
            for step in &session.steps {
                let (batch, stop_at_error) = match step {
                    Step::Load(batch) => (batch.as_slice(), true),
                    Step::Query(sql) => (std::slice::from_ref(sql), false),
                };
                for sql in batch {
                    distinct.insert(sql);
                    replay.statements += 1;
                    let ok = replay.execute_one(&mut engine, sql);
                    if !ok && stop_at_error {
                        break;
                    }
                }
            }
        }
        replay.distinct = distinct.len() as u64;
        replay
    }

    fn execute_one(&mut self, engine: &mut Engine, sql: &str) -> bool {
        let start = Instant::now();
        let parsed = parse_statement(sql);
        self.parse += start.elapsed();
        let Ok(statement) = parsed else { return false };
        let start = Instant::now();
        let result = engine.execute_parsed(&statement);
        self.execute += start.elapsed();
        std::hint::black_box(&result);
        result.is_ok()
    }
}

/// Sessions of the out-of-process engine, from the files its processes
/// keep in `dir`: `(sessions, lifetime)`. The files are removed.
pub fn external_sessions(dir: &Path) -> (u64, Duration) {
    let mut sessions = 0;
    let mut lifetime = Duration::ZERO;
    let entries = std::fs::read_dir(dir).expect("the server stats directory is readable");
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("server stats file is readable");
        // Empty when the process was killed before it was ready.
        if let Ok(nanos) = text.trim().parse() {
            lifetime += Duration::from_nanos(nanos);
        }
        sessions += 1;
        std::fs::remove_file(&path).expect("server stats file is removable");
    }
    (sessions, lifetime)
}
