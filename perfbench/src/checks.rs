//! Correctness checks, each made apart from the timed path.

use crate::workload::{
    cells, digest, matrix_config, reference_spec, stock_spec, Plan, Round, Summary, Workload,
    MATRIX_LABELS, MATRIX_STOCK,
};
use spatter_core::campaign::{run_aei_iteration_with_knobs, run_aei_iteration_with_mutations};
use spatter_core::matrix::MatrixRunner;
use spatter_core::{
    AeiOracle, BackendSpec, CampaignConfig, CampaignRunner, DifferentialOracle, EngineBackend,
    Oracle, OracleOutcome, TransformPlan,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Prefix the runner puts on differential findings.
const DIFFERENTIAL_PREFIX: &str = "[Differential] ";

/// Findings of a failed check, one line each.
#[derive(Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.0.push(message());
        }
    }
}

/// Every round must report the same fingerprint as the first.
pub fn same_fingerprints(rounds: &[&Summary], failures: &mut Failures) {
    let Some(first) = rounds.first() else { return };
    for (index, round) in rounds.iter().enumerate() {
        failures.check(round.fingerprint == first.fingerprint, || {
            format!("round {index}: fingerprint differs from round 0")
        });
    }
}

/// The iterations on which the fault-free engine, given the same inputs,
/// reports an AEI finding, each checked to be the canonicalisation fault.
/// Shared by every cell of the matrix, whose cells run the same inputs.
pub fn reference_failures(plan: &Plan, failures: &mut Failures) -> BTreeSet<usize> {
    let mut config = match plan {
        Plan::Campaign(workload) => crate::workload::campaign_config(*workload, &reference_spec()),
        Plan::Matrix(runner) => runner.config().base.clone(),
    };
    config.backend = reference_spec().build();
    config.attribute_findings = false;
    let runner = CampaignRunner::new(config);
    let report = runner.run();
    let failing: BTreeSet<usize> = report.findings.iter().map(|f| f.iteration).collect();
    for &iteration in &failing {
        failures.check(is_canonicalisation_fault(&runner, iteration), || {
            format!(
                "iteration {iteration}: the fault-free engine reports an AEI finding that \
                 the canonicalisation fault does not explain"
            )
        });
    }
    failing
}

/// Whether an iteration's fault-free AEI findings come from
/// canonicalisation: they remain under a canonicalisation-only plan and
/// vanish when the iteration's own matrix is applied without it.
fn is_canonicalisation_fault(runner: &CampaignRunner, iteration: usize) -> bool {
    let parts = runner.build_scenario(iteration, None);
    let reference = reference_spec().build();
    let logic_bugs = |plan: &TransformPlan| {
        let (outcomes, _) = match &parts.script {
            Some(script) => run_aei_iteration_with_mutations(
                reference.as_ref(),
                &parts.spec,
                &parts.queries,
                plan,
                &parts.knobs,
                script,
            ),
            None => run_aei_iteration_with_knobs(
                reference.as_ref(),
                &parts.spec,
                &parts.queries,
                plan,
                &parts.knobs,
            ),
        };
        outcomes.iter().filter(|o| o.is_logic_bug()).count()
    };
    let uncanonicalised = TransformPlan::from_matrix(false, *parts.plan.transform.matrix())
        .expect("the iteration's matrix is invertible");
    logic_bugs(&parts.plan) > 0
        && logic_bugs(&TransformPlan::canonicalization_only()) > 0
        && logic_bugs(&uncanonicalised) == 0
}

/// The round again with two campaign workers must fingerprint identically
/// (the matrix makes this check through `MatrixRunner::run`).
pub fn two_workers(plan: &Plan, round: &Round, failures: &mut Failures) {
    let twice: Vec<_> = plan
        .round_configs(None)
        .into_iter()
        .map(|(cell, config)| {
            let report = CampaignRunner::new(config).with_workers(2).run();
            (cell.0, cell.1, digest(&report), report.iterations_run)
        })
        .collect();
    failures.check(twice == round.summary().fingerprint, || {
        "fingerprint at 2 workers differs from 1 worker".to_string()
    });
}

/// Each distinct attributed fault, re-verified on freshly built backends:
/// the fault belongs to the engine's seeded set, the stock engine reproduces
/// the finding, and removing the fault makes it vanish.
pub fn attributed_faults(plan: &Plan, round: &Round, failures: &mut Failures) {
    for run in &round.runs {
        let left_spec = match plan {
            Plan::Campaign(_) => stock_spec(),
            Plan::Matrix(runner) => runner.config().entries[run.cell.0].spec.clone(),
        };
        let twin = match plan {
            Plan::Campaign(_) => None,
            Plan::Matrix(runner) => Some(runner.config().entries[run.cell.1].spec.clone()),
        };
        let seeded: BTreeSet<_> = left_spec.build().fault_ids().into_iter().collect();
        let mut seen = BTreeSet::new();
        for finding in &run.report.findings {
            for fault in &finding.attributed_faults {
                failures.check(seeded.contains(fault), || {
                    format!("{fault:?} is attributed but not seeded in the engine")
                });
                if !seen.insert(*fault) {
                    continue;
                }
                let verdict = reverify(
                    &run.config,
                    &left_spec,
                    twin.as_ref(),
                    finding.iteration,
                    &finding.description,
                    *fault,
                );
                if let Err(message) = verdict {
                    failures.0.push(format!(
                        "cell {:?}, {fault:?} (iteration {}): {message}",
                        run.cell, finding.iteration
                    ));
                }
            }
        }
    }
}

fn reverify(
    config: &CampaignConfig,
    left: &BackendSpec,
    twin: Option<&BackendSpec>,
    iteration: usize,
    description: &str,
    fault: spatter_sdb::FaultId,
) -> Result<(), String> {
    let parts = CampaignRunner::new(config.clone()).build_scenario(iteration, None);
    let (oracle, wanted): (Box<dyn Oracle>, &str) =
        match (description.strip_prefix(DIFFERENTIAL_PREFIX), twin) {
            (Some(rest), Some(twin)) => (
                Box::new(DifferentialOracle::against(twin.build_boxed())),
                rest,
            ),
            _ => (
                Box::new(AeiOracle::new(parts.plan.clone()).with_knobs(parts.knobs.clone())),
                description,
            ),
        };
    let matches = |outcome: &OracleOutcome| match outcome {
        OracleOutcome::LogicBug { description, .. } => description == wanted,
        OracleOutcome::Crash { message, .. } => message == wanted,
        _ => false,
    };
    let stock: Arc<dyn EngineBackend> = left.build();
    let outcomes = oracle.check(stock.as_ref(), &parts.spec, &parts.queries);
    let query = outcomes
        .iter()
        .position(matches)
        .ok_or("the stock engine does not reproduce the finding")?;
    let single = std::slice::from_ref(&parts.queries[query]);
    let fixed = left.build().without_fault(fault);
    let outcome = oracle.check(fixed.as_ref(), &parts.spec, single);
    if outcome.iter().any(|o| o.is_logic_bug() || o.is_crash()) {
        return Err("the finding remains with the fault removed".to_string());
    }
    Ok(())
}

/// The matrix checks: the grid through `MatrixRunner::run` at two workers
/// matches the timed cells and round-trips through its artifact, the two
/// fault-free engines raise no differential finding against each other, and
/// the stock engine is implicated in all four of its cells.
pub fn matrix(server: &Path, round: &Round, failures: &mut Failures) {
    let report = MatrixRunner::new(matrix_config(server, 2)).run();
    let encoded = report.encode();
    failures.check(
        spatter_core::MatrixReport::decode(&encoded).as_ref() == Ok(&report),
        || "MatrixReport::decode(encode()) does not round-trip".to_string(),
    );
    let grid: Vec<_> = report
        .cells
        .iter()
        .map(|c| (c.left, c.right, c.fingerprint, c.iterations_run))
        .collect();
    failures.check(grid == round.summary().fingerprint, || {
        "MatrixRunner::run at 2 workers differs from the timed cells".to_string()
    });
    for run in &round.runs {
        let (left, right) = run.cell;
        if left != MATRIX_STOCK && right != MATRIX_STOCK {
            let differential = run
                .report
                .findings
                .iter()
                .filter(|f| f.description.starts_with(DIFFERENTIAL_PREFIX))
                .count();
            failures.check(differential == 0, || {
                format!(
                    "{} vs {}: {differential} differential findings between fault-free engines",
                    MATRIX_LABELS[left], MATRIX_LABELS[right]
                )
            });
        }
    }
    let stock_cells: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.left == MATRIX_STOCK || c.right == MATRIX_STOCK)
        .collect();
    let implicated = stock_cells
        .iter()
        .filter(|c| {
            if c.left == MATRIX_STOCK {
                c.buckets.left > 0
            } else {
                c.buckets.right > 0
            }
        })
        .count();
    failures.check(
        stock_cells.len() == 4 && implicated == 4 && report.involvement[MATRIX_STOCK] == 4,
        || format!("the stock engine is implicated in {implicated} of its 4 cells"),
    );
    failures.check(
        report.cells.len() == cells(MATRIX_LABELS.len()).len(),
        || "the grid does not hold every ordered cell".to_string(),
    );
}

/// Which checks a workload runs besides the common ones.
pub fn workload_checks(
    workload: Workload,
    plan: &Plan,
    server: &Path,
    round: &Round,
    failures: &mut Failures,
) {
    if workload == Workload::Matrix3x3 {
        matrix(server, round, failures);
    } else {
        two_workers(plan, round, failures);
    }
    attributed_faults(plan, round, failures);
}
