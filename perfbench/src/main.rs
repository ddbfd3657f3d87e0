//! The end-to-end benchmark of Spatter campaigns, mutation campaigns and the
//! differential matrix.
//!
//! ```sh
//! perfbench --workload <campaign-attributed|mutation-raw|matrix-3x3> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run measures whole *rounds* — one fixed campaign, or one fixed grid of
//! cell campaigns — for at least `--seconds` seconds, with one campaign
//! worker. It then checks the outputs
//! apart from the timed path and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and the metrics: the end-to-end
//! ones with `--trace 0`, the per-layer ones of a traced run with
//! `--trace 1`. A human-readable table goes to standard error.
//!
//! The inputs are fixed per workload (campaign seed 5, grid seed 3), so
//! every run does the same work, reports the same determinism fingerprint
//! and fails the same operations; `--seed` is accepted and reported but
//! selects nothing. `perfbench/README.md` explains the metrics.

mod calibrate;
mod checks;
mod layers;
mod stats;
mod trace;
mod workload;

use checks::Failures;
use layers::{Partition, ProbeCounts, SqlReplay};
use spatter_core::CampaignRunner;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{ms, Plan, Round, Summary, Workload, MATRIX_LABELS};

/// Setup probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 31;
/// Samples beyond the p90 needed before it is reported.
const TAIL_SAMPLES: usize = 10;
/// Rounds a run measures at the least, so that each iteration's median
/// over the rounds has a middle.
const MIN_ROUNDS: usize = 3;
/// Share of the traced wall time by which the layers may overshoot it
/// (the generator and transform are re-timed, not timed in place).
const PARTITION_TOLERANCE: f64 = 0.01;

/// The parsed command line.
struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::from_name(&workload_name)
            .ok_or(format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The `spatter-sdb-server` binary built beside this one.
fn server_path() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    exe.with_file_name("spatter-sdb-server")
}

/// One metric of the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The setup-probe child: everything a run does before its first
/// iteration — process start, lazy initialisation, building the campaign
/// and its backends, and for the matrix spawning the external engine and
/// reading its `READY` — then `ready` on standard output.
fn setup_probe(workload: Workload, server: &Path) {
    let plan = Plan::new(workload, server);
    let configs = plan.round_configs(None);
    let runner = CampaignRunner::new(configs[0].1.clone()).with_workers(1);
    std::hint::black_box(&runner);
    if let Plan::Matrix(matrix) = &plan {
        let twin = matrix.config().entries[1].spec.build();
        drop(twin.open_session().expect("the external engine starts"));
    }
    println!("ready");
}

/// Median wall time, seen from this process, of [`SETUP_PROBES`] setup-probe
/// children, in reference seconds.
fn setup_seconds(workload_name: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let speed_before = calibrate::host_speed();
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", workload_name])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the setup probe: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = start.elapsed();
        let status = child.wait().map_err(|e| e.to_string())?;
        if read.is_err() || line.trim() != "ready" || !status.success() {
            return Err(format!("the setup probe failed ({status})"));
        }
        samples.push(elapsed.as_secs_f64());
    }
    let speed = (speed_before + calibrate::host_speed()) / 2.0;
    Ok(stats::median(&samples) * speed)
}

/// Runs rounds until `seconds` have passed, and at least [`MIN_ROUNDS`].
/// Returns the first round whole, for the checks, and every round's
/// summary.
fn measured_rounds(plan: &Plan, seconds: u64) -> (Round, Vec<Summary>) {
    let start = Instant::now();
    let mut speed = calibrate::host_speed();
    let first = plan.run_round(None, &mut speed);
    let mut summaries = vec![first.summary()];
    while start.elapsed() < Duration::from_secs(seconds) || summaries.len() < MIN_ROUNDS {
        summaries.push(plan.run_round(None, &mut speed).summary());
    }
    (first, summaries)
}

/// The end-to-end metrics of the measured rounds, every time in reference
/// seconds. Throughput is the median of the rounds' own rates. The
/// iteration-time quantiles are taken over the round's iterations, each
/// timed as its median over the rounds: every round runs the same
/// iterations, so pooling their samples would put the p50 on the boundary
/// between two iterations' clusters. CPU time is the run's total over its
/// iterations, since `/proc` counts it in 10 ms ticks.
fn end_to_end(rounds: &[Summary], setup_s: f64) -> Vec<Metric> {
    let iterations: usize = rounds.iter().map(|r| r.iterations).sum();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.iterations as f64 / r.wall_s)
        .collect();
    let per_iteration: Vec<f64> = (0..rounds[0].iteration_ms.len())
        .map(|index| {
            let samples: Vec<f64> = rounds.iter().map(|r| r.iteration_ms[index]).collect();
            stats::median(&samples)
        })
        .collect();
    let cpu: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let (p90, beyond) = stats::quantile(&per_iteration, 0.9);
    assert!(
        beyond >= TAIL_SAMPLES,
        "a round has too few iterations for a p90"
    );
    vec![
        metric("iters_per_s", stats::median(&rates), "1/s"),
        metric("iter_ms.p50", stats::median(&per_iteration), "ms"),
        metric("iter_ms.p90", p90, "ms"),
        metric("cpu_ms_per_iter", cpu * 1e3 / iterations as f64, "ms"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Runs one traced round and derives its per-layer figures, every time in
/// reference seconds (`speed` as for [`Plan::run_round`]).
fn traced_round(
    plan: &Plan,
    capture: bool,
    stats_dir: &Path,
    speed: &mut f64,
    failures: &mut Failures,
) -> (Summary, Vec<Metric>) {
    let tracer = Tracer::new(capture);
    let probes_before = ProbeCounts::read();
    std::env::set_var("PERFBENCH_SERVER_STATS", stats_dir);
    let round = plan.run_round(Some(&tracer), speed);
    std::env::remove_var("PERFBENCH_SERVER_STATS");
    let probes = ProbeCounts::read().since(&probes_before);
    let round_speed = round.speed();

    let trace = tracer.take();
    let (external_sessions, external_lifetime) = layers::external_sessions(stats_dir);
    let partition = Partition::new(&round, &trace);
    let wall_ms = ms(partition.wall);
    if partition.unaccounted_ms < -PARTITION_TOLERANCE * wall_ms {
        failures.0.push(format!(
            "traced layers exceed the wall time by {:.3} ms",
            -partition.unaccounted_ms
        ));
    }
    let count = |name: &str, value: u64| metric(name, value as f64, "count");
    let mut values = vec![
        metric("traced.wall_ms", wall_ms, "ms"),
        metric("generator.ms", ms(partition.generator), "ms"),
        metric("transform.ms", ms(partition.transform), "ms"),
        count("backend.sessions", trace.main.sessions),
        count("backend.load_statements", trace.main.load_statements),
        metric("backend.load_ms", ms(trace.main.load), "ms"),
        count("backend.queries", trace.main.queries),
        metric("backend.query_ms", ms(trace.main.query), "ms"),
        count("attribution.reruns", trace.reruns),
        count("attribution.sessions", trace.attribution.sessions),
        count(
            "attribution.load_statements",
            trace.attribution.load_statements,
        ),
        metric("attribution.load_ms", ms(trace.attribution.load), "ms"),
        metric("attribution.query_ms", ms(trace.attribution.query), "ms"),
        metric(
            "attribution.share",
            ms(trace.attribution_span) / wall_ms,
            "ratio",
        ),
        metric("oracle.other_ms", ms(partition.oracle_other), "ms"),
        metric("unaccounted_ms", partition.unaccounted_ms, "ms"),
        count("external.sessions", external_sessions),
        metric("external.session_ms", ms(external_lifetime), "ms"),
    ];
    values.extend(
        probes
            .into_iter()
            .map(|(name, hits)| metric(name, hits, "count")),
    );
    if let Plan::Matrix(_) = plan {
        for run in &round.runs {
            // Scaled by the round's speed below; by the cell's own here.
            let wall = ms(run.wall) * run.speed / round_speed;
            values.push(metric(cell_metric(run.cell), wall, "ms"));
        }
    }
    if capture {
        let replay = SqlReplay::run(&trace.captured);
        values.extend([
            metric("sdb.parse_ms", ms(replay.parse), "ms"),
            metric("sdb.execute_ms", ms(replay.execute), "ms"),
            count("sdb.statements", replay.statements),
            count("sdb.distinct_statements", replay.distinct),
        ]);
    }
    for value in &mut values {
        if value.unit == "ms" {
            value.value *= round_speed;
        }
    }
    (round.summary(), values)
}

/// The per-layer metric of a matrix cell's wall time.
fn cell_metric((left, right): (usize, usize)) -> String {
    format!(
        "matrix.cell_ms.{}-{}",
        MATRIX_LABELS[left], MATRIX_LABELS[right]
    )
}

/// The per-layer metrics: untraced and traced rounds alternate until
/// `seconds` have passed, with the host speed sampled between them; each
/// figure is the median over the traced rounds that report it (0 for a
/// layer the workload never enters). Returns the metrics, the first
/// untraced round, and the summaries of every round.
fn per_layer(
    plan: &Plan,
    seconds: u64,
    stats_dir: &Path,
    failures: &mut Failures,
) -> (Vec<Metric>, Round, Vec<Summary>) {
    let start = Instant::now();
    let mut speed = calibrate::host_speed();
    let first = plan.run_round(None, &mut speed);
    let mut untraced = vec![first.summary()];
    let mut traced = vec![traced_round(plan, true, stats_dir, &mut speed, failures)];
    while start.elapsed() < Duration::from_secs(seconds) {
        untraced.push(plan.run_round(None, &mut speed).summary());
        traced.push(traced_round(plan, false, stats_dir, &mut speed, failures));
    }
    let median_of = |name: &str| {
        let values: Vec<f64> = traced
            .iter()
            .flat_map(|(_, values)| values.iter())
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            stats::median(&values)
        }
    };
    let untraced_wall: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|(r, _)| r.wall_s).collect();
    let faults: Vec<f64> = untraced
        .iter()
        .filter_map(|r| r.time_to_all_faults_s)
        .collect();
    let cells_per_s = match plan {
        Plan::Matrix(_) => {
            let cells: usize = untraced.iter().map(|r| r.fingerprint.len()).sum();
            cells as f64 / untraced_wall.iter().sum::<f64>()
        }
        Plan::Campaign(_) => 0.0,
    };
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| metric(*name, median_of(name), unit))
        .collect();
    metrics.extend(
        workload::cells(MATRIX_LABELS.len())
            .into_iter()
            .map(|cell| {
                let name = cell_metric(cell);
                let value = median_of(&name);
                metric(name, value, "ms")
            }),
    );
    metrics.extend([
        metric(
            "trace_overhead",
            stats::median(&traced_wall) / stats::median(&untraced_wall) - 1.0,
            "ratio",
        ),
        metric(
            "time_to_all_faults_s",
            if faults.is_empty() {
                0.0
            } else {
                stats::median(&faults)
            },
            "s",
        ),
        metric("cells_per_s", cells_per_s, "1/s"),
    ]);
    let summaries = untraced
        .into_iter()
        .chain(traced.into_iter().map(|(summary, _)| summary))
        .collect();
    (metrics, first, summaries)
}

/// Per-layer metrics read from the traced rounds, with their units.
const PER_LAYER: [(&str, &str); 33] = [
    ("traced.wall_ms", "ms"),
    ("generator.ms", "ms"),
    ("transform.ms", "ms"),
    ("backend.sessions", "count"),
    ("backend.load_statements", "count"),
    ("backend.load_ms", "ms"),
    ("backend.queries", "count"),
    ("backend.query_ms", "ms"),
    ("attribution.reruns", "count"),
    ("attribution.sessions", "count"),
    ("attribution.load_statements", "count"),
    ("attribution.load_ms", "ms"),
    ("attribution.query_ms", "ms"),
    ("attribution.share", "ratio"),
    ("oracle.other_ms", "ms"),
    ("unaccounted_ms", "ms"),
    ("sdb.parse_ms", "ms"),
    ("sdb.execute_ms", "ms"),
    ("sdb.statements", "count"),
    ("sdb.distinct_statements", "count"),
    ("sdb.exec.join_nested_loop", "count"),
    ("sdb.exec.join_index_scan", "count"),
    ("sdb.exec.join_prepared", "count"),
    ("sdb.exec.join_distance_prepared", "count"),
    ("sdb.exec.knn_index_scan", "count"),
    ("sdb.exec.insert", "count"),
    ("sdb.exec.update", "count"),
    ("sdb.exec.delete", "count"),
    ("sdb.expr.function_predicate", "count"),
    ("topo.predicate_calls", "count"),
    ("topo.distance_calls", "count"),
    ("external.sessions", "count"),
    ("external.session_ms", "ms"),
];

/// The result line.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let server = server_path();
    if args.workload == Workload::Matrix3x3 && !server.is_file() {
        return Err(format!(
            "the spatter-sdb-server binary is missing at {}; build the perfbench package",
            server.display()
        ));
    }
    let plan = Plan::new(args.workload, &server);
    let mut failures = Failures::default();

    let (metrics, first, summaries) = if args.trace {
        let stats_dir = server.with_file_name(format!("perfbench-stats-{}", std::process::id()));
        std::fs::create_dir_all(&stats_dir).map_err(|e| e.to_string())?;
        let out = per_layer(&plan, args.seconds, &stats_dir, &mut failures);
        std::fs::remove_dir_all(&stats_dir).map_err(|e| e.to_string())?;
        out
    } else {
        let setup_s = setup_seconds(&args.workload_name)?;
        let (first, summaries) = measured_rounds(&plan, args.seconds);
        (end_to_end(&summaries, setup_s), first, summaries)
    };

    checks::same_fingerprints(&summaries.iter().collect::<Vec<_>>(), &mut failures);
    let failing = checks::reference_failures(&plan, &mut failures);
    checks::workload_checks(args.workload, &plan, &server, &first, &mut failures);

    let attempted: usize = summaries.iter().map(|s| s.iterations).sum();
    let reference: f64 = summaries.iter().map(|s| s.wall_s).sum();
    let raw: f64 = summaries.iter().map(|s| s.raw_wall_s).sum();
    let failed = summaries.len() * first.runs.len() * failing.len();
    eprintln!(
        "perfbench {} (seed {} accepted; inputs are fixed): {} rounds, {attempted} \
         iterations attempted, {failed} failed (the fault-free engine fails iterations \
         {failing:?} of every campaign); mean host speed {:.3} of the reference",
        args.workload_name,
        args.seed,
        summaries.len(),
        reference / raw,
    );
    for m in &metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &failures.0 {
        eprintln!("  CHECK FAILED: {failure}");
    }
    Ok(result_json(
        failures.0.is_empty(),
        attempted,
        failed,
        &metrics,
    ))
}

fn main() {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("--setup-probe") {
        let name = raw.next().unwrap_or_default();
        let Some(workload) = Workload::from_name(&name) else {
            eprintln!("perfbench: unknown workload {name}");
            std::process::exit(2);
        };
        setup_probe(workload, &server_path());
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <campaign-attributed|mutation-raw|matrix-3x3> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            let mut stdout = std::io::stdout().lock();
            writeln!(stdout, "{line}").expect("stdout is writable");
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
