//! Order statistics and the process meters read from `/proc`.

/// The median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of a sample, and how many
/// samples lie strictly beyond its rank.
pub fn quantile(values: &[f64], q: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// 100 on every Linux architecture the benchmark runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds this process has used, plus those of every child it has
/// waited for (the out-of-process engines the matrix spawns).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields count from its ')'.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_ascii_whitespace().collect();
    // utime, stime, cutime, cstime are fields 14..=17, i.e. 11..=14 here.
    let ticks: u64 = fields[11..=14]
        .iter()
        .map(|field| field.parse::<u64>().expect("CPU fields are integers"))
        .sum();
    ticks as f64 / TICKS_PER_SECOND
}

/// The process's peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM in kB");
    kb as f64 / 1024.0
}
