//! The host-speed calibration that normalises every time the benchmark
//! reports.
//!
//! The benchmark shares its physical cores with other tenants, and with the
//! same work and no waiting a campaign round has run anywhere from 19 to 38
//! iterations per second on it, in phases that last minutes. A run-length
//! window cannot average that out. So the benchmark measures the host's
//! speed with three fixed kernels of its own — ordered collections and
//! string formatting, orientation arithmetic over small allocated point
//! sets, and a cache-missing pointer chase — around its rounds, and
//! expresses every time in *reference seconds*: the time the work would
//! take on a host running the kernels at [`REFERENCE_RATES`]. The kernels
//! are fixed code in this file; nothing the program under test does can
//! change them.

use std::time::Instant;

/// Runs per second of each kernel, in the order of [`host_speed`]'s
/// kernels, on an unloaded 2-vCPU Intel Xeon host at 2.0 GHz.
pub const REFERENCE_RATES: [f64; 3] = [60.0, 60.0, 60.0];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs per second of a kernel, from one timed run.
fn rate(kernel: impl FnOnce()) -> f64 {
    let start = Instant::now();
    kernel();
    1.0 / start.elapsed().as_secs_f64()
}

/// Ordered-map inserts and lookups, WKT-like string formatting and a sort.
fn collections() {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map = std::collections::BTreeMap::new();
    let mut strings = Vec::new();
    for i in 0..40_000u64 {
        let r = xorshift(&mut state);
        map.insert(r % 100_000, i);
        if i % 4 == 0 {
            strings.push(format!("POINT({} {})", r % 1000, i));
        }
    }
    strings.sort();
    let hits: u64 = (0..40_000u64)
        .filter_map(|i| map.get(&(i * 7 % 100_000)))
        .sum();
    std::hint::black_box((hits, strings));
}

/// Orientation tests over small, freshly allocated point sets.
fn orientation() {
    let mut state: u64 = 12_345;
    let mut signs = 0u64;
    for _ in 0..6_000 {
        let n = 8 + (xorshift(&mut state) % 24) as usize;
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let x = (xorshift(&mut state) % 1000) as f64 * 0.37;
                let y = (xorshift(&mut state) % 1000) as f64 * 0.53;
                (x, y)
            })
            .collect();
        for i in 0..n {
            for j in 0..n {
                let (a, b, c) = (points[i], points[j], points[(i + j) % n]);
                let turn = (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0);
                signs += u64::from(turn > 0.0) + 2 * u64::from(turn < 0.0);
            }
        }
    }
    std::hint::black_box(signs);
}

thread_local! {
    /// One random cycle over 2 Mi slots (8 MB), larger than the cache.
    static CYCLE: Vec<u32> = {
        let n = 1usize << 21;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state: u64 = 99;
        for i in (1..n).rev() {
            let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0u32; n];
        for window in order.windows(2) {
            next[window[0] as usize] = window[1];
        }
        next[order[n - 1] as usize] = order[0];
        next
    };
}

/// Dependent loads around the cycle.
fn pointer_chase() {
    CYCLE.with(|next| {
        let mut slot = 0u32;
        for _ in 0..120_000 {
            slot = next[slot as usize];
        }
        std::hint::black_box(slot);
    });
}

/// The host's speed now, relative to the reference host: the geometric
/// mean over the kernels of their rate against [`REFERENCE_RATES`]. Takes
/// about 50 ms.
pub fn host_speed() -> f64 {
    CYCLE.with(|_| ());
    let rates = [rate(collections), rate(orientation), rate(pointer_chase)];
    let product: f64 = rates
        .iter()
        .zip(REFERENCE_RATES)
        .map(|(rate, reference)| rate / reference)
        .product();
    product.cbrt()
}
