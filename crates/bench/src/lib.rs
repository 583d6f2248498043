//! # ultravc-bench
//!
//! Benchmark harnesses that regenerate **every table and figure** of the
//! paper, plus the ablations in the table below. Each harness is a
//! binary (`cargo run -p ultravc-bench --release --bin <name>`):
//!
//! | binary             | regenerates                                        |
//! |--------------------|----------------------------------------------------|
//! | `table1`           | Table I — original vs improved runtimes/speedups   |
//! | `fig1`             | Figure 1a (distributions) + 1b (workflow shares)   |
//! | `fig2`             | Figure 2 — per-thread trace timeline, imbalance    |
//! | `fig3`             | Figure 3 — SNV-sharing upset table                 |
//! | `cache_miss`       | discussion claim D-1 — miss rates                  |
//! | `approx_accuracy`  | D-2 — approximation error vs depth                 |
//! | `double_filter`    | D-3 — script-mode filtering inconsistency          |
//! | `ablation_delta`   | A-1 — δ margin sweep                               |
//! | `ablation_depth_gate` | A-2 — min-depth gate sweep                      |
//! | `ablation_schedule`   | A-3 — loop-schedule comparison                  |
//!
//! Workload sizes are scaled so every harness finishes in seconds to
//! minutes on a laptop (the paper's full runs took up to 415 CPU-hours);
//! the depth *ratios* and decision structure are preserved, which is what
//! the result shapes depend on. Scale knobs are environment variables
//! (`ULTRAVC_SCALE`, `ULTRAVC_GENOME`, `ULTRAVC_THREADS`) so bigger runs
//! are one shell line away.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// A simulated depth-`d` pileup column at mixed Phred 20-40, as sorted
/// `(error probability, multiplicity)` quality bins — the shared workload
/// of the binned-kernel bench harnesses (`bench_binned` gate binary and
/// the criterion microbench), kept in one place so both always measure
/// the same columns.
pub fn phred_bins(depth: usize, seed: u64) -> Vec<(f64, u32)> {
    let mut rng = ultravc_stats::rng::Rng::new(seed);
    let mut counts = [0u32; 64];
    for _ in 0..depth {
        counts[rng.range_u64(20, 40) as usize] += 1;
    }
    let mut bins: Vec<(f64, u32)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &m)| m > 0)
        .map(|(q, &m)| (10f64.powf(-(q as f64) / 10.0), m))
        .collect();
    bins.sort_by(|a, b| a.0.total_cmp(&b.0));
    bins
}

/// Read an `f64` knob from the environment with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Read a `usize` knob from the environment with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Human-format a duration compactly (µs/ms/s as appropriate).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}m", s / 60.0)
    }
}

/// Human-format a byte count.
pub fn fmt_bytes(n: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

/// Human-format a depth value ("30,000x").
pub fn fmt_depth(depth: f64) -> String {
    let d = depth.round() as u64;
    let s = d.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out.push('x');
    out
}

/// Print a horizontal rule sized to a header line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
        assert_eq!(fmt_duration(Duration::from_secs(180)), "3.0m");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.0MB");
    }

    #[test]
    fn depth_formatting() {
        assert_eq!(fmt_depth(1_000.0), "1,000x");
        assert_eq!(fmt_depth(1_000_000.0), "1,000,000x");
        assert_eq!(fmt_depth(10.0), "10x");
    }

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_f64("ULTRAVC_NOPE_XYZ", 1.5), 1.5);
        assert_eq!(env_usize("ULTRAVC_NOPE_XYZ", 7), 7);
    }
}
