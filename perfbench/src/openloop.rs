//! Open-loop load helpers: the send schedule, request latency measured
//! from each request's due time, generator lateness, and the pass rule
//! for one rate on the ladder.

use crate::stats::{median, percentile};
use std::time::Duration;

/// Due times of an open loop at a constant `rate` (requests per second)
/// over `window`: request `i` is due at `i / rate`. At least one request.
pub fn schedule(rate: f64, window: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "rate must be positive");
    let n = ((window.as_secs_f64() * rate).floor() as usize).max(1);
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// One completed exchange, all times relative to the loop's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exchange {
    /// When the schedule said to send.
    pub due: Duration,
    /// When the request was actually written.
    pub sent: Duration,
    /// When the whole response had been read.
    pub done: Duration,
}

impl Exchange {
    /// Open-loop latency: from the due time, so a stall also charges the
    /// wait it imposed on the requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent this request.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Server-side view: from the actual send to the last byte.
    pub fn service_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }
}

/// Whether the generator fell steadily further behind: the median
/// lateness of the last quarter of requests (in due order) exceeds that
/// of the first quarter by more than half the latency limit.
pub fn backlog_grows(late_ms_in_due_order: &[f64], limit_ms: f64) -> bool {
    let n = late_ms_in_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&late_ms_in_due_order[..q]).unwrap_or(0.0);
    let last = median(&late_ms_in_due_order[n - q..]).unwrap_or(0.0);
    last - first > limit_ms / 2.0
}

/// The verdict for one rate on the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepVerdict {
    /// p90 open-loop latency, failed requests counted as over the limit.
    pub p90_ms: f64,
    /// Requests answered per second, from the first due time to the
    /// last answer.
    pub achieved_per_s: f64,
    /// p90 under the limit, nothing failed, and no growing backlog.
    pub passes: bool,
}

/// Judge one ladder step. `ok` holds the successful exchanges in due
/// order; `failed` requests count as missing the limit.
pub fn judge_step(ok: &[Exchange], failed: usize, limit_ms: f64) -> StepVerdict {
    let mut latencies: Vec<f64> = ok.iter().map(Exchange::latency_ms).collect();
    latencies.extend(std::iter::repeat_n(f64::INFINITY, failed));
    let p90_ms = percentile(&latencies, 90.0).unwrap_or(f64::INFINITY);
    let late: Vec<f64> = ok.iter().map(Exchange::late_ms).collect();
    let first_due = ok.first().map_or(Duration::ZERO, |e| e.due);
    let last_done = ok.iter().map(|e| e.done).max().unwrap_or_default();
    let span = last_done.saturating_sub(first_due).as_secs_f64();
    StepVerdict {
        p90_ms,
        achieved_per_s: if span > 0.0 {
            ok.len() as f64 / span
        } else {
            0.0
        },
        passes: failed == 0 && p90_ms <= limit_ms && !backlog_grows(&late, limit_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn ex(due: u64, sent: u64, done: u64) -> Exchange {
        Exchange {
            due: ms(due),
            sent: ms(sent),
            done: ms(done),
        }
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let s = schedule(10.0, Duration::from_secs(2));
        assert_eq!(s.len(), 20);
        assert_eq!(s[0], Duration::ZERO);
        assert_eq!(s[1], ms(100));
        assert_eq!(s[19], ms(1900));
        assert_eq!(schedule(0.1, Duration::from_secs(1)).len(), 1);
    }

    #[test]
    fn latency_counts_from_due_time() {
        // Due at 100, sent late at 130, done at 150.
        let e = ex(100, 130, 150);
        assert!((e.latency_ms() - 50.0).abs() < 1e-9);
        assert!((e.late_ms() - 30.0).abs() < 1e-9);
        assert!((e.service_ms() - 20.0).abs() < 1e-9);
        // Early sends are not negative lateness.
        assert_eq!(ex(100, 90, 95).late_ms(), 0.0);
    }

    #[test]
    fn steady_lateness_is_not_a_backlog() {
        let late = vec![5.0; 40];
        assert!(!backlog_grows(&late, 50.0));
    }

    #[test]
    fn rising_lateness_is_a_backlog() {
        let late: Vec<f64> = (0..40).map(|i| i as f64 * 3.0).collect();
        // first quarter median 13.5, last quarter median 103.5
        assert!(backlog_grows(&late, 50.0));
        assert!(!backlog_grows(&late, 500.0));
        // Too few samples to judge a trend.
        assert!(!backlog_grows(&late[..5], 1.0));
    }

    #[test]
    fn failures_miss_the_limit() {
        let exchanges: Vec<Exchange> = (0..20).map(|i| ex(i * 10, i * 10, i * 10 + 5)).collect();
        let ok = judge_step(&exchanges, 0, 10.0);
        assert!(ok.passes, "{ok:?}");
        assert!((ok.p90_ms - 5.0).abs() < 1e-9);
        // Three failures out of 23 push p90 past any finite limit.
        let bad = judge_step(&exchanges, 3, 10.0);
        assert!(!bad.passes);
        assert!(bad.p90_ms.is_infinite());
        // One failure keeps p90 finite but still fails the step.
        assert!(!judge_step(&exchanges, 1, 10.0).passes);
    }

    #[test]
    fn achieved_rate_spans_first_due_to_last_answer() {
        // Ten answers over [0, 1000] ms; the slowest one ends last.
        let mut exchanges: Vec<Exchange> =
            (0..10).map(|i| ex(i * 90, i * 90, i * 90 + 10)).collect();
        exchanges[3].done = ms(1000);
        let v = judge_step(&exchanges, 0, 1e9);
        assert!((v.achieved_per_s - 10.0).abs() < 1e-9, "{v:?}");
        assert_eq!(judge_step(&[], 0, 1.0).achieved_per_s, 0.0);
    }
}
