//! The `serve_mixed` workload: an in-process server under an open loop
//! of region requests, every body checked against a direct session call.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ultravc_core::config::CallerConfig;
use ultravc_core::CallSession;
use ultravc_serve::{apply_min_af, http_get, ClientConn, SampleSpec, ServeConfig, Server};
use ultravc_stats::rng::Rng;

use crate::batch::render;
use crate::inputs::{load_reference, Workload};
use crate::openloop::{judge_step, schedule, Exchange};
use crate::report::{metric, Report};
use crate::runs::{self, call_loop, calling_metrics, plan_for, prepare, Prepared};
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::sys;

const SAMPLE: &str = "bench";
/// Offered rate of the fixed-rate phase (requests per second).
pub const FIXED_RATE: f64 = 8.0;
/// The rate ladder `req_max_per_s` climbs, doubling per step so that
/// the knee never sits between two close steps.
pub const LADDER: [f64; 4] = [10.0, 20.0, 40.0, 80.0];
/// Ladder steps a run usually measures (the knee sits between 10 and
/// 20 req/s on a 2-core host); each step lasts a third of the run window
/// divided by this.
const STEPS_BUDGETED: u32 = 2;
/// The p90 limit a ladder step must stay under.
pub const LIMIT_MS: f64 = 200.0;
/// Every `REPEAT_EVERY`-th request repeats a recent span (25%).
const REPEAT_EVERY: usize = 4;
/// Every `WHALE_EVERY`-th request asks for the whole genome (2%).
const WHALE_EVERY: usize = 50;
/// Fresh windows are this many bases wide.
const WINDOW_BP: (u64, u64) = (300, 1000);
/// A repeat picks among this many most recent fresh spans, never the
/// two newest (they may still be in flight, which would make a miss).
const RECENT: usize = 16;
/// Blocks of whole-genome calling runs (for `call_s`) in an untraced
/// run: one before the fixed-rate phase, one after it, and one after
/// each ladder step. At the usual two steps they take a third of the
/// window together, spread over the whole run.
const CALL_BLOCKS: u32 = 4;
/// Bind → `/health` repetitions after each whole-genome calling run,
/// on top of one per serving phase; `setup_s` is their median.
const BINDS_PER_RUN: usize = 4;

/// What kind of request a mix entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A new 300–1,000-bp window.
    Fresh,
    /// A recent span again, possibly with another `min-af`.
    Repeat,
    /// The whole genome.
    Whale,
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Column span, 0-based half-open.
    pub span: Range<u32>,
    /// Allele-frequency floor.
    pub min_af: Option<f64>,
    /// What kind of request it is.
    pub kind: Kind,
}

/// The seeded request mix over a genome of `len` bases.
pub fn mix(seed: u64, n: usize, len: u32) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5E4E);
    let mut recent: Vec<Range<u32>> = Vec::new();
    let floors = [0.005, 0.01, 0.02];
    (0..n)
        .map(|i| {
            if i % WHALE_EVERY == WHALE_EVERY / 2 {
                return Req {
                    span: 0..len,
                    min_af: None,
                    kind: Kind::Whale,
                };
            }
            if recent.len() > 2 && i % REPEAT_EVERY == 1 {
                let back = 2 + rng.index(recent.len() - 2);
                let span = recent[recent.len() - 1 - back].clone();
                let min_af = rng.bernoulli(0.5).then(|| floors[rng.index(floors.len())]);
                return Req {
                    span,
                    min_af,
                    kind: Kind::Repeat,
                };
            }
            let width = rng.range_u64(WINDOW_BP.0, WINDOW_BP.1) as u32;
            let start = rng.below(u64::from(len - width)) as u32;
            let span = start..start + width;
            recent.push(span.clone());
            if recent.len() > RECENT {
                recent.remove(0);
            }
            Req {
                span,
                min_af: None,
                kind: Kind::Fresh,
            }
        })
        .collect()
}

fn path_of(req: &Req, chrom: &str, len: u32) -> String {
    let region = if req.span == (0..len) {
        chrom.to_string()
    } else {
        format!("{chrom}:{}-{}", req.span.start + 1, req.span.end)
    };
    match req.min_af {
        Some(f) => format!("/call?sample={SAMPLE}&region={region}&min-af={f}"),
        None => format!("/call?sample={SAMPLE}&region={region}"),
    }
}

/// One answered (or failed) request.
struct Answer {
    ex: Exchange,
    status: u16,
    hit: bool,
    body: Vec<u8>,
}

/// Drive the open loop: `conns` keep-alive connections share one
/// schedule; each sends its next request when it is due (or as soon as
/// it is free, if late). A transport error answers with status 0.
fn drive(addr: SocketAddr, paths: &[String], due: &[Duration], conns: usize) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut answers: Vec<(usize, Answer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = ClientConn::new(addr, Some(Duration::from_secs(60)));
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= paths.len() {
                            return out;
                        }
                        let wait = due[i].saturating_sub(start.elapsed());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let response = conn.get(&paths[i]);
                        let done = start.elapsed();
                        let ex = Exchange {
                            due: due[i],
                            sent,
                            done,
                        };
                        let answer = match response {
                            Ok(r) => Answer {
                                ex,
                                status: r.status,
                                hit: r.header("x-ultravc-cache") == Some("hit"),
                                body: r.body,
                            },
                            Err(_) => Answer {
                                ex,
                                status: 0,
                                hit: false,
                                body: Vec::new(),
                            },
                        };
                        out.push((i, answer));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    answers.sort_by_key(|(i, _)| *i);
    answers.into_iter().map(|(_, a)| a).collect()
}

fn serve_config(prepared: &Prepared) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(SampleSpec {
        name: SAMPLE.to_string(),
        bal: prepared.written.bal.clone(),
        fasta: prepared.written.fasta.clone(),
        fault: None,
    });
    config.workers = sys::cores();
    config.threads_per_call = 1;
    config.source = ultravc_bamlite::SourceTier::Mmap;
    config
}

/// Bind a server and wait for its first `200` from `/health`; returns
/// the server and the time that took.
fn bind(prepared: &Prepared) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::bind(serve_config(prepared))?;
    let addr = server.local_addr();
    loop {
        if let Ok(r) = http_get(addr, "/health", Some(Duration::from_secs(5))) {
            if r.status == 200 {
                return Ok((server, t0.elapsed().as_secs_f64()));
            }
        }
        if t0.elapsed() > Duration::from_secs(30) {
            server.shutdown();
            return Err("server never reported healthy".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Expected bodies: direct `CallSession::call` per span (timed once),
/// rendered with `min-af` applied.
struct Oracle {
    session: CallSession,
    calls: HashMap<(u32, u32), (Vec<ultravc_vcf::VcfRecord>, f64)>,
}

impl Oracle {
    fn call(&mut self, span: &Range<u32>) -> Result<&(Vec<ultravc_vcf::VcfRecord>, f64), String> {
        let key = (span.start, span.end);
        if !self.calls.contains_key(&key) {
            let t0 = Instant::now();
            let outcome = self.session.call(span.clone()).map_err(|e| e.to_string())?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if !outcome.partial.is_empty() || outcome.interrupt.is_some() {
                return Err(format!("direct call of {span:?} came back partial"));
            }
            self.calls.insert(key, (outcome.records, ms));
        }
        Ok(&self.calls[&key])
    }

    fn body(&mut self, req: &Req) -> Result<Vec<u8>, String> {
        let name = self.session.reference().name.clone();
        let mut records = self.call(&req.span)?.0.clone();
        apply_min_af(&mut records, req.min_af);
        Ok(render(&name, &records))
    }
}

/// One phase's result: the exchanges in due order plus what the checks
/// and the server's own counters said.
struct Phase {
    reqs: Vec<Req>,
    answers: Vec<Answer>,
    /// Answers other than 200 (transport errors included).
    errors: usize,
    stats_hits: Option<u64>,
    stats_shed: Option<u64>,
    report_hits: u64,
    report_shed: u64,
}

/// Extract the first `"key":N` number from a flat JSON text.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn run_phase(
    prepared: &Prepared,
    chrom: &str,
    len: u32,
    reqs: Vec<Req>,
    due: &[Duration],
    setups: &mut Vec<f64>,
) -> Result<Phase, String> {
    let paths: Vec<String> = reqs.iter().map(|r| path_of(r, chrom, len)).collect();
    let (server, setup) = bind(prepared)?;
    setups.push(setup);
    let answers = drive(server.local_addr(), &paths, due, sys::cores());
    let stats = http_get(server.local_addr(), "/stats", Some(Duration::from_secs(10)))
        .ok()
        .map(|r| r.text());
    let report = server.shutdown();
    Ok(Phase {
        errors: answers.iter().filter(|a| a.status != 200).count(),
        reqs,
        answers,
        stats_hits: stats.as_deref().and_then(|t| json_u64(t, "hits")),
        stats_shed: stats.as_deref().and_then(|t| json_u64(t, "shed")),
        report_hits: report.cache.hits,
        report_shed: report.shed,
    })
}

/// Requests of `phase` that failed or whose body differs from a direct
/// session call.
fn verify(phase: &Phase, oracle: &mut Oracle) -> Result<u64, String> {
    let mut failed = 0;
    for (req, answer) in phase.reqs.iter().zip(&phase.answers) {
        if answer.status != 200 || answer.body != oracle.body(req)? {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Run `serve_mixed`.
pub fn run_serve(seed: u64, seconds: u64, trace: bool, dir: &Path) -> Result<Report, String> {
    let plan = plan_for(Workload::ServeMixed);
    let mut report = Report::default();
    let prepared = prepare(Workload::ServeMixed, seed, dir, trace)?;
    let reference = Arc::new(load_reference(&prepared.written.fasta)?);
    let len = reference.len() as u32;
    let mut oracle = Oracle {
        session: CallSession::open(
            plan.driver(CallerConfig::improved(), true),
            Arc::clone(&reference),
            plan.open(&prepared.written.bal)?,
        ),
        calls: HashMap::new(),
    };
    let window = Duration::from_secs(seconds);
    // The untraced run splits its window in thirds: calling runs, the
    // fixed-rate phase, and the ladder (see [`CALL_BLOCKS`]).
    let fixed_due = schedule(FIXED_RATE, window / 3);
    let reqs = mix(seed, fixed_due.len(), len);
    report.check(
        reqs == mix(seed, fixed_due.len(), len),
        "request mix differs between two draws from one seed",
    );
    let count = |k: Kind| reqs.iter().filter(|r| r.kind == k).count();
    report.facts.push((
        "mix",
        format!(
            "{} fresh, {} repeat, {} whale at {FIXED_RATE} req/s",
            count(Kind::Fresh),
            count(Kind::Repeat),
            count(Kind::Whale)
        ),
    ));

    let mut setups = Vec::new();
    let mut calls = Vec::new();
    let block = window / 3 / CALL_BLOCKS;
    let mut call_block = |report: &mut Report, setups: &mut Vec<f64>| -> Result<(), String> {
        let out = dir.join("calls.vcf");
        calls.extend(call_loop(&plan, &prepared, &out, block, report, || {
            for _ in 0..BINDS_PER_RUN {
                let (server, setup) = bind(&prepared)?;
                server.shutdown();
                setups.push(setup);
            }
            Ok(())
        })?);
        Ok(())
    };
    if !trace {
        call_block(&mut report, &mut setups)?;
        sys::reset_peak_rss()?;
    }
    let chrom = reference.name.clone();
    let fixed = run_phase(&prepared, &chrom, len, reqs, &fixed_due, &mut setups)?;
    if !trace {
        call_block(&mut report, &mut setups)?;
    }
    report.attempted += fixed.answers.len() as u64;
    let hits = fixed.answers.iter().filter(|a| a.hit).count() as u64;
    report.check(
        fixed.stats_hits == Some(hits) && fixed.report_hits == hits,
        format!(
            "cache hits do not reconcile: {hits} by header, {:?} in /stats, {} at shutdown",
            fixed.stats_hits, fixed.report_hits
        ),
    );
    report.check(
        fixed.stats_shed == Some(fixed.report_shed),
        "shed count in /stats disagrees with the shutdown report",
    );
    let hit_frac = hits as f64 / fixed.answers.len().max(1) as f64;
    report
        .facts
        .push(("cache_hit_share", format!("{hit_frac:.3}")));
    let latencies: Vec<f64> = fixed
        .answers
        .iter()
        .map(|a| {
            if a.status == 200 {
                a.ex.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();

    if !trace {
        let step_window = window / 3 / STEPS_BUDGETED;
        let mut best: Option<f64> = None;
        let mut steps = Vec::new();
        for (k, rate) in LADDER.iter().enumerate() {
            let due = schedule(*rate, step_window);
            let reqs = mix(seed.wrapping_add(k as u64 + 1), due.len(), len);
            let step = run_phase(&prepared, &chrom, len, reqs, &due, &mut setups)?;
            report.attempted += step.answers.len() as u64;
            let ok: Vec<Exchange> = step
                .answers
                .iter()
                .filter(|a| a.status == 200)
                .map(|a| a.ex)
                .collect();
            let verdict = judge_step(&ok, step.errors, LIMIT_MS);
            report.facts.push((
                "ladder",
                format!(
                    "{rate} req/s: p90 {:.1} ms, achieved {:.2} req/s, {}",
                    verdict.p90_ms,
                    verdict.achieved_per_s,
                    if verdict.passes { "pass" } else { "fail" }
                ),
            ));
            let passes = verdict.passes;
            steps.push(step);
            call_block(&mut report, &mut setups)?;
            if !passes {
                break;
            }
            best = Some(verdict.achieved_per_s);
        }
        // Bodies are checked only now, so the direct calls stay out of
        // the measured phases' peak memory.
        let peak = sys::peak_rss_mb()?;
        report.failed += verify(&fixed, &mut oracle)?;
        for step in &steps {
            report.failed += verify(step, &mut oracle)?;
        }
        let runs = calls;
        report.check(
            runs.iter().all(|r| r.counts == runs[0].counts),
            "run counts differ between blocks of calling runs",
        );
        runs::facts(&mut report, &runs, &plan);
        report.metrics = calling_metrics(&runs, &prepared.written);
        report.metrics.extend([
            metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s"),
            metric("peak_rss_mb", peak, "MiB"),
            metric(
                "req_p50_ms",
                percentile(&latencies, 50.0).unwrap_or(f64::NAN),
                "ms",
            ),
            metric(
                "req_p90_ms",
                percentile(&latencies, 90.0).unwrap_or(f64::NAN),
                "ms",
            ),
            // No passing step means no rate met the limit.
            metric("req_max_per_s", best.unwrap_or(0.0), "req/s"),
        ]);
        return Ok(report);
    }

    // Traced: per-request spans, the serving layers' split, then the
    // calling layers through the same replay as deep_hotspot.
    report.failed += verify(&fixed, &mut oracle)?;
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let mut call_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for (i, (req, a)) in fixed.reqs.iter().zip(&fixed.answers).enumerate() {
        // Exchange times are relative to the load's start; the log keeps
        // them relative to its own epoch.
        let request = log.record(
            "request",
            epoch + a.ex.due,
            epoch + a.ex.done,
            None,
            i as u64,
            0,
        );
        log.record(
            "exchange",
            epoch + a.ex.sent,
            epoch + a.ex.done,
            Some(request),
            i as u64,
            0,
        );
        if !a.hit && a.status == 200 {
            let direct = oracle.call(&req.span)?.1;
            call_ms.push(direct);
            overhead_ms.push(a.ex.service_ms() - direct);
        }
    }
    let late: Vec<f64> = fixed.answers.iter().map(|a| a.ex.late_ms()).collect();
    let traced = runs::traced_pass(&plan, &prepared, dir, window / 2, &mut report)?;
    report.metrics = traced.metrics;
    report.metrics.extend([
        metric("serve.cache_hit_frac", hit_frac, "ratio"),
        metric("serve.call_ms", median(&call_ms).unwrap_or(f64::NAN), "ms"),
        metric(
            "serve.overhead_ms",
            median(&overhead_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("serve.shed", fixed.report_shed as f64, "count"),
        metric(
            "gen.late_ms",
            percentile(&late, 90.0).unwrap_or(f64::NAN),
            "ms",
        ),
    ]);
    log.append(traced.log);
    report.spans = Some(log);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_shaped() {
        let a = mix(7, 2_000, 29_903);
        assert_eq!(a, mix(7, 2_000, 29_903));
        assert_ne!(a, mix(8, 2_000, 29_903));
        let whales = a.iter().filter(|r| r.kind == Kind::Whale).count();
        assert_eq!(whales, 40);
        let repeats = a.iter().filter(|r| r.kind == Kind::Repeat).count();
        // Every fourth request, less the first slot (nothing to repeat
        // yet) and the 20 slots a whale takes.
        assert_eq!(repeats, 479);
        for r in &a {
            assert!(r.span.end <= 29_903 && r.span.start < r.span.end);
            if r.kind == Kind::Fresh {
                let w = r.span.end - r.span.start;
                assert!((300..=1000).contains(&w), "{w}");
            }
        }
    }

    #[test]
    fn repeats_skip_the_newest_spans() {
        let a = mix(3, 500, 10_000);
        let mut fresh: Vec<Range<u32>> = Vec::new();
        for r in &a {
            match r.kind {
                Kind::Fresh => fresh.push(r.span.clone()),
                Kind::Repeat => {
                    let n = fresh.len();
                    assert!(
                        !fresh[n - 2..].contains(&r.span),
                        "repeat of an in-flight span"
                    );
                    assert!(fresh[n.saturating_sub(RECENT)..].contains(&r.span));
                }
                Kind::Whale => {}
            }
        }
    }

    #[test]
    fn paths_use_one_based_inclusive_regions() {
        let r = Req {
            span: 0..500,
            min_af: Some(0.01),
            kind: Kind::Fresh,
        };
        assert_eq!(
            path_of(&r, "c", 1000),
            "/call?sample=bench&region=c:1-500&min-af=0.01"
        );
        let w = Req {
            span: 0..1000,
            min_af: None,
            kind: Kind::Whale,
        };
        assert_eq!(path_of(&w, "c", 1000), "/call?sample=bench&region=c");
    }

    #[test]
    fn json_counters_parse() {
        let t = "{\"requests\":5,\"shed\":2,\"cache\":{\"hits\":3}}";
        assert_eq!(json_u64(t, "shed"), Some(2));
        assert_eq!(json_u64(t, "hits"), Some(3));
        assert_eq!(json_u64(t, "missing"), None);
    }
}
