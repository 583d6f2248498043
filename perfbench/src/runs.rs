//! The batch workload (deep_hotspot) end to end: inputs, checks, the
//! timed loop, and the traced pass. `serve_mixed` reuses the calling
//! pieces for its whole-genome runs.

use std::path::Path;
use std::time::{Duration, Instant};

use ultravc_bamlite::SourceTier;
use ultravc_core::config::CallerConfig;
use ultravc_vcf::VcfRecord;

use crate::batch::{self, call_once, render, Plan, Replay, TimedRun};
use crate::inputs::{write_in_child, Workload, Written};
use crate::report::{metric, Metric, Report};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile};
use crate::sys;

/// Set-up measurements after each timed calling run; `setup_s` is the
/// median of all of them, so it samples the same stretch of time as the
/// calls do.
const SETUPS_PER_RUN: usize = 10;
/// Repetitions of the BAL write for `write_s`; the median is reported.
const WRITE_REPS: usize = 3;
/// Fewest timed runs a window may end with.
const MIN_RUNS: usize = 3;
/// Calling runs made before a timed window opens: checked like every
/// run, never timed, so first-touch costs stay out of the medians.
const WARMUP_RUNS: usize = 1;

/// How `workload` calls (see the README for why each was chosen).
pub fn plan_for(workload: Workload) -> Plan {
    match workload {
        Workload::DeepHotspot => Plan {
            tier: SourceTier::Mmap,
            threads: Some(sys::cores()),
        },
        // The server's per-call driver at `threads_per_call = 1`.
        Workload::ServeMixed => Plan {
            tier: SourceTier::Mmap,
            threads: Some(1),
        },
    }
}

/// The run whose output a workload's VCF must equal, byte for byte: for
/// deep_hotspot a sequential run of the original (unscreened) caller —
/// the paper's invariant that the screen never changes the call set; for
/// serve_mixed, the same driver on the in-memory tier.
fn reference_run(workload: Workload) -> (Plan, CallerConfig) {
    let plan = plan_for(workload);
    match workload {
        Workload::DeepHotspot => (
            Plan {
                threads: None,
                ..plan
            },
            CallerConfig::original(),
        ),
        Workload::ServeMixed => (
            Plan {
                tier: SourceTier::Mem,
                ..plan
            },
            CallerConfig::improved(),
        ),
    }
}

/// A workload's inputs on disk plus the outputs its runs must reproduce.
pub struct Prepared {
    /// The written sample.
    pub written: Written,
    /// The reference VCF bytes every calling run must write.
    pub expected: Vec<u8>,
    /// The same run's records before filtering (the traced replay's
    /// called positions must equal theirs); empty for untraced runs.
    pub unfiltered: Vec<VcfRecord>,
}

/// Simulate and write the sample (timing [`WRITE_REPS`] writes, or one
/// when traced) and compute the reference outputs. Nothing here counts
/// toward any other metric.
pub fn prepare(
    workload: Workload,
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Result<Prepared, String> {
    let write_reps = if traced { 1 } else { WRITE_REPS };
    let written = write_in_child(workload, seed, dir, write_reps)?;
    let (ref_plan, ref_config) = reference_run(workload);
    let (name, records) = batch::reference_records(
        &ref_plan,
        &ref_plan.driver(ref_config, true),
        &written.bal,
        &written.fasta,
    )?;
    let expected = render(&name, &records);
    // Only the traced pass compares against the unfiltered records.
    let unfiltered = if traced {
        let plan = Plan {
            tier: SourceTier::Mem,
            threads: None,
        };
        batch::reference_records(
            &plan,
            &plan.driver(CallerConfig::improved(), false),
            &written.bal,
            &written.fasta,
        )?
        .1
    } else {
        Vec::new()
    };
    Ok(Prepared {
        written,
        expected,
        unfiltered,
    })
}

/// One untraced calling run, appended to `runs`; a wrong output counts
/// as failed, and its counts must equal the first run's.
fn untraced_run(
    plan: &Plan,
    prepared: &Prepared,
    out: &Path,
    runs: &mut Vec<TimedRun>,
    report: &mut Report,
) -> Result<(), String> {
    report.attempted += 1;
    let written = &prepared.written;
    let run = call_once(plan, &written.bal, &written.fasta, out, &prepared.expected)
        .inspect_err(|_| report.failed += 1)
        .map_err(|e| format!("calling run failed: {e}"))?;
    if !run.ok {
        report.failed += 1;
    }
    if let Some(first) = runs.first() {
        report.check(
            first.counts == run.counts,
            format!(
                "run counts differ between runs: {:?} vs {:?}",
                first.counts, run.counts
            ),
        );
    }
    runs.push(run);
    Ok(())
}

/// Timed untraced runs until `window` has passed (and at least
/// [`MIN_RUNS`] ran), after [`WARMUP_RUNS`] untimed ones; `between` runs
/// after each timed run, outside its timing.
pub fn call_loop(
    plan: &Plan,
    prepared: &Prepared,
    out: &Path,
    window: Duration,
    report: &mut Report,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Vec<TimedRun>, String> {
    let mut runs = Vec::new();
    for _ in 0..WARMUP_RUNS {
        untraced_run(plan, prepared, out, &mut runs, report)?;
    }
    let t0 = Instant::now();
    while t0.elapsed() < window || runs.len() < WARMUP_RUNS + MIN_RUNS {
        untraced_run(plan, prepared, out, &mut runs, report)?;
        between()?;
    }
    Ok(runs.split_off(WARMUP_RUNS))
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    median(&v).unwrap_or(f64::NAN)
}

/// The calling-run metrics every workload reports (`call_s`,
/// `call_cpu_s`, `write_s`, `bal_bytes_per_base`).
pub fn calling_metrics(runs: &[TimedRun], written: &Written) -> Vec<Metric> {
    vec![
        metric("call_s", med(runs.iter().map(|r| r.wall_s)), "s"),
        metric("call_cpu_s", med(runs.iter().map(|r| r.cpu_s)), "s"),
        metric("write_s", med(written.write_s.iter().copied()), "s"),
        metric("bal_bytes_per_base", written.bytes_per_base(), "B/base"),
    ]
}

/// Host and code-path facts of a calling run.
pub fn facts(report: &mut Report, runs: &[TimedRun], plan: &Plan) {
    let walls: Vec<String> = runs.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    report.facts.push(("call_walls_s", walls.join(" ")));
    let run = &runs[0];
    report.facts.push(("cores", sys::cores().to_string()));
    report.facts.push(("threads", plan.n_threads().to_string()));
    report.facts.push(("kernel", run.kernel.to_string()));
    report
        .facts
        .push(("source_tier", run.source_tier.to_string()));
    report.facts.push(("prefetch", run.prefetch.clone()));
}

/// One deep_hotspot run.
pub fn run_batch(seed: u64, seconds: u64, trace: bool, dir: &Path) -> Result<Report, String> {
    let workload = Workload::DeepHotspot;
    let plan = plan_for(workload);
    let mut report = Report::default();
    let prepared = prepare(workload, seed, dir, trace)?;
    let out = dir.join("calls.vcf");
    let window = Duration::from_secs(seconds);
    if !trace {
        sys::reset_peak_rss()?;
        let mut setups = Vec::new();
        let runs = call_loop(&plan, &prepared, &out, window, &mut report, || {
            for _ in 0..SETUPS_PER_RUN {
                setups.push(batch::setup_once(
                    &plan,
                    &prepared.written.bal,
                    &prepared.written.fasta,
                )?);
            }
            Ok(())
        })?;
        let peak = sys::peak_rss_mb()?;
        facts(&mut report, &runs, &plan);
        let walls_ms: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
        let busy_s: f64 = runs.iter().map(|r| r.wall_s).sum();
        report.metrics = calling_metrics(&runs, &prepared.written);
        report.metrics.extend([
            metric("setup_s", med(setups), "s"),
            metric("peak_rss_mb", peak, "MiB"),
            // A batch request is one whole calling run, issued back to back.
            metric("req_p50_ms", med(walls_ms.iter().copied()), "ms"),
            metric(
                "req_p90_ms",
                percentile(&walls_ms, 90.0).unwrap_or(f64::NAN),
                "ms",
            ),
            metric("req_max_per_s", runs.len() as f64 / busy_s, "req/s"),
        ]);
        return Ok(report);
    }
    let traced = traced_pass(&plan, &prepared, dir, window, &mut report)?;
    report.metrics = traced.metrics;
    report.metrics.extend(serve_layers_absent());
    report.spans = Some(traced.log);
    Ok(report)
}

/// Per-layer metrics of a workload that serves no requests.
fn serve_layers_absent() -> Vec<Metric> {
    vec![
        metric("serve.cache_hit_frac", 0.0, "ratio"),
        metric("serve.call_ms", 0.0, "ms"),
        metric("serve.overhead_ms", 0.0, "ms"),
        metric("serve.shed", 0.0, "count"),
        metric("gen.late_ms", 0.0, "ms"),
    ]
}

/// What the traced pass produced.
pub struct Traced {
    /// Per-layer metrics of the calling layers.
    pub metrics: Vec<Metric>,
    /// Spans of every replay and pass.
    pub log: SpanLog,
}

/// The traced pass: the I/O and decode passes, then untraced runs and
/// traced replays of the calling run in alternation until `window` has
/// passed (at least [`MIN_RUNS`] pairs), so that host drift hits both
/// sides alike. Layer times are means over the replays; replay counts
/// must equal the untraced runs' and each other.
pub fn traced_pass(
    plan: &Plan,
    prepared: &Prepared,
    dir: &Path,
    window: Duration,
    report: &mut Report,
) -> Result<Traced, String> {
    let written = &prepared.written;
    let epoch = Instant::now();
    let reference = crate::inputs::load_reference(&written.fasta)?;
    let regions = plan.regions(reference.len() as u32);
    let io = batch::io_pass(plan, &written.bal, &regions)?;
    let decode = batch::decode_pass(&written.bal, &regions)?;
    let read_per_block = io.read / io.slices.max(1) as u32;

    let mut log = SpanLog::new(epoch);
    let mut runs: Vec<TimedRun> = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    let out = dir.join("traced.vcf");
    let t0 = Instant::now();
    while t0.elapsed() < window || replays.len() < MIN_RUNS {
        untraced_run(plan, prepared, &dir.join("calls.vcf"), &mut runs, report)?;
        report.attempted += 1;
        let r = batch::replay(
            plan,
            &written.bal,
            &written.fasta,
            &out,
            &prepared.unfiltered,
            read_per_block,
            epoch,
            replays.len() as u64 + 1,
        )?;
        let written_vcf = std::fs::read(&out).map_err(|e| e.to_string())?;
        if written_vcf != prepared.expected {
            report.failed += 1;
        }
        replays.push(r);
    }
    facts(report, &runs, plan);

    let untraced = &runs[0].counts;
    let want_called: Vec<u32> = prepared.unfiltered.iter().map(|r| r.pos as u32).collect();
    for (i, r) in replays.iter().enumerate() {
        report.check(
            r.counts == replays[0].counts,
            format!(
                "replay {i} counts differ: {:?} vs {:?}",
                r.counts, replays[0].counts
            ),
        );
        report.check(
            r.counts.matches(&untraced.stats),
            format!(
                "replay counts {:?} disagree with the driver's {:?}",
                r.counts, untraced.stats
            ),
        );
        report.check(
            r.called == want_called,
            format!("replay {i} called positions differ from the untraced run's records"),
        );
        let thread_time = r.wall * r.threads as u32;
        report.check(
            r.layer_total() <= thread_time,
            format!(
                "replay {i}: layer self times {:?} exceed wall × threads {:?}",
                r.layer_total(),
                thread_time
            ),
        );
    }

    let n = replays.len() as f64;
    let per_replay = |layer: &str| -> f64 {
        replays
            .iter()
            .map(|r| r.self_time(layer).as_secs_f64())
            .sum::<f64>()
            / n
    };
    let c = replays[0].counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let pileup_s = per_replay("pileup");
    let other_s = replays
        .iter()
        .map(|r| {
            (r.wall * r.threads as u32)
                .saturating_sub(r.layer_total())
                .as_secs_f64()
        })
        .sum::<f64>()
        / n;
    let call_s = med(runs.iter().map(|r| r.wall_s));
    let overhead = med(replays
        .iter()
        .zip(&runs)
        .map(|(r, u)| r.wall.as_secs_f64() / u.wall_s - 1.0));
    let thread_s = mean(
        &replays
            .iter()
            .map(|r| r.wall.as_secs_f64() * r.threads as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::NAN);
    let barrier_s = med(runs.iter().map(|r| r.barrier_s));
    let share = |x: f64, of: f64| format!("{:.3}", x / of);
    report.facts.extend([
        ("io_share_of_call", share(io.read.as_secs_f64(), call_s)),
        ("pileup_share_of_thread_time", share(pileup_s, thread_s)),
        (
            "exact_share_of_thread_time",
            share(per_replay("exact"), thread_s),
        ),
        (
            "barrier_share_of_thread_time",
            share(per_replay("barrier"), thread_s),
        ),
    ]);

    let metrics = vec![
        metric("io.read_s", io.read.as_secs_f64(), "s"),
        metric("io.read_bytes", io.bytes as f64, "B"),
        metric("decode.s", decode.decode.as_secs_f64(), "s"),
        metric(
            "decode.ns_per_record",
            decode.decode.as_secs_f64() * 1e9 / decode.records.max(1) as f64,
            "ns",
        ),
        metric(
            "decode.blocks_per_file",
            ratio(untraced.decode_blocks, written.n_blocks as u64),
            "ratio",
        ),
        metric("pileup.s", pileup_s, "s"),
        metric("pileup.bases", c.bases as f64, "count"),
        metric(
            "pileup.ns_per_base",
            pileup_s * 1e9 / c.bases.max(1) as f64,
            "ns",
        ),
        metric("screen.s", per_replay("screen"), "s"),
        metric("screen.skip_frac", ratio(c.skipped, c.mismatch), "ratio"),
        metric("exact.s", per_replay("exact"), "s"),
        metric("exact.columns", c.exact as f64, "count"),
        metric("exact.bail_frac", ratio(c.bailed, c.exact), "ratio"),
        metric(
            "exact.bins_per_column",
            ratio(c.exact_bins, c.exact),
            "count",
        ),
        metric("parfor.barrier_s", barrier_s, "s"),
        metric(
            "parfor.imbalance",
            med(runs.iter().map(|r| r.imbalance)),
            "ratio",
        ),
        metric("vcf.filter_s", per_replay("vcf.filter"), "s"),
        metric("vcf.write_s", per_replay("vcf.write"), "s"),
        metric("driver.other_s", other_s, "s"),
        metric("trace.overhead_frac", overhead, "ratio"),
    ];
    for r in replays {
        log.append(r.log);
    }
    Ok(Traced { metrics, log })
}
