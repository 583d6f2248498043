//! Calling runs: the timed untraced loop, the output checks, and the
//! traced replay that splits a run's time into layers.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ultravc_bamlite::{BalFile, IoPlan, RecordBatch, SharedBlockCache, SourceTier};
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, ParallelMode, PrefetchMode};
use ultravc_core::{CallStats, ColumnDecision, ColumnTest, RunBudget, Scratch};
use ultravc_parfor::{parallel_for, Schedule};
use ultravc_pileup::{chunk_ranges, pileup_region_windowed};
use ultravc_vcf::{write_vcf, DynamicFilter, FilterParams, VcfRecord, VcfWriter};

use crate::inputs::load_reference;
use crate::spans::{self_times, SpanLog};
use crate::sys;

/// The `##source` every VCF in the benchmark carries (the server's).
pub const VCF_SOURCE: &str = "ultravc-0.1";

/// Columns per chunk: the value `ultravc call --mode openmp` and the
/// server use (the library's `CallDriver::openmp` default is 64).
pub const CHUNK_COLUMNS: u32 = 256;

/// How a workload calls: byte-source tier and the driver's parallel
/// shape.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Tier the BAL file is opened through.
    pub tier: SourceTier,
    /// OpenMP-style worker count, or `None` for the sequential driver.
    pub threads: Option<usize>,
}

impl Plan {
    /// The driver `ultravc call` builds for this plan, with `config`.
    pub fn driver(&self, config: CallerConfig, filter: bool) -> CallDriver {
        let mode = match self.threads {
            None => ParallelMode::Sequential,
            Some(n) => ParallelMode::OpenMp {
                n_threads: n,
                schedule: Schedule::Dynamic { chunk: 1 },
                chunk_columns: CHUNK_COLUMNS,
            },
        };
        CallDriver {
            config,
            filter: filter.then(FilterParams::default),
            mode,
            trace: false,
            prefetch: PrefetchMode::Auto,
            budget: Some(RunBudget::unbounded()),
        }
    }

    /// Open the BAL file the way this plan reads it.
    pub fn open(&self, path: &Path) -> Result<BalFile, String> {
        BalFile::open_with(path, self.tier).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Threads the run occupies.
    pub fn n_threads(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// The driver's region partition of `[0, len)`: one region for the
    /// sequential driver, CLI-sized chunks otherwise.
    #[allow(clippy::single_range_in_vec_init)]
    pub fn regions(&self, len: u32) -> Vec<Range<u32>> {
        match self.threads {
            None => vec![0..len],
            Some(_) => chunk_ranges(0, len, CHUNK_COLUMNS),
        }
    }
}

/// Counts that must repeat exactly between runs on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCounts {
    /// Blocks decoded over the run.
    pub decode_blocks: u64,
    /// Decision-path counters.
    pub stats: CallStats,
    /// Records written.
    pub records: usize,
}

/// One untraced calling run.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Open BAL → VCF bytes written.
    pub wall_s: f64,
    /// User + system CPU over the same interval.
    pub cpu_s: f64,
    /// Exact counts of the run.
    pub counts: RunCounts,
    /// Σ over threads of idle time at the join (0 for sequential runs).
    pub barrier_s: f64,
    /// max/mean busy over the team (1 for sequential runs).
    pub imbalance: f64,
    /// Whether the run completed everywhere and wrote the expected VCF.
    pub ok: bool,
    /// SIMD kernel the run dispatched to.
    pub kernel: &'static str,
    /// Byte-source tier the run read from.
    pub source_tier: &'static str,
    /// Prefetch mode that actually engaged.
    pub prefetch: String,
}

/// Render records exactly as every VCF in the benchmark is rendered.
pub fn render(reference_name: &str, records: &[VcfRecord]) -> Vec<u8> {
    write_vcf(reference_name, VCF_SOURCE, records).into_bytes()
}

/// Run `driver` once over the whole reference and return its records,
/// failing on an error or a partial outcome.
pub fn reference_records(
    plan: &Plan,
    driver: &CallDriver,
    bal: &Path,
    fasta: &Path,
) -> Result<(String, Vec<VcfRecord>), String> {
    let file = plan.open(bal)?;
    let reference = load_reference(fasta)?;
    let outcome = driver.run(&reference, &file).map_err(|e| e.to_string())?;
    if !outcome.partial.is_empty() || outcome.interrupt.is_some() {
        return Err("reference run came back partial".to_string());
    }
    Ok((reference.name, outcome.records))
}

/// One timed calling run: open the BAL file, load the reference, call,
/// and write the VCF to `out`; then compare the written bytes with
/// `expected` (untimed).
pub fn call_once(
    plan: &Plan,
    bal: &Path,
    fasta: &Path,
    out: &Path,
    expected: &[u8],
) -> Result<TimedRun, String> {
    let driver = plan.driver(CallerConfig::improved(), true);
    let cpu0 = sys::cpu_seconds()?;
    let t0 = Instant::now();
    let file = plan.open(bal)?;
    let reference = load_reference(fasta)?;
    let outcome = driver.run(&reference, &file).map_err(|e| e.to_string())?;
    write_records(out, &reference.name, &outcome.records)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds()? - cpu0;
    let written = std::fs::read(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let complete = outcome.partial.is_empty() && outcome.interrupt.is_none();
    let (barrier_s, imbalance) = match &outcome.team {
        Some(team) => (
            team.finished_at
                .iter()
                .map(|f| team.wall.saturating_sub(*f).as_secs_f64())
                .sum(),
            team.imbalance(),
        ),
        None => (0.0, 1.0),
    };
    Ok(TimedRun {
        wall_s,
        cpu_s,
        counts: RunCounts {
            decode_blocks: outcome.decode.blocks,
            stats: outcome.stats,
            records: outcome.records.len(),
        },
        barrier_s,
        imbalance,
        ok: complete && written == expected,
        kernel: outcome.kernel,
        source_tier: outcome.source_tier,
        prefetch: outcome.prefetch.to_string(),
    })
}

fn write_records(out: &Path, reference_name: &str, records: &[VcfRecord]) -> Result<(), String> {
    let file = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut writer = VcfWriter::new(BufWriter::new(file));
    writer
        .write_all(reference_name, VCF_SOURCE, records)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    writer
        .into_inner()
        .flush()
        .map_err(|e| format!("{}: {e}", out.display()))
}

/// Time of everything a run needs before its first call: open the BAL
/// file, load the reference, build the whole-genome `ColumnTest`.
pub fn setup_once(plan: &Plan, bal: &Path, fasta: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let file = plan.open(bal)?;
    let reference = load_reference(fasta)?;
    let tester = ColumnTest::new(&CallerConfig::improved(), reference.len());
    let elapsed = t0.elapsed().as_secs_f64();
    black_box((&file, &tester));
    Ok(elapsed)
}

/// `ByteSource::slice` over every block the run's `IoPlan` schedules, on
/// the plan's tier. Every page of each slice is touched, so on the mmap
/// tier the time includes paging the bytes in.
pub struct IoPass {
    /// Σ slice time.
    pub read: Duration,
    /// Σ slice length.
    pub bytes: u64,
    /// Slices made.
    pub slices: u64,
}

/// Run the I/O pass.
pub fn io_pass(plan: &Plan, bal: &Path, regions: &[Range<u32>]) -> Result<IoPass, String> {
    let file = plan.open(bal)?;
    let io_plan = IoPlan::for_regions(&file, regions);
    let index = file.index();
    let mut pass = IoPass {
        read: Duration::ZERO,
        bytes: 0,
        slices: 0,
    };
    for &b in io_plan.schedule() {
        let meta = index[b];
        let t0 = Instant::now();
        let bytes = file
            .source()
            .slice(meta.offset, meta.len)
            .map_err(|e| format!("read block {b}: {e}"))?;
        let touched = bytes.iter().step_by(4096).fold(0u8, |acc, x| acc ^ x);
        black_box(touched);
        pass.read += t0.elapsed();
        pass.bytes += meta.len as u64;
        pass.slices += 1;
    }
    Ok(pass)
}

/// `BalReader::decode_batch` over the run's planned blocks, on an
/// in-memory copy of the file so no I/O is timed.
pub struct DecodePass {
    /// Σ decode time.
    pub decode: Duration,
    /// Records decoded.
    pub records: u64,
}

/// Run the decode pass.
pub fn decode_pass(bal: &Path, regions: &[Range<u32>]) -> Result<DecodePass, String> {
    let file = BalFile::open_with(bal, SourceTier::Mem).map_err(|e| e.to_string())?;
    let io_plan = IoPlan::for_regions(&file, regions);
    let mut reader = file.reader();
    let mut batch = RecordBatch::new();
    let mut pass = DecodePass {
        decode: Duration::ZERO,
        records: 0,
    };
    for &b in io_plan.schedule() {
        let t0 = Instant::now();
        reader
            .decode_batch(b, &mut batch)
            .map_err(|e| format!("decode block {b}: {e}"))?;
        pass.decode += t0.elapsed();
        pass.records += batch.len() as u64;
    }
    Ok(pass)
}

/// Column-level counts of a traced replay; they must equal the untraced
/// driver's counters for the same input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Columns the pileup emitted.
    pub columns: u64,
    /// Bases stacked into those columns.
    pub bases: u64,
    /// Columns with at least one mismatch.
    pub mismatch: u64,
    /// Mismatch columns the Poisson screen skipped.
    pub skipped: u64,
    /// Columns that ran the exact DP (to completion or bail).
    pub exact: u64,
    /// Exact DPs that bailed early.
    pub bailed: u64,
    /// Calls made (before filtering).
    pub calls: u64,
    /// Σ distinct quality bins over exact columns.
    pub exact_bins: u64,
}

impl LayerCounts {
    fn merge(&mut self, o: &LayerCounts) {
        self.columns += o.columns;
        self.bases += o.bases;
        self.mismatch += o.mismatch;
        self.skipped += o.skipped;
        self.exact += o.exact;
        self.bailed += o.bailed;
        self.calls += o.calls;
        self.exact_bins += o.exact_bins;
    }

    /// Whether the replay's decisions agree with the driver's counters.
    pub fn matches(&self, stats: &CallStats) -> bool {
        self.columns == stats.columns
            && self.mismatch == stats.mismatch_columns
            && self.skipped == stats.skipped_by_approx
            && self.bailed == stats.bailed_early
            && self.exact == stats.bailed_early + stats.exact_completed
            && self.calls == stats.calls
    }
}

/// One traced replay of a calling run.
pub struct Replay {
    /// Open → VCF written.
    pub wall: Duration,
    /// Threads the replay ran on.
    pub threads: usize,
    /// Spans of this replay.
    pub log: SpanLog,
    /// Self time per span name.
    pub self_times: BTreeMap<&'static str, Duration>,
    /// Positions the test called, in order (before filtering).
    pub called: Vec<u32>,
    /// Column-level counts.
    pub counts: LayerCounts,
}

/// Span names whose self times are the layer times of a replay.
pub const LAYERS: [&str; 8] = [
    "read",
    "decode",
    "pileup",
    "screen",
    "exact",
    "barrier",
    "vcf.filter",
    "vcf.write",
];

impl Replay {
    /// Self time of one layer.
    pub fn self_time(&self, layer: &str) -> Duration {
        self.self_times.get(layer).copied().unwrap_or_default()
    }

    /// Σ self time of every layer in [`LAYERS`].
    pub fn layer_total(&self) -> Duration {
        LAYERS.iter().map(|l| self.self_time(l)).sum()
    }
}

/// Replay one calling run through the layers' public entry points, with
/// the driver's chunk partition and thread count, recording a span
/// around each call: per chunk, `pileup` spans around
/// `PileupIter::next` containing `decode` spans (the iterator's own
/// decode-time delta) containing `read` spans (sized from the I/O pass's
/// mean time per block, since the library reads inside its decode
/// timer); `screen` and `exact` spans around `ColumnTest::test`; then
/// `barrier` spans from the team report, and `vcf.filter` / `vcf.write`
/// around `DynamicFilter::apply` and `VcfWriter` on `unfiltered`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    plan: &Plan,
    bal: &Path,
    fasta: &Path,
    out: &Path,
    unfiltered: &[VcfRecord],
    read_per_block: Duration,
    epoch: Instant,
    run: u64,
) -> Result<Replay, String> {
    let threads = plan.n_threads();
    let mut log = SpanLog::new(epoch);
    let t0 = Instant::now();
    let file = plan.open(bal)?;
    let reference = load_reference(fasta)?;
    let config = CallerConfig::improved();
    let tester = ColumnTest::new(&config, reference.len());
    let regions = plan.regions(reference.len() as u32);
    let io_plan = IoPlan::for_regions(&file, &regions);
    let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &io_plan));
    let scratches: Vec<Mutex<Scratch>> = (0..threads).map(|_| Mutex::new(Scratch::new())).collect();
    log.record("open", t0, Instant::now(), None, run, 0);

    let team_start = Instant::now();
    let (chunks, team) = parallel_for(
        threads,
        &regions,
        Schedule::Dynamic { chunk: 1 },
        |ctx, idx, _range| {
            let mut scratch = scratches[ctx.thread_id]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut log = SpanLog::new(epoch);
            let mut counts = LayerCounts::default();
            let mut called = Vec::new();
            let chunk = log.record(
                "chunk",
                Instant::now(),
                Instant::now(),
                None,
                run,
                ctx.thread_id,
            );
            let mut iter = pileup_region_windowed(&cache, io_plan.window(idx), config.pileup);
            loop {
                let before = iter.decode_stats();
                let t0 = Instant::now();
                let column = iter.next();
                let t1 = Instant::now();
                let after = iter.decode_stats();
                let pileup = log.record("pileup", t0, t1, Some(chunk), run, ctx.thread_id);
                let decoded = after
                    .decode_time
                    .saturating_sub(before.decode_time)
                    .min(t1 - t0);
                if !decoded.is_zero() {
                    let decode =
                        log.record("decode", t0, t0 + decoded, Some(pileup), run, ctx.thread_id);
                    let blocks = (after.blocks - before.blocks) as u32;
                    let read = (read_per_block * blocks).min(decoded);
                    if !read.is_zero() {
                        log.record("read", t0, t0 + read, Some(decode), run, ctx.thread_id);
                    }
                }
                let Some(column) = column else { break };
                counts.columns += 1;
                counts.bases += column.depth() as u64;
                let ref_base = reference.base(column.pos as usize);
                let t2 = Instant::now();
                let decision = tester.test(&column, ref_base, &mut scratch);
                let t3 = Instant::now();
                let layer = match decision {
                    ColumnDecision::NoMismatch => None,
                    ColumnDecision::SkippedByApprox { .. } => {
                        counts.skipped += 1;
                        Some("screen")
                    }
                    ColumnDecision::BailedEarly { .. } => {
                        counts.bailed += 1;
                        Some("exact")
                    }
                    ColumnDecision::NotSignificant { .. } => Some("exact"),
                    ColumnDecision::Called { .. } => {
                        counts.calls += 1;
                        called.push(column.pos);
                        Some("exact")
                    }
                };
                if let Some(layer) = layer {
                    counts.mismatch += 1;
                    if layer == "exact" {
                        counts.exact += 1;
                        counts.exact_bins += column.distinct_quals() as u64;
                    }
                    log.record(layer, t2, t3, Some(chunk), run, ctx.thread_id);
                }
                iter.recycle(column);
            }
            log.close(chunk, Instant::now());
            match iter.take_error() {
                Some(e) => Err(e.to_string()),
                None => Ok((log, counts, called)),
            }
        },
    );
    let team_end = team_start + team.wall;
    for (t, done) in team.finished_at.iter().enumerate() {
        let idle_from = team_start + *done;
        if team_end > idle_from {
            log.record("barrier", idle_from, team_end, None, run, t);
        }
    }
    let mut counts = LayerCounts::default();
    let mut called = Vec::new();
    for chunk in chunks {
        let (chunk_log, chunk_counts, chunk_called) = chunk?;
        log.append(chunk_log);
        counts.merge(&chunk_counts);
        called.extend(chunk_called);
    }

    let mut records = unfiltered.to_vec();
    let f0 = Instant::now();
    DynamicFilter::new(FilterParams::default()).apply(&mut records);
    let f1 = Instant::now();
    log.record("vcf.filter", f0, f1, None, run, 0);
    write_records(out, &reference.name, &records)?;
    let wall_end = Instant::now();
    log.record("vcf.write", f1, wall_end, None, run, 0);
    Ok(Replay {
        wall: wall_end - t0,
        threads,
        self_times: self_times(log.spans()),
        log,
        called,
        counts,
    })
}
