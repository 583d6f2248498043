//! The streaming pileup iterator.
//!
//! Records arrive position-sorted from a [`BalReader`] (blocks decoded
//! lazily); a ring of in-flight columns receives bases from every read that
//! overlaps them; a column is emitted as soon as no unread record can still
//! touch it (i.e. the next record starts past it). Peak memory is
//! `O(read_len × depth_cap)` packed entries, independent of file size.
//!
//! # Absorbing a read
//!
//! Every source hands its records to one routine, `absorb`, which works
//! per CIGAR **match run** rather than per base: a run is clipped to the
//! region once, the ring grows once to the run's last column, and the
//! run's base-code and quality slices are zipped against the ring's
//! contiguous columns. Per base, only a slot-table lookup (the `min_baseq`
//! filter and the histogram slot in one) and the depth-capped push remain.
//!
//! *Ring seeding.* An empty ring is seeded at the absorbed record's first
//! **in-region** position — not at its first base that passes the quality
//! filter. A following read at the same start may cover columns whose
//! bases the first read filtered out; seeding past them would put those
//! columns behind the emission front.
//!
//! # Ingest paths
//!
//! Three sources can feed the ring, all producing **bitwise-identical**
//! columns (same entries, same push order, same depth-cap decisions):
//!
//! * **Batch** (default) — blocks decode into a reusable [`RecordBatch`]
//!   arena via [`BalReader::decode_batch`]; bases are stacked straight
//!   from bin indices ([`PileupColumn::push_slot_capped`]) and a batch
//!   freelist mirrors the column freelist so steady state performs zero
//!   allocations.
//! * **Legacy** — the per-record [`Record`] shim
//!   ([`BalReader::decode_block`]); each record's bases are unpacked into
//!   scratch and its Phred scores index their own slot table. Selectable
//!   per call or globally with `ULTRAVC_LEGACY_DECODE=1`, which is what
//!   CI's ingest-parity leg pins.
//! * **Shared** ([`pileup_region_cached`]) — batches come from a
//!   run-scoped [`SharedBlockCache`], so parallel workers whose chunks
//!   straddle a block boundary decode that block exactly once per run.
//!   [`pileup_region_windowed`] is the planned variant: the iterator
//!   walks a precomputed region-scoped [`BlockWindow`] from the run's
//!   [`ultravc_bamlite::IoPlan`] instead of re-deriving the overlap —
//!   the same windows the driver's prefetch layer schedules I/O around.

use crate::column::PileupColumn;
#[cfg(test)]
use crate::column::PileupEntry;
use std::collections::VecDeque;
use std::sync::Arc;
use ultravc_bamlite::{
    BalError, BalFile, BalReader, BlockWindow, CigarOp, DecodeStats, Flags, QualityDict, Record,
    RecordBatch, RecordView, SharedBlockCache,
};
use ultravc_genome::phred::MAX_PHRED;

/// Which decode path feeds the pileup ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IngestMode {
    /// Batch unless `ULTRAVC_LEGACY_DECODE=1` is set in the environment.
    #[default]
    Auto,
    /// Arena batch decode (the zero-alloc path).
    Batch,
    /// Per-record `Record` decode (the compatibility shim).
    Legacy,
}

impl IngestMode {
    /// Resolve `Auto` against the `ULTRAVC_LEGACY_DECODE` environment
    /// override. Explicit modes always win (parity tests pin both paths
    /// even under CI's legacy leg).
    pub fn resolved(self) -> ResolvedIngest {
        match self {
            IngestMode::Batch => ResolvedIngest::Batch,
            IngestMode::Legacy => ResolvedIngest::Legacy,
            IngestMode::Auto => {
                if std::env::var("ULTRAVC_LEGACY_DECODE").is_ok_and(|v| v == "1") {
                    ResolvedIngest::Legacy
                } else {
                    ResolvedIngest::Batch
                }
            }
        }
    }
}

/// An [`IngestMode`] with `Auto` resolved away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedIngest {
    /// Arena batch decode.
    Batch,
    /// Per-record decode.
    Legacy,
}

/// Pileup configuration, mirroring LoFreq's relevant defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PileupParams {
    /// Depth cap per column (LoFreq default: 1 000 000; the paper's Table I
    /// footnote depends on it).
    pub max_depth: usize,
    /// Minimum mapping quality; reads below are skipped entirely.
    pub min_mapq: u8,
    /// Minimum base quality; bases below are not stacked.
    pub min_baseq: u8,
    /// Skip reads flagged secondary/duplicate/QC-fail.
    pub skip_flagged: bool,
    /// Decode path selection.
    pub ingest: IngestMode,
}

impl Default for PileupParams {
    fn default() -> Self {
        PileupParams {
            max_depth: 1_000_000,
            min_mapq: 13,
            min_baseq: 3,
            skip_flagged: true,
            ingest: IngestMode::Auto,
        }
    }
}

/// Stream pileup columns for `[start, end)` of the given file.
///
/// Every worker thread calls this with its own region; the readers share the
/// file bytes but decode independently. (For decode-once sharing across
/// workers, see [`pileup_region_cached`].)
pub fn pileup_region(file: &BalFile, start: u32, end: u32, params: PileupParams) -> PileupIter {
    let source = match params.ingest.resolved() {
        ResolvedIngest::Legacy => Source::Legacy {
            buffered: VecDeque::new(),
            codes: Vec::new(),
            quals: Vec::new(),
        },
        ResolvedIngest::Batch => Source::Batch {
            cur: None,
            cursor: 0,
            spare: Vec::new(),
        },
    };
    PileupIter::new(file, start, end, params, source)
}

/// Stream pileup columns for `[start, end)` of the cache's file, pulling
/// decoded blocks from the shared cache: each block of the run is decoded
/// by exactly one of the iterators sharing the cache, no matter how many
/// of their regions overlap it. Always batch-ingest (the cache stores
/// arenas).
pub fn pileup_region_cached(
    cache: &Arc<SharedBlockCache>,
    start: u32,
    end: u32,
    params: PileupParams,
) -> PileupIter {
    let source = Source::Shared {
        cache: Arc::clone(cache),
        cur: None,
        cursor: 0,
    };
    PileupIter::new(cache.file(), start, end, params, source)
}

/// [`pileup_region_cached`] over a **precomputed block window** from a
/// run-level [`ultravc_bamlite::IoPlan`]: the iterator touches exactly
/// the window's blocks (its region's own blocks plus shared boundary
/// blocks) instead of re-deriving the overlap from the index — the
/// region-scoped payload window the prefetch planner schedules I/O
/// around. The window must have been planned for this cache's file;
/// a window from another file's plan names unrelated blocks.
pub fn pileup_region_windowed(
    cache: &Arc<SharedBlockCache>,
    window: &BlockWindow,
    params: PileupParams,
) -> PileupIter {
    let region = window.region();
    debug_assert_eq!(
        window.blocks(),
        cache.file().blocks_overlapping(region.start, region.end),
        "window was planned against a different file"
    );
    let source = Source::Shared {
        cache: Arc::clone(cache),
        cur: None,
        cursor: 0,
    };
    PileupIter::with_blocks(
        cache.file(),
        window.blocks_shared(),
        region.start,
        region.end,
        params,
        source,
    )
}

/// Upper bound on retained spare columns. Larger than any realistic read
/// length (= ring width), so steady state never allocates; small enough
/// that a pathological consumer cannot balloon memory by recycling
/// thousands of columns.
const FREELIST_CAP: usize = 256;

/// Upper bound on retained spare record batches. One batch is in flight at
/// a time, so the freelist cycles a single arena in steady state; the cap
/// only guards against misuse.
const BATCH_FREELIST_CAP: usize = 4;

/// Where decoded records come from.
enum Source {
    /// Owned-`Record` decode (compatibility shim). `codes` and `quals`
    /// are scratch for the current record's unpacked bases and raw scores.
    Legacy {
        buffered: VecDeque<Record>,
        codes: Vec<u8>,
        quals: Vec<u8>,
    },
    /// Arena batches decoded by this iterator, recycled through a
    /// freelist.
    Batch {
        cur: Option<RecordBatch>,
        cursor: usize,
        spare: Vec<RecordBatch>,
    },
    /// Arena batches decoded at most once per run by whichever sharing
    /// iterator gets there first.
    Shared {
        cache: Arc<SharedBlockCache>,
        cur: Option<Arc<RecordBatch>>,
        cursor: usize,
    },
}

/// Iterator over non-empty pileup columns of a region, in position order.
pub struct PileupIter {
    reader: BalReader,
    blocks: Arc<[usize]>,
    next_block: usize,
    source: Source,
    /// Per-base quality code → histogram slot (or [`SKIP`]), over the
    /// file's quality bins for batch sources and over raw Phred scores
    /// for the legacy source.
    slot_of: SlotTable,
    /// In-flight columns, front = lowest position. Invariant: contiguous
    /// positions `ring[0].pos .. ring[0].pos + ring.len()`.
    ring: VecDeque<PileupColumn>,
    /// Retired column buffers awaiting reuse: uncovered positions the
    /// iterator skipped plus whatever the consumer hands back via
    /// [`PileupIter::recycle`]. In steady state the ring allocates no new
    /// histogram per position.
    free: Vec<PileupColumn>,
    start: u32,
    end: u32,
    params: PileupParams,
    done: bool,
    error: Option<BalError>,
    /// Decode work performed *by this iterator* through a shared cache
    /// (cache hits are someone else's work and are counted separately).
    shared_stats: DecodeStats,
    /// Blocks this iterator consumed from the shared cache without paying
    /// for their decode.
    cache_hits: u64,
}

impl PileupIter {
    fn new(file: &BalFile, start: u32, end: u32, params: PileupParams, source: Source) -> Self {
        let blocks = file.blocks_overlapping(start, end);
        PileupIter::with_blocks(file, blocks.into(), start, end, params, source)
    }

    /// Constructor taking the region's block list as given (the windowed
    /// path, where a run-level plan already computed every overlap).
    fn with_blocks(
        file: &BalFile,
        blocks: Arc<[usize]>,
        start: u32,
        end: u32,
        params: PileupParams,
        source: Source,
    ) -> Self {
        let slot_of = match source {
            Source::Legacy { .. } => phred_slots(params.min_baseq),
            Source::Batch { .. } | Source::Shared { .. } => {
                bin_slots(file.quality_dict(), params.min_baseq)
            }
        };
        PileupIter {
            reader: file.reader(),
            blocks,
            next_block: 0,
            source,
            slot_of,
            ring: VecDeque::new(),
            free: Vec::new(),
            start,
            end,
            params,
            done: false,
            error: None,
            shared_stats: DecodeStats::default(),
            cache_hits: 0,
        }
    }

    /// The first decode error, if the iterator stopped on one.
    pub fn error(&self) -> Option<&BalError> {
        self.error.as_ref()
    }

    /// Take ownership of the stored decode error, leaving `None`. The
    /// supervised driver uses this to propagate the *typed* error (an
    /// interruption must stay an interruption, a transient-exhausted `Io`
    /// must stay `Io`) instead of flattening everything to `Corrupt`.
    pub fn take_error(&mut self) -> Option<BalError> {
        self.error.take()
    }

    /// Return an emitted column's buffer for reuse. Consumers that call
    /// this after processing each column make the iterator allocation-free
    /// in steady state; not calling it is also fine (the column is simply
    /// dropped and the ring allocates replacements).
    pub fn recycle(&mut self, column: PileupColumn) {
        if self.free.len() < FREELIST_CAP {
            self.free.push(column);
        }
    }

    /// Decode accounting: blocks this iterator decoded itself (through its
    /// reader or as the first requester of a shared-cache slot). Cache
    /// hits contribute nothing here, which is what lets per-worker stats
    /// sum to the true whole-run decode work.
    pub fn decode_stats(&self) -> DecodeStats {
        let mut stats = self.reader.stats();
        stats.merge(&self.shared_stats);
        stats
    }

    /// Blocks consumed from a shared cache that some other iterator had
    /// already decoded.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Position of the next undelivered record, pulling in blocks as
    /// needed. `None` when the region's records are exhausted (or a decode
    /// error stopped the iterator — see [`PileupIter::error`]).
    fn ensure_record(&mut self) -> Option<u32> {
        loop {
            match &self.source {
                Source::Legacy { buffered, .. } => {
                    if let Some(rec) = buffered.front() {
                        return Some(rec.pos);
                    }
                }
                Source::Batch { cur, cursor, .. } => {
                    if let Some(batch) = cur {
                        if *cursor < batch.len() {
                            return Some(batch.pos(*cursor));
                        }
                    }
                }
                Source::Shared { cur, cursor, .. } => {
                    if let Some(batch) = cur {
                        if *cursor < batch.len() {
                            return Some(batch.pos(*cursor));
                        }
                    }
                }
            }
            if self.next_block >= self.blocks.len() {
                return None;
            }
            let block_id = self.blocks[self.next_block];
            self.next_block += 1;
            if let Err(e) = self.refill(block_id) {
                self.error = Some(e);
                self.done = true;
                return None;
            }
        }
    }

    /// Pull block `block_id` into the source.
    fn refill(&mut self, block_id: usize) -> Result<(), BalError> {
        let Self {
            reader,
            source,
            shared_stats,
            cache_hits,
            ..
        } = self;
        match source {
            Source::Legacy { buffered, .. } => {
                buffered.extend(reader.decode_block(block_id)?);
            }
            Source::Batch { cur, cursor, spare } => {
                // Retire the exhausted batch to the freelist, then decode
                // into a spare arena (or a fresh one on cold start).
                if let Some(prev) = cur.take() {
                    if spare.len() < BATCH_FREELIST_CAP {
                        spare.push(prev);
                    }
                }
                let mut batch = spare.pop().unwrap_or_default();
                reader.decode_batch(block_id, &mut batch)?;
                *cur = Some(batch);
                *cursor = 0;
            }
            Source::Shared { cache, cur, cursor } => {
                let (batch, performed) = cache.get(block_id)?;
                match performed {
                    Some(stats) => shared_stats.merge(&stats),
                    None => *cache_hits += 1,
                }
                *cur = Some(batch);
                *cursor = 0;
            }
        }
        Ok(())
    }

    /// Fold the current record's aligned bases into the ring and advance
    /// past it. Must follow a successful [`PileupIter::ensure_record`].
    /// Every source reaches the one run-based [`absorb`] routine.
    fn absorb_current(&mut self) {
        let Self {
            source,
            ring,
            free,
            params,
            start,
            end,
            slot_of,
            ..
        } = self;
        let region = (*start, *end);
        match source {
            Source::Legacy {
                buffered,
                codes,
                quals,
            } => {
                let rec = buffered.pop_front().expect("ensured record");
                if keeps_read(params, rec.flags, rec.mapq) {
                    codes.clear();
                    codes.extend(rec.seq.iter().map(|b| b.code()));
                    quals.clear();
                    quals.extend(rec.quals.iter().map(|q| q.0));
                    let read = AlignedRead {
                        pos: rec.pos,
                        end_pos: rec.end_pos(),
                        reverse: rec.flags.is_reverse(),
                        ops: rec.cigar.ops(),
                        codes,
                        quals,
                    };
                    absorb(ring, free, region, params.max_depth, slot_of, read);
                }
            }
            Source::Batch { cur, cursor, .. } => {
                let view = cur.as_ref().expect("ensured batch").view(*cursor);
                *cursor += 1;
                absorb_view(ring, free, region, params, slot_of, view);
            }
            Source::Shared { cur, cursor, .. } => {
                let view = cur.as_ref().expect("ensured batch").view(*cursor);
                *cursor += 1;
                absorb_view(ring, free, region, params, slot_of, view);
            }
        }
    }
}

/// [`absorb`] an arena record: its bases and quality-bin indices are
/// already contiguous per-record slices, so nothing is unpacked.
fn absorb_view(
    ring: &mut VecDeque<PileupColumn>,
    free: &mut Vec<PileupColumn>,
    region: (u32, u32),
    params: &PileupParams,
    slot_of: &SlotTable,
    view: RecordView<'_>,
) {
    if !keeps_read(params, view.flags(), view.mapq()) {
        return;
    }
    let read = AlignedRead {
        pos: view.pos(),
        end_pos: view.end_pos(),
        reverse: view.flags().is_reverse(),
        ops: view.cigar_ops(),
        codes: view.base_codes(),
        quals: view.bin_indices(),
    };
    absorb(ring, free, region, params.max_depth, slot_of, read);
}

/// A blank column at `pos`, reusing a retired buffer when available.
fn fresh_column(free: &mut Vec<PileupColumn>, pos: u32) -> PileupColumn {
    match free.pop() {
        Some(mut col) => {
            col.reset(pos);
            col
        }
        None => PileupColumn::new(pos),
    }
}

/// Per-base quality code → histogram slot, or [`SKIP`] for a base the
/// `min_baseq` filter drops. Batch sources index it by quality-bin index,
/// the legacy source by raw Phred score, so both reach the same absorb
/// loop with the filter and the slot resolution folded into one lookup.
type SlotTable = [u8; 256];

/// [`SlotTable`] entry for a filtered base (no slot is this high).
const SKIP: u8 = u8::MAX;

/// Slot table over a file's quality-bin indices: bins below the
/// dictionary's `min_baseq` cutoff resolve to their score (the dictionary
/// is sorted descending, so too-low qualities are a suffix of bins).
fn bin_slots(dict: &QualityDict, min_baseq: u8) -> SlotTable {
    let mut table = [SKIP; 256];
    let cutoff = dict.bins_at_least(min_baseq) as usize;
    for (slot, q) in table.iter_mut().zip(&dict.quals()[..cutoff]) {
        *slot = q.0;
    }
    table
}

/// Slot table over raw Phred scores: scores at or above `min_baseq`
/// resolve to their clamped slot.
fn phred_slots(min_baseq: u8) -> SlotTable {
    let mut table = [SKIP; 256];
    for (q, slot) in table.iter_mut().enumerate().skip(min_baseq as usize) {
        *slot = (q as u8).min(MAX_PHRED);
    }
    table
}

/// Whether a read passes the read-level filters (flags, mapping quality).
fn keeps_read(params: &PileupParams, flags: Flags, mapq: u8) -> bool {
    !(params.skip_flagged && flags.is_filtered()) && mapq >= params.min_mapq
}

/// One read as [`absorb`] consumes it: its alignment shape plus per-base
/// code and quality slices (indexed by query position).
struct AlignedRead<'a> {
    pos: u32,
    end_pos: u32,
    reverse: bool,
    ops: &'a [CigarOp],
    codes: &'a [u8],
    quals: &'a [u8],
}

/// Fold one read's in-region aligned bases into the ring, one CIGAR match
/// run at a time: each run is clipped to the region once, the ring grows
/// once to the run's last column, and the run's base and quality slices
/// are zipped against the ring's contiguous columns. A base is stacked
/// iff its [`SlotTable`] entry is not [`SKIP`], subject to the column's
/// depth cap, so pushes land in the same columns in the same record order
/// as a per-base walk of the alignment.
///
/// An empty ring is seeded at the read's first in-region position, not at
/// its first base that passes the quality filter. Records arrive sorted
/// by position and only records starting at or before the front column
/// are absorbed, so every later read's in-region bases lie at or past the
/// front: a read whose leading bases fail the filter cannot leave the
/// ring starting past a column a following read still covers.
fn absorb(
    ring: &mut VecDeque<PileupColumn>,
    free: &mut Vec<PileupColumn>,
    region: (u32, u32),
    max_depth: usize,
    slot_of: &SlotTable,
    read: AlignedRead<'_>,
) {
    let lo = read.pos.max(region.0);
    let hi = read.end_pos.min(region.1);
    if lo >= hi {
        return;
    }
    if ring.is_empty() {
        ring.push_back(fresh_column(free, lo));
    }
    let front = ring.front().expect("seeded above").pos;
    debug_assert!(
        lo >= front,
        "records must not reach behind the emission front"
    );
    let mut ref_pos = read.pos;
    let mut query = 0usize;
    for &op in read.ops {
        if ref_pos >= hi {
            break;
        }
        match op {
            CigarOp::Match(n) => {
                let run_lo = ref_pos.max(lo);
                let run_hi = (ref_pos + n).min(hi);
                if run_lo < run_hi {
                    let len = (run_hi - run_lo) as usize;
                    let q0 = query + (run_lo - ref_pos) as usize;
                    let mut next = front + ring.len() as u32;
                    while next < run_hi {
                        ring.push_back(fresh_column(free, next));
                        next += 1;
                    }
                    let first = (run_lo - front) as usize;
                    let codes = &read.codes[q0..q0 + len];
                    let quals = &read.quals[q0..q0 + len];
                    for ((col, &code), &q) in
                        ring.range_mut(first..first + len).zip(codes).zip(quals)
                    {
                        let slot = slot_of[q as usize];
                        if slot != SKIP {
                            col.push_slot_capped(code, read.reverse, slot, max_depth);
                        }
                    }
                }
                ref_pos += n;
                query += n as usize;
            }
            CigarOp::Ins(n) | CigarOp::SoftClip(n) => query += n as usize,
            CigarOp::Del(n) => ref_pos += n,
        }
    }
}

impl Iterator for PileupIter {
    type Item = PileupColumn;

    fn next(&mut self) -> Option<PileupColumn> {
        loop {
            if self.done && self.ring.is_empty() {
                return None;
            }
            // Absorb every record that can still touch the front column.
            while !self.done {
                let front_pos = self.ring.front().map(|c| c.pos);
                match self.ensure_record() {
                    None => {
                        self.done = true;
                        break;
                    }
                    Some(p) => {
                        // If the ring is empty, absorb unconditionally to
                        // seed it; otherwise only records at or before the
                        // front column still affect it.
                        if front_pos.is_none() || p <= front_pos.expect("checked") {
                            self.absorb_current();
                        } else {
                            break;
                        }
                    }
                }
            }
            match self.ring.pop_front() {
                None => {
                    if self.done {
                        return None;
                    }
                }
                Some(col) => {
                    if !col.is_empty() {
                        return Some(col);
                    }
                    // Skip uncovered positions silently (mpileup
                    // behaviour), returning the buffer to the freelist.
                    self.recycle(col);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultravc_bamlite::{Cigar, Flags, Record};
    use ultravc_genome::alphabet::Base;
    use ultravc_genome::phred::Phred;
    use ultravc_genome::sequence::Seq;

    fn mk(id: u64, pos: u32, bases: &[u8], q: u8, flags: Flags) -> Record {
        let seq = Seq::from_ascii(bases).unwrap();
        let quals = vec![Phred::new(q); seq.len()];
        Record::full_match(id, pos, 60, flags, seq, quals).unwrap()
    }

    fn file(records: Vec<Record>) -> BalFile {
        BalFile::from_records(records).unwrap()
    }

    #[test]
    fn single_read_single_column_stack() {
        let f = file(vec![mk(0, 10, b"ACGT", 30, Flags::none())]);
        let cols: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[0].pos, 10);
        assert_eq!(cols[3].pos, 13);
        assert_eq!(cols[0].depth(), 1);
        assert_eq!(cols[0].iter().next().unwrap().base, Base::A);
        assert_eq!(cols[3].iter().next().unwrap().base, Base::T);
    }

    #[test]
    fn overlapping_reads_stack() {
        let f = file(vec![
            mk(0, 0, b"AAAA", 30, Flags::none()),
            mk(1, 2, b"AAAA", 25, Flags::REVERSE),
            mk(2, 4, b"AAAA", 20, Flags::none()),
        ]);
        let cols: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        // Coverage: 0,1 depth1; 2,3 depth2; 4,5 depth2; 6,7 depth1.
        let depths: Vec<(u32, usize)> = cols.iter().map(|c| (c.pos, c.depth())).collect();
        assert_eq!(
            depths,
            vec![
                (0, 1),
                (1, 1),
                (2, 2),
                (3, 2),
                (4, 2),
                (5, 2),
                (6, 1),
                (7, 1)
            ]
        );
        // Strand accounting at column 2: one forward A, one reverse A.
        assert_eq!(cols[2].strand_counts(Base::A), (1, 1));
    }

    #[test]
    fn gap_between_reads_emits_no_empty_columns() {
        let f = file(vec![
            mk(0, 0, b"AC", 30, Flags::none()),
            mk(1, 10, b"GT", 30, Flags::none()),
        ]);
        let cols: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![0, 1, 10, 11]);
    }

    #[test]
    fn region_bounds_clip_columns() {
        let f = file(vec![mk(0, 5, b"ACGTACGT", 30, Flags::none())]);
        let cols: Vec<_> = pileup_region(&f, 7, 10, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![7, 8, 9]);
    }

    #[test]
    fn mapq_and_flag_filters() {
        let mut low_mapq = mk(0, 0, b"AC", 30, Flags::none());
        low_mapq.mapq = 5;
        let f = file(vec![
            low_mapq,
            mk(1, 0, b"AC", 30, Flags::DUPLICATE),
            mk(2, 0, b"AC", 30, Flags::none()),
        ]);
        let cols: Vec<_> = pileup_region(&f, 0, 10, PileupParams::default()).collect();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].depth(), 1, "only the clean read survives");
    }

    #[test]
    fn baseq_filter_drops_bases_not_reads() {
        let seq = Seq::from_ascii(b"ACGT").unwrap();
        let quals = vec![Phred::new(2), Phred::new(30), Phred::new(2), Phred::new(30)];
        let rec = Record::full_match(0, 0, 60, Flags::none(), seq, quals).unwrap();
        let f = file(vec![rec]);
        let cols: Vec<_> = pileup_region(&f, 0, 10, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![1, 3], "Q2 bases filtered by min_baseq=3");
    }

    #[test]
    fn depth_cap_enforced() {
        let records: Vec<Record> = (0..50).map(|i| mk(i, 0, b"A", 30, Flags::none())).collect();
        let f = file(records);
        let params = PileupParams {
            max_depth: 10,
            ..PileupParams::default()
        };
        let cols: Vec<_> = pileup_region(&f, 0, 10, params).collect();
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].depth(), 10);
        assert!(cols[0].truncated());
    }

    #[test]
    fn deletion_skips_columns() {
        let seq = Seq::from_ascii(b"AAAA").unwrap();
        let quals = vec![Phred::new(30); 4];
        let rec = Record::new(
            0,
            0,
            60,
            Flags::none(),
            seq,
            quals,
            Cigar::parse("2M3D2M").unwrap(),
        )
        .unwrap();
        let f = file(vec![rec]);
        let cols: Vec<_> = pileup_region(&f, 0, 10, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![0, 1, 5, 6]);
    }

    #[test]
    fn empty_file_and_empty_region() {
        let f = file(vec![]);
        assert_eq!(
            pileup_region(&f, 0, 100, PileupParams::default()).count(),
            0
        );
        let f2 = file(vec![mk(0, 0, b"AC", 30, Flags::none())]);
        assert_eq!(
            pileup_region(&f2, 50, 60, PileupParams::default()).count(),
            0
        );
        assert_eq!(pileup_region(&f2, 5, 5, PileupParams::default()).count(), 0);
    }

    #[test]
    fn recycled_columns_change_nothing() {
        // Consuming with recycling must produce exactly the same columns
        // as consuming without, and recycled buffers must come back blank.
        let mut records = Vec::new();
        for i in 0..60u64 {
            records.push(mk(i, (i % 11) as u32 * 3, b"ACGTAC", 30, Flags::none()));
        }
        records.sort_by_key(|r| r.pos);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u64;
        }
        let f = file(records);
        let plain: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        let mut recycled = Vec::new();
        let mut iter = pileup_region(&f, 0, 100, PileupParams::default());
        while let Some(col) = iter.next() {
            recycled.push(col.clone());
            iter.recycle(col);
        }
        assert_eq!(plain, recycled);
        assert!(!iter.free.is_empty(), "recycled buffers retained");
    }

    #[test]
    fn freelist_is_bounded() {
        let f = file(vec![mk(0, 0, b"AC", 30, Flags::none())]);
        let mut iter = pileup_region(&f, 0, 10, PileupParams::default());
        for _ in 0..(FREELIST_CAP + 50) {
            iter.recycle(PileupColumn::new(0));
        }
        assert_eq!(iter.free.len(), FREELIST_CAP);
    }

    #[test]
    fn columns_partition_across_regions() {
        // Pileup of [0,mid) + pileup of [mid,end) must equal pileup of
        // [0,end) — the invariant the parallel caller relies on.
        let mut records = Vec::new();
        for i in 0..200u64 {
            records.push(mk(i, (i % 37) as u32 * 2, b"ACGTACGT", 30, Flags::none()));
        }
        records.sort_by_key(|r| r.pos);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u64;
        }
        let f = file(records);
        let whole: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        let mut split: Vec<_> = pileup_region(&f, 0, 40, PileupParams::default()).collect();
        split.extend(pileup_region(&f, 40, 100, PileupParams::default()));
        assert_eq!(whole, split);
    }

    /// A mixed workload: overlapping reads, strand variety, deletion,
    /// insertion and soft-clip CIGARs, low-quality bases (including Q2 at
    /// read starts and match-run ends), sub-threshold mapq, flagged reads,
    /// and a detached cluster whose first read opens on a filtered base.
    fn varied_records() -> Vec<Record> {
        let mut records = Vec::new();
        for i in 0..120u64 {
            let pos = (i % 23) as u32 * 4;
            let q = 2 + (i % 40) as u8;
            let flags = match i % 7 {
                0 => Flags::REVERSE,
                1 => Flags::DUPLICATE,
                _ => Flags::none(),
            };
            let mut rec = mk(i, pos, b"ACGTACGTACGT", q, flags);
            if i % 5 == 0 {
                rec = Record::new(
                    i,
                    pos,
                    60,
                    flags,
                    Seq::from_ascii(b"ACGTACGTACGT").unwrap(),
                    (0..12)
                        .map(|j| Phred::new(2 + ((i as usize + j) % 40) as u8))
                        .collect(),
                    Cigar::parse("2S4M3D5M1S").unwrap(),
                )
                .unwrap();
            }
            if i % 5 == 3 {
                // Q2 on the first base and on the last base of each run.
                let quals = (0..12)
                    .map(|j| Phred::new(if [0, 2, 8, 11].contains(&j) { 2 } else { q }))
                    .collect();
                rec = Record::new(
                    i,
                    pos,
                    60,
                    flags,
                    Seq::from_ascii(b"ACGTACGTACGT").unwrap(),
                    quals,
                    Cigar::parse("3M2I4M1D3M").unwrap(),
                )
                .unwrap();
            }
            if i % 11 == 0 {
                rec.mapq = 5;
            }
            records.push(rec);
        }
        // Past every read above, so the ring is empty when the cluster
        // arrives: its first read's filtered leading bases are covered by
        // the reads that follow it.
        for (k, (lead_q, cigar)) in [(2, "6M"), (30, "6M"), (2, "1S5M"), (30, "2M1I3M")]
            .into_iter()
            .enumerate()
        {
            let quals = (0..6)
                .map(|j| Phred::new(if j < 2 { lead_q } else { 30 }))
                .collect();
            records.push(
                Record::new(
                    0,
                    150 + (k as u32 / 2),
                    60,
                    Flags::none(),
                    Seq::from_ascii(b"ACGTAC").unwrap(),
                    quals,
                    Cigar::parse(cigar).unwrap(),
                )
                .unwrap(),
            );
        }
        records.sort_by_key(|r| r.pos);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u64;
        }
        records
    }

    /// Per-base reference pileup: every aligned base of every record, in
    /// file order, stacked into a position-keyed map — no ring, no runs.
    fn per_base_pileup(
        records: &[Record],
        start: u32,
        end: u32,
        params: PileupParams,
    ) -> Vec<PileupColumn> {
        let mut cols = std::collections::BTreeMap::new();
        for rec in records {
            if (params.skip_flagged && rec.flags.is_filtered()) || rec.mapq < params.min_mapq {
                continue;
            }
            for (pos, base, qual) in rec.aligned_bases() {
                if pos < start || pos >= end || qual.0 < params.min_baseq {
                    continue;
                }
                let entry = PileupEntry {
                    base,
                    qual,
                    reverse: rec.flags.is_reverse(),
                };
                cols.entry(pos)
                    .or_insert_with(|| PileupColumn::new(pos))
                    .push_capped(entry, params.max_depth);
            }
        }
        cols.into_values().collect()
    }

    /// Columns of `[start, end)` through every source: batch, legacy,
    /// shared cache and planned window.
    fn every_path(
        f: &BalFile,
        start: u32,
        end: u32,
        params: PileupParams,
    ) -> Vec<(&'static str, Vec<PileupColumn>)> {
        use ultravc_bamlite::IoPlan;
        let with = |ingest| PileupParams { ingest, ..params };
        let cache = Arc::new(SharedBlockCache::new(f.clone()));
        let plan = IoPlan::for_regions(f, std::slice::from_ref(&(start..end)));
        let planned = Arc::new(SharedBlockCache::for_plan(f.clone(), &plan));
        vec![
            (
                "batch",
                pileup_region(f, start, end, with(IngestMode::Batch)).collect(),
            ),
            (
                "legacy",
                pileup_region(f, start, end, with(IngestMode::Legacy)).collect(),
            ),
            (
                "cached",
                pileup_region_cached(&cache, start, end, params).collect(),
            ),
            (
                "windowed",
                pileup_region_windowed(&planned, &plan.windows()[0], params).collect(),
            ),
        ]
    }

    #[test]
    fn batch_and_legacy_ingest_are_bitwise_identical() {
        // Every source, against a per-base reference, under depth caps,
        // quality and read filters, and regions clipping reads at both
        // ends.
        let records = varied_records();
        let f = file(records.clone());
        for params in [
            PileupParams::default(),
            PileupParams {
                max_depth: 7,
                min_baseq: 20,
                ..PileupParams::default()
            },
            PileupParams {
                min_mapq: 0,
                min_baseq: 0,
                skip_flagged: false,
                ..PileupParams::default()
            },
        ] {
            for (start, end) in [(0, 200), (3, 97), (10, 11), (151, 154), (60, 152)] {
                let want = per_base_pileup(&records, start, end, params);
                for (path, got) in every_path(&f, start, end, params) {
                    assert_eq!(got, want, "{path} [{start}, {end}) {params:?}");
                }
            }
        }
    }

    #[test]
    fn ring_is_seeded_at_the_first_in_region_position() {
        // The first read's leading base fails min_baseq; the second read
        // covers that column. Seeding the ring at the first *passing* base
        // put column 0 behind the emission front (an out-of-bounds ring
        // index).
        let read = |id, q0| {
            let quals = vec![Phred::new(q0), Phred::new(30)];
            let seq = Seq::from_ascii(b"AC").unwrap();
            Record::full_match(id, 0, 60, Flags::none(), seq, quals).unwrap()
        };
        let f = file(vec![read(0, 2), read(1, 30)]);
        for (path, cols) in every_path(&f, 0, 10, PileupParams::default()) {
            let depths: Vec<(u32, usize)> = cols.iter().map(|c| (c.pos, c.depth())).collect();
            assert_eq!(depths, vec![(0, 1), (1, 2)], "{path}");
        }
    }

    #[test]
    fn v1_and_v2_files_pile_identically() {
        let records = varied_records();
        let v2 = BalFile::from_records(records.clone()).unwrap();
        let v1 = BalFile::from_records_legacy(records).unwrap();
        for ingest in [IngestMode::Batch, IngestMode::Legacy] {
            let params = PileupParams {
                ingest,
                ..PileupParams::default()
            };
            let a: Vec<_> = pileup_region(&v2, 0, 200, params).collect();
            let b: Vec<_> = pileup_region(&v1, 0, 200, params).collect();
            assert_eq!(a, b, "{ingest:?}");
        }
    }

    #[test]
    fn cached_pileup_matches_uncached() {
        let f = file(varied_records());
        let cache = Arc::new(SharedBlockCache::new(f.clone()));
        let params = PileupParams::default();
        let plain: Vec<_> = pileup_region(&f, 0, 200, params).collect();
        let cached: Vec<_> = pileup_region_cached(&cache, 0, 200, params).collect();
        assert_eq!(plain, cached);
        // A second overlapping pass hits the cache instead of re-decoding.
        let mut second = pileup_region_cached(&cache, 0, 200, params);
        let again: Vec<_> = second.by_ref().collect();
        assert_eq!(again, plain);
        assert_eq!(second.decode_stats().blocks, 0, "all blocks were hits");
        assert_eq!(second.cache_hits() as usize, f.n_blocks());
    }

    #[test]
    fn cached_split_regions_decode_each_block_once() {
        let f = file(varied_records());
        let cache = Arc::new(SharedBlockCache::new(f.clone()));
        let params = PileupParams::default();
        let whole: Vec<_> = pileup_region(&f, 0, 200, params).collect();
        let mut iters: Vec<_> = [(0u32, 30u32), (30, 60), (60, 200)]
            .iter()
            .map(|&(s, e)| pileup_region_cached(&cache, s, e, params))
            .collect();
        let mut split = Vec::new();
        for it in &mut iters {
            split.extend(it.by_ref());
        }
        assert_eq!(whole, split);
        let total_decodes: u64 = iters.iter().map(|it| it.decode_stats().blocks).sum();
        assert_eq!(
            total_decodes,
            f.n_blocks() as u64,
            "boundary blocks decoded exactly once across regions"
        );
        assert!(
            iters.iter().map(|it| it.cache_hits()).sum::<u64>() > 0,
            "overlapping regions must have produced cache hits"
        );
    }

    #[test]
    fn windowed_pileup_matches_cached_and_plain() {
        use ultravc_bamlite::IoPlan;
        let f = file(varied_records());
        let params = PileupParams::default();
        let whole: Vec<_> = pileup_region(&f, 0, 200, params).collect();
        let regions = vec![0u32..30, 30..60, 60..200];
        let plan = IoPlan::for_regions(&f, &regions);
        let cache = Arc::new(SharedBlockCache::for_plan(f.clone(), &plan));
        let mut iters: Vec<_> = plan
            .windows()
            .iter()
            .map(|w| pileup_region_windowed(&cache, w, params))
            .collect();
        let mut split = Vec::new();
        for it in &mut iters {
            split.extend(it.by_ref());
        }
        assert_eq!(whole, split, "windows partition identically to regions");
        let total_decodes: u64 = iters.iter().map(|it| it.decode_stats().blocks).sum();
        assert_eq!(
            total_decodes,
            f.n_blocks() as u64,
            "windowed iterators keep decode-once"
        );
    }

    #[test]
    fn push_slot_equals_entry_push() {
        let mut a = PileupColumn::new(0);
        let mut b = PileupColumn::new(0);
        for (base, q, rev) in [
            (Base::A, 30u8, false),
            (Base::G, 2, true),
            (Base::T, 93, false),
        ] {
            a.push_capped(
                PileupEntry {
                    base,
                    qual: Phred::new(q),
                    reverse: rev,
                },
                10,
            );
            b.push_slot_capped(base.code(), rev, q, 10);
        }
        assert_eq!(a, b);
        // Cap behaviour matches too.
        for _ in 0..20 {
            a.push_capped(
                PileupEntry {
                    base: Base::C,
                    qual: Phred::new(10),
                    reverse: false,
                },
                4,
            );
            b.push_slot_capped(Base::C.code(), false, 10, 4);
        }
        assert_eq!(a, b);
        assert!(b.truncated());
    }

    #[test]
    fn ingest_mode_resolution() {
        assert_eq!(IngestMode::Batch.resolved(), ResolvedIngest::Batch);
        assert_eq!(IngestMode::Legacy.resolved(), ResolvedIngest::Legacy);
        // Auto resolves to one of the two (depending on the environment).
        let auto = IngestMode::Auto.resolved();
        assert!(matches!(
            auto,
            ResolvedIngest::Batch | ResolvedIngest::Legacy
        ));
    }
}
