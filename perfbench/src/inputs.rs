//! Workload definitions and their seeded inputs.
//!
//! Every input is a function of the workload and `--seed`: the reads (and,
//! for the whole-genome sample, the reference and planted variants) come
//! from `ultravc-readsim` seeded with it, so one seed always yields the
//! same files. Simulation runs in a child process, so the heap it leaves
//! behind never counts toward the measured phases' memory.

use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use ultravc_bamlite::file::DEFAULT_BLOCK_CAPACITY;
use ultravc_bamlite::{BalFile, BalWriter, FormatVersion};
use ultravc_genome::fasta::{read_fasta, write_fasta, FastaRecord};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_genome::variant::TruthSet;
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_readsim::QualityPreset;
use ultravc_stats::rng::Rng;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I's deep tier with the Figure 2 variant hotspot.
    DeepHotspot,
    /// Region requests against an in-process server.
    ServeMixed,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "deep_hotspot" => Ok(Workload::DeepHotspot),
            "serve_mixed" => Ok(Workload::ServeMixed),
            other => Err(format!(
                "unknown workload {other:?} (deep_hotspot|serve_mixed)"
            )),
        }
    }

    /// The workload's name as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepHotspot => "deep_hotspot",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

/// Depth of the deep tier (Table I), over a 2,000-bp slice.
const DEEP_DEPTH: f64 = 40_000.0;
const DEEP_LEN: usize = 2_000;
/// Depth of the whole-genome sample behind `serve_mixed`.
const GENOME_DEPTH: f64 = 1_000.0;

/// A simulated sample held in memory.
pub struct Sample {
    /// The reference the reads were simulated from.
    pub reference: ReferenceGenome,
    /// The reads, as the simulator encoded them.
    pub alignments: BalFile,
}

/// Simulate the sample of `workload` for `seed`.
pub fn simulate(workload: Workload, seed: u64) -> Sample {
    match workload {
        Workload::DeepHotspot => {
            // The fixture the `fig2` harness builds, with its fixed
            // reference and variants (30 clustered in the last tenth of
            // the slice, 5 in the background) and degraded chemistry so
            // most columns carry mismatches. The seed draws the reads, so
            // every seed costs the same work up to sampling noise.
            let reference =
                ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(DEEP_LEN), 22);
            let mut rng = Rng::new(0xF162);
            let mut truth = TruthSet::random_in_window(
                &reference,
                30,
                0.02,
                0.2,
                DEEP_LEN * 9 / 10..DEEP_LEN,
                &mut rng,
            );
            let background = TruthSet::random_in_window(
                &reference,
                5,
                0.02,
                0.1,
                100..DEEP_LEN * 8 / 10,
                &mut rng,
            );
            truth.absorb(&background);
            let ds = DatasetSpec::new("deep_hotspot", DEEP_DEPTH, seed)
                .with_truth(truth)
                .with_quality(QualityPreset::Degraded)
                .simulate(&reference);
            Sample {
                reference,
                alignments: ds.alignments,
            }
        }
        Workload::ServeMixed => {
            let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::sars_cov_2(), seed);
            let ds = DatasetSpec::new(workload.name(), GENOME_DEPTH, seed)
                .with_variants(20, 0.005, 0.05)
                .simulate(&reference);
            Sample {
                reference,
                alignments: ds.alignments,
            }
        }
    }
}

/// The sample as files on disk, plus what writing them cost.
pub struct Written {
    /// The BAL file the workload reads.
    pub bal: PathBuf,
    /// The reference FASTA.
    pub fasta: PathBuf,
    /// Seconds per write of the BAL file (encode with `BalWriter` and
    /// write to disk), one entry per repetition.
    pub write_s: Vec<f64>,
    /// Size of the written BAL file.
    pub bal_bytes: u64,
    /// Read bases stored in it.
    pub bases: u64,
    /// Blocks in the written file.
    pub n_blocks: usize,
}

impl Written {
    /// Stored bytes per read base.
    pub fn bytes_per_base(&self) -> f64 {
        self.bal_bytes as f64 / self.bases.max(1) as f64
    }

    /// The one-line form a child process reports a written sample in.
    fn to_line(&self) -> String {
        let write_s: Vec<String> = self.write_s.iter().map(|w| format!("{w:?}")).collect();
        format!(
            "written {} {} {} {}",
            self.bal_bytes,
            self.bases,
            self.n_blocks,
            write_s.join(",")
        )
    }

    /// Parse [`Written::to_line`] output for the sample under `dir`.
    fn from_line(line: &str, dir: &Path) -> Option<Written> {
        let mut f = line.strip_prefix("written ")?.split(' ');
        let bal_bytes = f.next()?.parse().ok()?;
        let bases = f.next()?.parse().ok()?;
        let n_blocks = f.next()?.parse().ok()?;
        let write_s = f
            .next()?
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<f64>, _>>()
            .ok()?;
        Some(Written {
            bal: dir.join(BAL_NAME),
            fasta: dir.join(FASTA_NAME),
            write_s,
            bal_bytes,
            bases,
            n_blocks,
        })
    }
}

const BAL_NAME: &str = "sample.bal";
const FASTA_NAME: &str = "sample.fa";

/// The hidden subcommand a child process runs to simulate and write.
pub const CHILD_FLAG: &str = "--write-sample";

/// Simulate `workload`'s sample for `seed` and write it under `dir` in a
/// child process (this executable with [`CHILD_FLAG`]), waiting for it.
pub fn write_in_child(
    workload: Workload,
    seed: u64,
    dir: &Path,
    reps: usize,
) -> Result<Written, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let out = Command::new(exe)
        .arg(CHILD_FLAG)
        .args([workload.name(), &seed.to_string(), &reps.to_string()])
        .arg(dir)
        .output()
        .map_err(|e| format!("spawn sample writer: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), stdout.lines().last()) {
        (true, Some(line)) => {
            Written::from_line(line, dir).ok_or_else(|| format!("sample writer printed {line:?}"))
        }
        _ => Err(format!(
            "sample writer failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Body of the child process: `WORKLOAD SEED REPS DIR`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [workload, seed, reps, dir] = args else {
        return Err(format!("{CHILD_FLAG} WORKLOAD SEED REPS DIR"));
    };
    let workload = Workload::parse(workload)?;
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let reps = reps.parse().map_err(|_| format!("bad reps {reps:?}"))?;
    let written = write_sample(&simulate(workload, seed), Path::new(dir), reps)?;
    println!("{}", written.to_line());
    Ok(())
}

/// Write `sample` under `dir`, encoding the BAL file `reps` times. Only
/// the encode and the disk write are timed; pulling the simulator's
/// records out block by block is not. Every repetition must produce the
/// same bytes count, or the write is reported as an error.
pub fn write_sample(sample: &Sample, dir: &Path, reps: usize) -> Result<Written, String> {
    let bal = dir.join(BAL_NAME);
    let fasta = dir.join(FASTA_NAME);
    let mut fa = Vec::new();
    write_fasta(
        &mut fa,
        &[FastaRecord {
            name: sample.reference.name.clone(),
            seq: sample.reference.seq.clone(),
        }],
        70,
    )
    .map_err(|e| format!("render FASTA: {e}"))?;
    fs::write(&fasta, fa).map_err(|e| format!("{}: {e}", fasta.display()))?;

    let mut write_s = Vec::with_capacity(reps);
    let mut sizes = Vec::with_capacity(reps);
    let mut bases = 0u64;
    let mut n_blocks = 0;
    for _ in 0..reps.max(1) {
        let mut reader = sample.alignments.reader();
        let mut writer = BalWriter::with_options(DEFAULT_BLOCK_CAPACITY, FormatVersion::V3);
        let mut timed = std::time::Duration::ZERO;
        bases = 0;
        for b in 0..sample.alignments.n_blocks() {
            let records = reader
                .decode_block(b)
                .map_err(|e| format!("read sample: {e}"))?;
            bases += records.iter().map(|r| r.seq.len() as u64).sum::<u64>();
            let t0 = Instant::now();
            for rec in records {
                writer.push(rec).map_err(|e| format!("encode: {e}"))?;
            }
            timed += t0.elapsed();
        }
        let t0 = Instant::now();
        let file = writer.finish();
        file.write_to(&bal)
            .map_err(|e| format!("{}: {e}", bal.display()))?;
        timed += t0.elapsed();
        n_blocks = file.n_blocks();
        write_s.push(timed.as_secs_f64());
        sizes.push(fs::metadata(&bal).map_err(|e| e.to_string())?.len());
    }
    if sizes.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "BAL size differs between identical writes: {sizes:?}"
        ));
    }
    Ok(Written {
        bal,
        fasta,
        write_s,
        bal_bytes: sizes[0],
        bases,
        n_blocks,
    })
}

/// Load the first record of a FASTA file as the reference.
pub fn load_reference(path: &Path) -> Result<ReferenceGenome, String> {
    let file = fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let first = read_fasta(BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: empty FASTA", path.display()))?;
    Ok(ReferenceGenome::from_seq(first.name, first.seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_line_round_trips() {
        let w = Written {
            bal: PathBuf::from("d/sample.bal"),
            fasta: PathBuf::from("d/sample.fa"),
            write_s: vec![0.5, 1.0 / 3.0],
            bal_bytes: 1234,
            bases: 99,
            n_blocks: 7,
        };
        let back = Written::from_line(&w.to_line(), Path::new("d")).expect("test input is valid");
        assert_eq!(back.write_s, w.write_s);
        assert_eq!((back.bal_bytes, back.bases, back.n_blocks), (1234, 99, 7));
        assert_eq!((back.bal, back.fasta), (w.bal, w.fasta));
        assert!(Written::from_line("garbage", Path::new("d")).is_none());
    }
}
