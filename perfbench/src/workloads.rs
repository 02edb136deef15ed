//! The benchmark's workloads. Each names one simulator run (a paper
//! server clone) and one live traffic mix over images made with
//! `serve mkdisk`; README.md says why each exists.

use forhdc_workload::ServerKind;

/// How the live client picks the blocks of a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadShape {
    /// The whole file from offset 0.
    WholeFile,
    /// One block at a uniformly drawn offset.
    OneBlock,
}

/// The simulator half of a workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub kind: ServerKind,
    /// Striping unit, KB.
    pub unit_kb: u32,
    /// RAID1/0 array with one member outage and a paced rebuild.
    pub mirror: bool,
    /// The committed results CSV whose `segm`/`for_hdc` cells at this
    /// striping unit the default seed must reproduce.
    pub oracle: Option<&'static str>,
}

/// The live half of a workload: the image `serve mkdisk` builds and the
/// closed-loop traffic run against `serve run`.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub disks: u16,
    pub unit_blocks: u32,
    pub files: u32,
    pub file_blocks: u32,
    pub zipf_alpha: f64,
    pub shape: ReadShape,
    /// HDC per disk, KB (`serve run --hdc`).
    pub hdc_kb: u64,
    /// `mkdisk --mirror 1`: member 1 is held offline through the
    /// measured phase while member 2 is rebuilt from its twin.
    pub mirror: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub sim: SimSpec,
    pub live: LiveSpec,
}

/// Live mirror scenario: the member held offline, the member rebuilt
/// as background copy traffic, and the rebuild pacing cap. The pace
/// keeps the share of reads that wait behind a rebuild chunk well
/// under 1 %: near 1 % (32-64 MB/s) p99 flips between the normal tail
/// and the copy wait from run to run.
pub const OFFLINE_MEMBER: u16 = 1;
pub const REBUILT_MEMBER: u16 = 2;
pub const REBUILD_MBPS: u64 = 16;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "web-hot",
        sim: SimSpec {
            kind: ServerKind::Web,
            unit_kb: 16,
            mirror: false,
            oracle: Some("results/fig7.csv"),
        },
        // 512 files x 6 blocks: the image fits in four 4 MB controller
        // memories, a 2 MB HDC each pinning the hottest files.
        live: LiveSpec {
            disks: 4,
            unit_blocks: 4,
            files: 512,
            file_blocks: 6,
            zipf_alpha: 0.6,
            shape: ReadShape::WholeFile,
            hdc_kb: 2048,
            mirror: false,
        },
    },
    Workload {
        name: "file-cold",
        sim: SimSpec {
            kind: ServerKind::File,
            unit_kb: 128,
            mirror: false,
            oracle: Some("results/fig11.csv"),
        },
        // 960 files x 128 blocks = 480 MB: 30x the four controller
        // memories, small enough to stay in the host's page cache.
        live: LiveSpec {
            disks: 4,
            unit_blocks: 32,
            files: 960,
            file_blocks: 128,
            zipf_alpha: 0.43,
            shape: ReadShape::OneBlock,
            hdc_kb: 2048,
            mirror: false,
        },
    },
    Workload {
        name: "mirror-rebuild",
        sim: SimSpec {
            kind: ServerKind::Web,
            unit_kb: 16,
            mirror: true,
            oracle: None,
        },
        // Two replica pairs of 4096 6-block files (48 MB per member):
        // large enough that a paced rebuild keeps copying through the
        // measured phase.
        live: LiveSpec {
            disks: 4,
            unit_blocks: 4,
            files: 4096,
            file_blocks: 6,
            zipf_alpha: 0.6,
            shape: ReadShape::WholeFile,
            hdc_kb: 2048,
            mirror: true,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
