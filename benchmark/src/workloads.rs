//! The four workloads: how each builds its SoC from a seed, what one op
//! is, and how each op's output is checked.
//!
//! The seed generates every input (module order, gaps between ops,
//! module and image content); the library code receives only those
//! inputs. Module order is drawn as a seeded permutation per cycle of
//! all choices, so every choice runs equally often and a median over
//! whole cycles does not depend on which choices the seed favoured.

use std::borrow::Borrow;

use rvcap_accel::{paper_filter_library, run_accelerator, FilterKind, Image};
use rvcap_core::drivers::{init_rmodules, DmaMode, HwIcapDriver, ReconfigModule, RvCapDriver};
use rvcap_core::system::{RvCapSoc, SocBuilder};
use rvcap_fabric::bitstream::BitstreamBuilder;
use rvcap_fabric::resources::Resources;
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::RpGeometry;
use rvcap_soc::map::DDR_BASE;

use crate::trace::Tracer;

/// DDR address of the first staged bitstream; one MiB per module.
const STAGE_BASE: u64 = DDR_BASE + 0x40_0000;
const STAGE_STRIDE: u64 = 0x10_0000;
/// Accelerator input and output images.
const IMG_IN: u64 = DDR_BASE + 0x10_0000;
const IMG_OUT: u64 = DDR_BASE + 0x20_0000;
/// Cycle limit for the ICAP to finish after the driver returns.
const SETTLE_LIMIT: u64 = 100_000;
/// Longest simulated CPU gap between ops: 200 µs at 100 MHz.
const MAX_GAP_CYCLES: u64 = 20_000;
/// `T_d + T_r` the paper reports for the 650,892-byte bitstream, µs.
const PAPER_RVCAP_US: f64 = 18.0 + 1651.0;
/// AXI_HWICAP throughput the paper reports, MB/s.
const PAPER_HWICAP_MBS: f64 = 8.2;

/// The workloads, in the order the interleaved run rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// RV-CAP DMA reconfiguration of the paper RP.
    RvcapReconfig,
    /// AXI_HWICAP reconfiguration of RP0 in a 12-partition shell.
    HwicapReconfig,
    /// `init_RModules`: one FAT32 file from SD over SPI into DDR.
    SdStage,
    /// Table IV: reconfigure a filter, then stream an image through it.
    AdaptiveFilter,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::RvcapReconfig,
        Kind::HwicapReconfig,
        Kind::SdStage,
        Kind::AdaptiveFilter,
    ];

    /// Name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RvcapReconfig => "rvcap_reconfig",
            Kind::HwicapReconfig => "hwicap_reconfig",
            Kind::SdStage => "sd_stage",
            Kind::AdaptiveFilter => "adaptive_filter",
        }
    }

    /// Look a workload up by [`Kind::name`].
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Number of distinct inputs one op picks from.
    fn choices(self) -> usize {
        match self {
            Kind::SdStage => 4,
            _ => 3,
        }
    }

    /// Timed ops the simulated metrics and `heap_mb` cover: the first
    /// whole cycles of choices, a fixed prefix, so these metrics do not
    /// depend on how many ops the host managed within the time budget.
    pub fn sim_window(self) -> usize {
        match self {
            Kind::RvcapReconfig | Kind::AdaptiveFilter => 30,
            Kind::HwicapReconfig => 12,
            Kind::SdStage => 8,
        }
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per workload by `salt`.
    fn new(seed: u64, salt: &str) -> Self {
        let mut s = seed ^ 0x5DEE_CE66_D1CE_4E5B;
        for b in salt.bytes() {
            s = (s ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        Rng(s)
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The inputs of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInput {
    /// Which module, file or filter the op uses.
    pub choice: usize,
    /// Simulated CPU cycles the core computes before the op starts.
    pub gap: u64,
}

/// The seeded op sequence of one workload.
pub(crate) struct Schedule {
    kind: Kind,
    rng: Rng,
    cycle: Vec<usize>,
}

impl Schedule {
    /// The sequence for `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Schedule {
            kind,
            rng: Rng::new(seed, kind.name()),
            cycle: Vec::new(),
        }
    }

    /// Inputs of the untimed warm-up op, drawn outside the balanced
    /// cycles so the timed ops start on a whole cycle.
    pub fn warm_up(&mut self) -> OpInput {
        OpInput {
            choice: self.rng.below(self.kind.choices() as u64) as usize,
            gap: self.rng.below(MAX_GAP_CYCLES + 1),
        }
    }

    /// The next timed op's inputs.
    pub fn next_op(&mut self) -> OpInput {
        if self.cycle.is_empty() {
            self.cycle = (0..self.kind.choices()).collect();
            for i in (1..self.cycle.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.cycle.swap(i, j);
            }
        }
        let choice = self.cycle.pop().expect("refilled above");
        OpInput {
            choice,
            gap: self.rng.below(MAX_GAP_CYCLES + 1),
        }
    }
}

/// A bitstream staged in DDR and the image it loads.
struct Staged {
    module: ReconfigModule,
    image_hash: u64,
}

/// What one op produced, for its checks and the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpOut {
    /// `T_d` in CLINT ticks (RV-CAP reconfigurations).
    pub td_ticks: u64,
    /// `T_r` in CLINT ticks; for AXI_HWICAP, its whole transfer.
    pub tr_ticks: u64,
    /// Accelerator `T_c` in CLINT ticks.
    pub tc_ticks: u64,
    /// ICAP loads completed before the op started.
    loads_before: usize,
    /// DDR address and size `init_rmodules` reported.
    staged_at: u64,
    staged_len: u32,
}

/// CLINT `mtime` runs at 5 MHz: five ticks per µs.
const MTIME_TICKS_PER_US: f64 = 5.0;

impl OpOut {
    /// `T_d` in µs.
    pub fn td_us(&self) -> f64 {
        self.td_ticks as f64 / MTIME_TICKS_PER_US
    }

    /// `T_r` in µs.
    pub fn tr_us(&self) -> f64 {
        self.tr_ticks as f64 / MTIME_TICKS_PER_US
    }

    /// `T_c` in µs.
    pub fn tc_us(&self) -> f64 {
        self.tc_ticks as f64 / MTIME_TICKS_PER_US
    }
}

enum Inputs {
    /// Bitstreams staged in DDR (`rvcap_reconfig`, `hwicap_reconfig`).
    Reconfig(Vec<Staged>),
    /// Files on the SD card.
    Sd(Vec<(String, Vec<u8>)>),
    /// Filter bitstreams, the input image and each filter's golden
    /// output.
    Filter {
        staged: Vec<Staged>,
        goldens: Vec<Vec<u8>>,
    },
}

/// One workload's SoC and the inputs generated for it.
pub struct Rig {
    /// Which workload.
    pub kind: Kind,
    /// The system under test.
    pub soc: RvCapSoc,
    inputs: Inputs,
}

impl Borrow<RvCapSoc> for Rig {
    fn borrow(&self) -> &RvCapSoc {
        &self.soc
    }
}

/// Synthesize `names` as modules for RP0 and register them.
fn module_library(names: &[String], frames: usize) -> (RmLibrary, Vec<RmImage>) {
    let mut lib = RmLibrary::new();
    let images: Vec<RmImage> = names
        .iter()
        .map(|n| RmImage::synthesize(n, frames, Resources::new(901, 773, 4, 0)))
        .collect();
    for img in &images {
        lib.register_image(img.clone());
    }
    (lib, images)
}

/// Stage each image's partial bitstream for RP0 in DDR.
fn stage(soc: &RvCapSoc, images: &[RmImage]) -> Vec<Staged> {
    let far = soc.handles.rps[0].far_base;
    images
        .iter()
        .enumerate()
        .map(|(k, img)| {
            let bytes = BitstreamBuilder::kintex7()
                .partial(far, &img.payload)
                .to_bytes();
            let addr = STAGE_BASE + k as u64 * STAGE_STRIDE;
            soc.handles.ddr.write_bytes(addr, &bytes);
            Staged {
                module: ReconfigModule {
                    name: img.name.clone(),
                    rm_number: k as u32,
                    start_address: addr,
                    pbit_size: bytes.len() as u32,
                },
                image_hash: img.hash(),
            }
        })
        .collect()
}

impl Rig {
    /// Build, stage and compute goldens for `kind` under `seed`: the
    /// work `setup_s` times.
    pub fn setup(kind: Kind, seed: u64) -> Rig {
        let mut rng = Rng::new(seed, "inputs");
        let mut names = |prefix: &str, n: usize| -> Vec<String> {
            (0..n)
                .map(|k| format!("{prefix}{k}_{:08x}", rng.next_u64() as u32))
                .collect()
        };
        match kind {
            Kind::RvcapReconfig => {
                let geometry = RpGeometry::paper_rp();
                let (lib, images) = module_library(&names("RM", 3), geometry.frames());
                let soc = SocBuilder::new()
                    .with_rps(vec![geometry])
                    .with_library(lib)
                    .build();
                let staged = stage(&soc, &images);
                Rig {
                    kind,
                    soc,
                    inputs: Inputs::Reconfig(staged),
                }
            }
            Kind::HwicapReconfig => {
                // The paper RP plus eleven idle partitions whose isolators
                // and module hosts stay registered: kernel cost that grows
                // with every registered component shows here.
                let mut rps = vec![RpGeometry::paper_rp()];
                rps.extend((1..12).map(|_| RpGeometry::scaled(2, 0, 0)));
                let (lib, images) = module_library(&names("HW", 3), rps[0].frames());
                let soc = SocBuilder::new().with_rps(rps).with_library(lib).build();
                let staged = stage(&soc, &images);
                Rig {
                    kind,
                    soc,
                    inputs: Inputs::Reconfig(staged),
                }
            }
            Kind::SdStage => {
                // Four partial bitstreams of 1, 4/3, 5/3 and 2 times the
                // scaled(2,0,0) partition's frame count.
                let base = RpGeometry::scaled(2, 0, 0).frames();
                let names = names("SD", 4);
                let files: Vec<(String, Vec<u8>)> = names
                    .iter()
                    .enumerate()
                    .map(|(k, n)| {
                        let img = RmImage::synthesize(n, base * (3 + k) / 3, Resources::ZERO);
                        let bytes = BitstreamBuilder::kintex7()
                            .partial(0, &img.payload)
                            .to_bytes();
                        (format!("MOD{k}.PBI"), bytes)
                    })
                    .collect();
                let mut b = SocBuilder::new();
                for (name, bytes) in &files {
                    b = b.with_sd_file(name, bytes.clone());
                }
                Rig {
                    kind,
                    soc: b.build(),
                    inputs: Inputs::Sd(files),
                }
            }
            Kind::AdaptiveFilter => {
                let lib = paper_filter_library();
                let images: Vec<RmImage> = FilterKind::ALL
                    .iter()
                    .map(|k| lib.by_name(k.name()).expect("filter registered").clone())
                    .collect();
                let soc = SocBuilder::new().with_library(lib).build();
                let staged = stage(&soc, &images);
                let dim = Image::PAPER_DIM;
                let input = Image::noise(dim, dim, rng.next_u64());
                soc.handles.ddr.write_bytes(IMG_IN, input.as_bytes());
                let goldens = FilterKind::ALL
                    .iter()
                    .map(|k| k.golden(&input).as_bytes().to_vec())
                    .collect();
                Rig {
                    kind,
                    soc,
                    inputs: Inputs::Filter { staged, goldens },
                }
            }
        }
    }

    /// Payload bytes one op moves: the bitstream; the file; or the
    /// bitstream plus the image in and the image out.
    pub fn payload_bytes(&self, op: &OpInput) -> u64 {
        match &self.inputs {
            Inputs::Reconfig(s) => s[op.choice].module.pbit_size as u64,
            Inputs::Sd(files) => files[op.choice].1.len() as u64,
            Inputs::Filter { staged, goldens } => {
                staged[op.choice].module.pbit_size as u64 + 2 * goldens[op.choice].len() as u64
            }
        }
    }

    /// The paper's simulated time for this op in µs, where it reports
    /// one: `T_d + T_r`; bytes at 8.2 MB/s; Table IV `T_ex`.
    pub fn paper_us(&self, op: &OpInput) -> Option<f64> {
        match self.kind {
            Kind::RvcapReconfig => Some(PAPER_RVCAP_US),
            Kind::HwicapReconfig => Some(self.payload_bytes(op) as f64 / PAPER_HWICAP_MBS),
            Kind::SdStage => None,
            Kind::AdaptiveFilter => Some([2275.0, 2267.0, 2257.0][op.choice]),
        }
    }

    /// Untimed preparation: the seeded gap, and clearing every output
    /// region the op's check reads, so a stale result cannot pass.
    pub fn prepare(&mut self, op: &OpInput) {
        let ddr = &self.soc.handles.ddr;
        match &self.inputs {
            Inputs::Reconfig(_) => {}
            Inputs::Sd(files) => ddr.write_bytes(STAGE_BASE, &vec![0; files[op.choice].1.len()]),
            Inputs::Filter { goldens, .. } => {
                ddr.write_bytes(IMG_OUT, &vec![0; goldens[op.choice].len()])
            }
        }
        self.soc.core.compute(op.gap);
    }

    /// The timed op. Panics inside the library (a stalled wait, a bus
    /// error) propagate to the caller, which counts the op as failed.
    pub fn run_op(&mut self, op: &OpInput, tr: &mut Tracer) -> Result<OpOut, String> {
        let mut out = OpOut {
            loads_before: self.soc.handles.icap.load_count(),
            ..OpOut::default()
        };
        match &self.inputs {
            Inputs::Reconfig(staged) if self.kind == Kind::RvcapReconfig => {
                rvcap_reconfigure(&mut self.soc, tr, &staged[op.choice].module, &mut out)?;
            }
            Inputs::Reconfig(staged) => {
                let module = &staged[op.choice].module;
                out.tr_ticks = tr.span(
                    "core.drivers.hwicap.init_reconfig_process",
                    &mut self.soc,
                    |soc, _| {
                        let ddr = soc.handles.ddr.clone();
                        HwIcapDriver::with_unroll(16).init_reconfig_process(
                            &mut soc.core,
                            &ddr,
                            module,
                            0,
                        )
                    },
                );
                settle(&mut self.soc, tr, out.loads_before)?;
            }
            Inputs::Sd(files) => {
                let name = files[op.choice].0.as_str();
                let modules = tr.span("core.drivers.init_rmodules", &mut self.soc, |soc, _| {
                    let ddr = soc.handles.ddr.clone();
                    init_rmodules(&mut soc.core, &ddr, STAGE_BASE, &[name])
                });
                let m = modules.first().ok_or("init_rmodules staged nothing")?;
                (out.staged_at, out.staged_len) = (m.start_address, m.pbit_size);
            }
            Inputs::Filter { staged, goldens } => {
                rvcap_reconfigure(&mut self.soc, tr, &staged[op.choice].module, &mut out)?;
                let len = goldens[op.choice].len() as u32;
                out.tc_ticks = tr.span("accel.run_accelerator", &mut self.soc, |soc, _| {
                    let plic = soc.handles.plic.clone();
                    run_accelerator(&mut soc.core, &plic, 0, IMG_IN, IMG_OUT, len)
                });
            }
        }
        Ok(out)
    }

    /// Check the op's output; `Err` names the first mismatch.
    pub fn verify(&self, op: &OpInput, out: &OpOut) -> Result<(), String> {
        let h = &self.soc.handles;
        let audit = self.soc.core.sim.mmio_audit();
        if audit.violations() != 0 {
            return Err(format!("MMIO/protocol violations: {audit:?}"));
        }
        match &self.inputs {
            Inputs::Reconfig(staged) => self.verify_load(&staged[op.choice], out),
            Inputs::Sd(files) => {
                let want = &files[op.choice].1;
                if out.staged_len as usize != want.len() {
                    return Err(format!("staged {} of {} bytes", out.staged_len, want.len()));
                }
                if h.ddr.read_bytes(out.staged_at, want.len()) != *want {
                    return Err("staged bytes differ from the SD file".into());
                }
                Ok(())
            }
            Inputs::Filter { staged, goldens } => {
                self.verify_load(&staged[op.choice], out)?;
                let want = &goldens[op.choice];
                if h.ddr.read_bytes(IMG_OUT, want.len()) != *want {
                    return Err(format!(
                        "{} output differs from the golden filter",
                        staged[op.choice].module.name
                    ));
                }
                Ok(())
            }
        }
    }

    fn verify_load(&self, s: &Staged, out: &OpOut) -> Result<(), String> {
        let h = &self.soc.handles;
        let rp = &h.rps[0];
        if h.icap.load_count() != out.loads_before + 1 {
            return Err(format!(
                "{} ICAP loads during the op, expected 1",
                h.icap.load_count() - out.loads_before
            ));
        }
        let load = h.icap.last_load().ok_or("no ICAP load recorded")?;
        if !load.crc_ok || load.far_start != rp.far_base {
            return Err(format!("bad ICAP load: {load:?}"));
        }
        if h.config_mem.range_hash(rp.far_base, rp.frames()) != Some(s.image_hash) {
            return Err(format!(
                "RP0 configuration does not hash to {}",
                s.module.name
            ));
        }
        let active = h.rm_hosts[0].active_module();
        if active.as_deref() != Some(s.module.name.as_str()) {
            return Err(format!(
                "RP0 active module {active:?}, expected {}",
                s.module.name
            ));
        }
        Ok(())
    }
}

/// RV-CAP reconfiguration in the paper's non-blocking mode, then the
/// ICAP settle; records `T_d` and `T_r` in `out`.
fn rvcap_reconfigure(
    soc: &mut RvCapSoc,
    tr: &mut Tracer,
    module: &ReconfigModule,
    out: &mut OpOut,
) -> Result<(), String> {
    let t = tr.span("core.drivers.init_reconfig_process", soc, |soc, _| {
        RvCapDriver::new(0, soc.handles.plic.clone()).init_reconfig_process(
            &mut soc.core,
            module,
            DmaMode::NonBlocking,
        )
    });
    (out.td_ticks, out.tr_ticks) = (t.td_ticks, t.tr_ticks);
    settle(soc, tr, out.loads_before)
}

/// Wait for the ICAP to finish the load the driver started.
fn settle(soc: &mut RvCapSoc, tr: &mut Tracer, loads_before: usize) -> Result<(), String> {
    tr.span("soc.wait_until", soc, |soc, _| {
        let icap = soc.handles.icap.clone();
        soc.core
            .wait_until(SETTLE_LIMIT, || {
                !icap.busy() && icap.load_count() > loads_before
            })
            .map(|_| ())
            .map_err(|r| format!("ICAP settle stalled: {r}"))
    })
}
