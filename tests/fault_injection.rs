//! Fault injection: corrupted, truncated, mis-targeted and mis-sized
//! bitstreams; traffic during decoupling; bus errors. A DPR controller
//! that only works on the happy path is not a controller.

use rvcap_repro::accel::library::filter_library;
use rvcap_repro::accel::{FilterKind, Image};
use rvcap_repro::core::drivers::{DmaMode, ReconfigModule, RvCapDriver};
use rvcap_repro::core::system::{RvCapSoc, SocBuilder};
use rvcap_repro::fabric::bitstream::BitstreamBuilder;
use rvcap_repro::fabric::icap::IcapAbort;
use rvcap_repro::fabric::resources::Resources;
use rvcap_repro::fabric::rm::RmImage;
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::soc::map::DDR_BASE;

const DIM: usize = 16;
const STAGE: u64 = DDR_BASE + 0x40_0000;

fn rig() -> (RvCapSoc, RmImage) {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let img = library.by_name("Sobel").unwrap().clone();
    let soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .build();
    (soc, img)
}

fn stage_and_reconfig(soc: &mut RvCapSoc, bytes: &[u8]) {
    soc.handles.ddr.write_bytes(STAGE, bytes);
    let module = ReconfigModule {
        name: "X".into(),
        rm_number: 0,
        start_address: STAGE,
        pbit_size: bytes.len() as u32,
    };
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    // Bounded settle: a truncated stream legitimately leaves the ICAP
    // mid-load (waiting for words that never come), so don't insist on
    // idle — just give the trailer time to drain.
    let icap = soc.handles.icap.clone();
    for _ in 0..512 {
        if !icap.busy() {
            break;
        }
        soc.core.compute(16);
    }
}

#[test]
fn corrupted_bitstream_never_activates() {
    let (mut soc, img) = rig();
    let bs = BitstreamBuilder::kintex7().partial(soc.handles.rps[0].far_base, &img.payload);
    let mut bytes = bs.to_bytes();
    let n = bytes.len();
    bytes[n / 3] ^= 0x80;
    stage_and_reconfig(&mut soc, &bytes);
    let rec = soc.handles.icap.last_load().unwrap();
    assert!(!rec.crc_ok);
    assert_eq!(rec.abort, Some(IcapAbort::CrcMismatch));
    assert_eq!(soc.handles.icap.abort_count(), 1);
    assert_eq!(soc.handles.rm_hosts[0].active_module(), None);
}

#[test]
fn corrupt_load_disables_previously_working_module() {
    let (mut soc, img) = rig();
    let good = BitstreamBuilder::kintex7()
        .partial(soc.handles.rps[0].far_base, &img.payload)
        .to_bytes();
    stage_and_reconfig(&mut soc, &good);
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("Sobel")
    );
    // Now a corrupted reload: the partition must go dark, not keep
    // the stale function silently.
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x01;
    stage_and_reconfig(&mut soc, &bad);
    assert_eq!(soc.handles.rm_hosts[0].active_module(), None);
    // And a good reload recovers it.
    stage_and_reconfig(&mut soc, &good);
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("Sobel")
    );
}

#[test]
fn wrong_device_bitstream_rejected_before_any_frame() {
    let (mut soc, img) = rig();
    let writes_before = soc.handles.config_mem.total_writes();
    let bs = BitstreamBuilder::new(0x0BAD_CAFE).partial(soc.handles.rps[0].far_base, &img.payload);
    stage_and_reconfig(&mut soc, &bs.to_bytes());
    assert_eq!(soc.handles.icap.abort_count(), 1);
    assert_eq!(
        soc.handles.icap.last_load().unwrap().abort,
        Some(IcapAbort::IdcodeMismatch)
    );
    assert_eq!(
        soc.handles.config_mem.total_writes(),
        writes_before,
        "no frame may be written on an IDCODE mismatch"
    );
}

/// `ConfigMem::write_frame` panics on a FAR past the device and
/// relies on the ICAP's range check: a load that starts on the last
/// frame must commit that one frame, then abort cleanly.
#[test]
fn far_past_configuration_memory_aborts_after_the_last_frame() {
    let (mut soc, img) = rig();
    let last = soc.handles.config_mem.total_frames() as u32 - 1;
    assert_eq!(last, 199_999);
    let writes_before = soc.handles.config_mem.total_writes();
    let bs = BitstreamBuilder::kintex7().partial(last, &img.payload);
    stage_and_reconfig(&mut soc, &bs.to_bytes());
    let rec = soc.handles.icap.last_load().unwrap();
    assert_eq!(rec.abort, Some(IcapAbort::FarOutOfRange));
    assert!(!rec.crc_ok);
    assert_eq!((rec.far_start, rec.frames), (last, 1));
    assert_eq!(soc.handles.config_mem.total_writes(), writes_before + 1);
    assert_eq!(soc.handles.rm_hosts[0].active_module(), None);
    let audit = soc.core.sim.mmio_audit();
    assert_eq!(audit.violations(), 0, "{audit:?}");
}

#[test]
fn truncated_bitstream_leaves_partition_inactive() {
    let (mut soc, img) = rig();
    let full = BitstreamBuilder::kintex7()
        .partial(soc.handles.rps[0].far_base, &img.payload)
        .to_bytes();
    let cut = &full[..full.len() / 2];
    stage_and_reconfig(&mut soc, cut);
    // The ICAP never saw DESYNC: still mid-load (busy would need more
    // words), and nothing activated.
    assert_eq!(soc.handles.rm_hosts[0].active_module(), None);
}

#[test]
fn bitstream_for_a_different_partition_does_not_activate_this_one() {
    let (mut soc, img) = rig();
    // Valid bitstream, wrong FAR (a region outside RP0).
    let far = soc.handles.rps[0].far_base + 5000;
    let bs = BitstreamBuilder::kintex7().partial(far, &img.payload);
    stage_and_reconfig(&mut soc, &bs.to_bytes());
    let rec = soc.handles.icap.last_load().unwrap();
    assert!(rec.crc_ok, "the load itself is valid");
    assert_eq!(soc.handles.rm_hosts[0].active_module(), None);
}

#[test]
fn decoupled_partition_blocks_but_preserves_in_flight_data() {
    let (mut soc, img) = rig();
    let good = BitstreamBuilder::kintex7()
        .partial(soc.handles.rps[0].far_base, &img.payload)
        .to_bytes();
    stage_and_reconfig(&mut soc, &good);

    // Start an acceleration run, then decouple mid-flight.
    let input = Image::noise(DIM, DIM, 3);
    let in_addr = DDR_BASE + 0x30_0000;
    let out_addr = DDR_BASE + 0x38_0000;
    soc.handles.ddr.write_bytes(in_addr, input.as_bytes());

    // Program the accelerator DMA manually but decouple before the
    // stream drains: beats must be *held*, not dropped.
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    use rvcap_repro::core::dma::*;
    use rvcap_repro::soc::map::DMA_BASE;
    driver.select_icap(&mut soc.core, false);
    soc.core
        .write_reg(DMA_BASE + S2MM_DMACR, CR_RS | CR_IOC_IRQ_EN);
    use rvcap_repro::soc::map::{IRQ_DMA_S2MM, PLIC_BASE, PLIC_ENABLE};
    let en = soc.core.read_reg(PLIC_BASE + PLIC_ENABLE);
    soc.core
        .write_reg(PLIC_BASE + PLIC_ENABLE, en | (1 << IRQ_DMA_S2MM));
    soc.core.write_reg(DMA_BASE + S2MM_DA, out_addr as u32);
    soc.core
        .write_reg(DMA_BASE + S2MM_DA_MSB, (out_addr >> 32) as u32);
    soc.core
        .write_reg(DMA_BASE + S2MM_LENGTH, (DIM * DIM) as u32);
    soc.core.write_reg(DMA_BASE + MM2S_DMACR, CR_RS);
    soc.core.write_reg(DMA_BASE + MM2S_SA, in_addr as u32);
    soc.core
        .write_reg(DMA_BASE + MM2S_SA_MSB, (in_addr >> 32) as u32);
    soc.core
        .write_reg(DMA_BASE + MM2S_LENGTH, (DIM * DIM) as u32);
    // Let a few beats through, then decouple for a while.
    soc.core.compute(40);
    driver.decouple_accel(&mut soc.core, true);
    soc.core.compute(2000);
    driver.decouple_accel(&mut soc.core, false);
    // The stream resumes and the output is still exactly golden.
    let plic = soc.handles.plic.clone();
    soc.core
        .wait_until(1_000_000, || {
            plic.is_pending(rvcap_repro::soc::map::IRQ_DMA_S2MM)
        })
        .unwrap();
    // The IOC raises when the final posted write is *issued*; give the
    // DDR write pipe its few cycles to commit (a real handler's
    // claim/complete path covers this many times over).
    soc.core.compute(64);
    assert_eq!(
        soc.handles.ddr.read_bytes(out_addr, DIM * DIM),
        FilterKind::Sobel.golden(&input).as_bytes(),
        "decoupling must stall, never corrupt"
    );
}

#[test]
fn stalled_wait_returns_report_instead_of_panicking() {
    let (mut soc, img) = rig();
    let good = BitstreamBuilder::kintex7()
        .partial(soc.handles.rps[0].far_base, &img.payload)
        .to_bytes();
    stage_and_reconfig(&mut soc, &good);

    // Start an acceleration transfer, then decouple the partition and
    // *leave* it decoupled: the S2MM completion interrupt can never
    // fire, so the wait must give up at its limit — with a diagnosis,
    // not a panic.
    let input = Image::noise(DIM, DIM, 3);
    let in_addr = DDR_BASE + 0x30_0000;
    let out_addr = DDR_BASE + 0x38_0000;
    soc.handles.ddr.write_bytes(in_addr, input.as_bytes());
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    use rvcap_repro::core::dma::*;
    use rvcap_repro::soc::map::DMA_BASE;
    driver.select_icap(&mut soc.core, false);
    soc.core
        .write_reg(DMA_BASE + S2MM_DMACR, CR_RS | CR_IOC_IRQ_EN);
    {
        use rvcap_repro::soc::map::{IRQ_DMA_S2MM, PLIC_BASE, PLIC_ENABLE};
        let en = soc.core.read_reg(PLIC_BASE + PLIC_ENABLE);
        soc.core
            .write_reg(PLIC_BASE + PLIC_ENABLE, en | (1 << IRQ_DMA_S2MM));
    }
    soc.core.write_reg(DMA_BASE + S2MM_DA, out_addr as u32);
    soc.core
        .write_reg(DMA_BASE + S2MM_DA_MSB, (out_addr >> 32) as u32);
    soc.core
        .write_reg(DMA_BASE + S2MM_LENGTH, (DIM * DIM) as u32);
    soc.core.write_reg(DMA_BASE + MM2S_DMACR, CR_RS);
    soc.core.write_reg(DMA_BASE + MM2S_SA, in_addr as u32);
    soc.core
        .write_reg(DMA_BASE + MM2S_SA_MSB, (in_addr >> 32) as u32);
    driver.decouple_accel(&mut soc.core, true);
    soc.core
        .write_reg(DMA_BASE + MM2S_LENGTH, (DIM * DIM) as u32);

    let plic = soc.handles.plic.clone();
    let start = soc.core.now();
    let report = soc
        .core
        .wait_until(50_000, || {
            plic.is_pending(rvcap_repro::soc::map::IRQ_DMA_S2MM)
        })
        .unwrap_err();
    assert_eq!(report.limit, 50_000);
    assert_eq!(report.start, start);
    assert!(report.cycle >= start + 50_000, "gave up early");
    assert!(
        report.busy.iter().any(|n| n.contains("dma")),
        "the stalled DMA should be reported busy, got {:?}",
        report.busy
    );
    let rendered = report.to_string();
    assert!(rendered.contains("stalled"), "unhelpful report: {rendered}");

    // The stall is recoverable: recouple and the transfer completes.
    driver.decouple_accel(&mut soc.core, false);
    soc.core
        .wait_until(1_000_000, || {
            plic.is_pending(rvcap_repro::soc::map::IRQ_DMA_S2MM)
        })
        .unwrap();
    soc.core.compute(64);
    assert_eq!(
        soc.handles.ddr.read_bytes(out_addr, DIM * DIM),
        FilterKind::Sobel.golden(&input).as_bytes(),
        "recoupling must resume the stalled stream losslessly"
    );
}

#[test]
fn cpu_bus_error_on_unmapped_address() {
    let (mut soc, _) = rig();
    let err = soc.core.try_mmio_read(0x6000_0000, 4).unwrap_err();
    assert_eq!(err.addr, 0x6000_0000);
    // The system remains usable afterwards.
    let v = soc
        .core
        .mmio_read(rvcap_repro::soc::map::CLINT_BASE + 0xBFF8, 8);
    assert!(v < u64::MAX);
}

/// A reconfiguration transfer whose source address decodes to no slave
/// ends in a DMASR error the driver can read, not in a silent stall:
/// the fetch bus error halts MM2S with DMADecErr and the ICAP never
/// sees a word.
#[test]
fn dma_fetch_from_unmapped_address_sets_dmasr_error() {
    use rvcap_repro::core::dma::*;
    use rvcap_repro::soc::map::{DDR_DEFAULT_SIZE, DMA_BASE};

    let (mut soc, _) = rig();
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    driver.decouple_accel(&mut soc.core, true);
    driver.select_icap(&mut soc.core, true);
    driver.dma_config(&mut soc.core, DmaMode::NonBlocking);
    // One byte past the end of DDR: no crossbar region claims it.
    driver.dma_write_stream(&mut soc.core, DDR_BASE + DDR_DEFAULT_SIZE, 4096);

    let mut sr = 0;
    for _ in 0..2_000 {
        sr = soc.core.read_reg(DMA_BASE + MM2S_DMASR);
        if sr & SR_HALTED != 0 {
            break;
        }
    }
    assert_ne!(sr & SR_HALTED, 0, "MM2S never halted: DMASR {sr:#x}");
    assert_ne!(sr & SR_DMA_DEC_ERR, 0, "DMADecErr missing: DMASR {sr:#x}");
    assert_eq!(sr & (SR_IDLE | SR_IOC), 0, "no completion: DMASR {sr:#x}");
    assert_eq!(soc.core.read_reg(DMA_BASE + MM2S_DMACR) & CR_RS, 0);
    assert!(
        !soc.handles
            .plic
            .is_pending(rvcap_repro::soc::map::IRQ_DMA_MM2S),
        "no completion interrupt for an aborted transfer"
    );
    assert_eq!(soc.handles.icap.words_consumed(), 0);
    assert_eq!(soc.handles.rm_hosts[0].active_module(), None);
}

/// A transfer whose source address is a register window (here the
/// AXI_HWICAP's) sends DMA bursts down an AXI4-Lite path. The register
/// file answers each burst with one error beat and counts it in the
/// MMIO audit; MM2S halts with DMADecErr, as for an unmapped address.
#[test]
fn dma_burst_into_a_register_window_sets_dmasr_error() {
    use rvcap_repro::core::dma::*;
    use rvcap_repro::soc::map::{DMA_BASE, HWICAP_BASE};

    let (mut soc, _) = rig();
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    driver.decouple_accel(&mut soc.core, true);
    driver.select_icap(&mut soc.core, true);
    driver.dma_config(&mut soc.core, DmaMode::NonBlocking);
    driver.dma_write_stream(&mut soc.core, HWICAP_BASE, 4096);

    let mut sr = 0;
    for _ in 0..2_000 {
        sr = soc.core.read_reg(DMA_BASE + MM2S_DMASR);
        if sr & SR_HALTED != 0 {
            break;
        }
    }
    assert_eq!(
        sr,
        SR_HALTED | SR_DMA_DEC_ERR,
        "MM2S halts on the error beat: DMASR {sr:#x}"
    );
    assert_eq!(soc.core.read_reg(DMA_BASE + MM2S_DMACR) & CR_RS, 0);
    // Both bursts the DMA had in flight reached the register file.
    assert_eq!(soc.core.sim.mmio_audit().bursts, 2);
    assert_eq!(soc.handles.icap.words_consumed(), 0);
    assert_eq!(soc.handles.rm_hosts[0].active_module(), None);
}

#[test]
fn oversized_module_rejected_by_partition_check() {
    let (soc, _) = rig();
    let rp = &soc.handles.rps[0];
    let hungry = RmImage::synthesize("HUNGRY", rp.frames(), Resources::new(100_000, 0, 0, 0));
    assert!(
        !rp.accepts(&hungry),
        "a module larger than the partition must not be accepted"
    );
}
