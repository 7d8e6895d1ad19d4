//! The SoC builder: assembles Fig. 1 + Fig. 2 into a runnable system.
//!
//! One builder produces the complete FPGA-based RISC-V SoC of the
//! paper: Ariane-class CPU host, 64-bit AXI-4 crossbar, boot memory,
//! CLINT, PLIC, UART, SPI + SD card, DDR, the RV-CAP controller (DMA,
//! stream switch, AXIS2ICAP bridge, RP control interface, PR
//! isolators) **and** the AXI_HWICAP baseline — both reconfiguration
//! paths coexist behind distinct register windows, so the comparison
//! experiments run on one system image. (The paper deployed them as
//! two separate builds; coexistence changes no timing because the idle
//! controller generates no traffic.)
//!
//! ### Modelling notes
//!
//! * The paper's "additional crossbar" between the DMA and the DDR
//!   controller is folded into the main crossbar as an extra master
//!   port: same arbitration semantics, one hop — and the CPU does not
//!   touch DDR during a transfer, so the contention behaviour is
//!   unchanged.
//! * The 64→32 width and AXI4→AXI4-Lite protocol converters in front
//!   of the HWICAP and DMA register files are latency on those two
//!   crossbar lanes ([`SlaveRegion::behind_lite_converter`]), not
//!   components. The drivers reach these register files only through
//!   the CPU's blocking accesses, one at a time, and for those the
//!   lanes give exactly the cycles separate converter blocks would.
//! * The AXIS2ICAP block (Fig. 2 ⑤) is a plain 64→32 [`Narrower`]
//!   registered as `axis2icap`. The paper: "The AXIS2ICAP block … is
//!   responsible for converting a 64-bit data word fetched from the DDR
//!   memory into two 32-bit data words, which are written in order to
//!   the ICAP data port. Besides, the valid stream signal is inverted
//!   and connected to the ICAP data port. The R/W select input port is
//!   permanently set to zero." (§III-B ⑤) The ICAP's active-low
//!   controls (CSIB = inverted valid, RDWRB = 0, write mode) have no
//!   cycle-level consequence — the ICAP samples a word whenever CSIB is
//!   low — so only the narrowing is modelled.
//! * Registration order follows dataflow (DDR → crossbar → DMA →
//!   switch → bridge → ICAP) so the hot path forwards same-cycle,
//!   modelling the fully synchronous pipeline of the RTL design.

use std::rc::Rc;

use rvcap_axi::crossbar::{Crossbar, RamSlave, SlaveRegion};
use rvcap_axi::isolator::StreamIsolator;
use rvcap_axi::mm::link;
use rvcap_axi::sanitizer::{watch_mm_link, watch_stream, watch_stream_gated};
use rvcap_axi::switch::StreamSwitch;
use rvcap_axi::width::Narrower;
use rvcap_axi::AxisChannel;
use rvcap_fabric::bitstream::{BitstreamBuilder, KINTEX7_IDCODE};
use rvcap_fabric::config_mem::ConfigMem;
use rvcap_fabric::host::{RmHost, RmHostHandle};
use rvcap_fabric::icap::{Icap, IcapHandle};
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::{Rp, RpGeometry};
use rvcap_sim::sanitizer::Sanitizer;
use rvcap_sim::vcd::{VcdHandle, VcdRecorder};
use rvcap_sim::{Fifo, Freq, Signal, Simulator};
use rvcap_soc::clint::{Clint, ClintHandle};
use rvcap_soc::cpu::SocCore;
use rvcap_soc::ddr::{Ddr, DdrConfig, DdrHandle};
use rvcap_soc::map::*;
use rvcap_soc::plic::{Plic, PlicHandle};
use rvcap_soc::spi::{Spi, SpiHandle};
use rvcap_soc::uart::{Uart, UartHandle};
use rvcap_storage::{Fat32Volume, MemBlockDevice, SdCard};

use crate::dma::XilinxDma;
use crate::drivers::ReconfigModule;
use crate::hwicap::AxiHwicap;
use crate::rp_ctrl::RpController;
use crate::switch_ctrl::SwitchCtrl;

/// Frames of configuration memory: the simulated device's whole
/// configuration address space.
const CONFIG_FRAMES: usize = 200_000;

/// Handles into the built system for drivers, tests and benches.
pub struct SocHandles {
    /// DDR backdoor.
    pub ddr: DdrHandle,
    /// CLINT observer (the 5 MHz measurement timer).
    pub clint: ClintHandle,
    /// PLIC observer.
    pub plic: PlicHandle,
    /// UART transmit log.
    pub uart: UartHandle,
    /// SPI statistics.
    pub spi: SpiHandle,
    /// ICAP load records.
    pub icap: IcapHandle,
    /// Raw configuration memory.
    pub config_mem: ConfigMem,
    /// Per-partition host state (active module).
    pub rm_hosts: Vec<RmHostHandle>,
    /// Per-partition decouple lines (driven by the RP controller).
    pub decouple: Vec<Signal<bool>>,
    /// The placed partitions.
    pub rps: Vec<Rp>,
    /// The registered module library.
    pub library: Rc<RmLibrary>,
    /// Waveform dump (present when built `with_vcd`).
    pub vcd: Option<VcdHandle>,
    /// Bus sanitizer (present when built `with_sanitizer` or under
    /// `RVCAP_STRICT`): every MM link and stream channel in the system
    /// is under protocol watch; violations surface in the
    /// [`rvcap_sim::MmioAudit::protocol`] count of
    /// [`rvcap_sim::Simulator::mmio_audit`] and in
    /// [`rvcap_sim::StallReport::protocol_violations`].
    pub sanitizer: Option<Sanitizer>,
}

/// A built system: the CPU host plus its handles.
pub struct RvCapSoc {
    /// The CPU driver host (owns the simulator).
    pub core: SocCore,
    /// Observation/driver handles.
    pub handles: SocHandles,
}

impl RvCapSoc {
    /// Stage `image`'s partial bitstream for partition `rp` in DDR at
    /// `addr` and return its descriptor. The write is a backdoor, so no
    /// simulated time passes; [`crate::drivers::init_rmodules`] is the
    /// paper's SD path. Panics if `image` is not in the library.
    pub fn stage_module(&self, rp: usize, image: &RmImage, addr: u64) -> ReconfigModule {
        let rm_number = self
            .handles
            .library
            .images()
            .position(|i| i.name == image.name)
            .unwrap_or_else(|| panic!("{} is not in the library", image.name));
        let bytes = BitstreamBuilder::kintex7()
            .partial(self.handles.rps[rp].far_base, &image.payload)
            .to_bytes();
        self.handles.ddr.write_bytes(addr, &bytes);
        ReconfigModule {
            name: image.name.clone(),
            rm_number: rm_number as u32,
            start_address: addr,
            pbit_size: bytes.len() as u32,
        }
    }
}

/// Builder for the full SoC.
pub struct SocBuilder {
    rp_geometries: Vec<RpGeometry>,
    library: RmLibrary,
    hwicap_fifo_depth: usize,
    dma_burst_beats: u16,
    sd_files: Vec<(String, Vec<u8>)>,
    stream_depth: Option<usize>,
    spi_clkdiv: u32,
    compressed_loader: bool,
    vcd: bool,
    sanitize: bool,
}

impl Default for SocBuilder {
    fn default() -> Self {
        SocBuilder::new()
    }
}

impl SocBuilder {
    /// A builder with the paper's defaults: one paper-sized RP, DMA
    /// burst 16, HWICAP FIFO 1024, 25 MHz SPI.
    pub fn new() -> Self {
        SocBuilder {
            rp_geometries: vec![RpGeometry::paper_rp()],
            library: RmLibrary::new(),
            hwicap_fifo_depth: crate::hwicap::PAPER_FIFO_DEPTH,
            dma_burst_beats: crate::dma::DMA_BURST_BEATS,
            sd_files: Vec::new(),
            stream_depth: None,
            spi_clkdiv: 4,
            compressed_loader: false,
            vcd: false,
            sanitize: false,
        }
    }

    /// Replace the partition list.
    pub fn with_rps(mut self, geometries: Vec<RpGeometry>) -> Self {
        assert!(!geometries.is_empty());
        self.rp_geometries = geometries;
        self
    }

    /// Register a module image (optionally with behaviour) — see
    /// [`RmLibrary`].
    pub fn with_library(mut self, library: RmLibrary) -> Self {
        self.library = library;
        self
    }

    /// Override the HWICAP write-FIFO depth (ablation).
    pub fn with_hwicap_depth(mut self, depth: usize) -> Self {
        self.hwicap_fifo_depth = depth;
        self
    }

    /// Override the DMA burst length (ablation).
    pub fn with_dma_burst(mut self, beats: u16) -> Self {
        self.dma_burst_beats = beats;
        self
    }

    /// Pre-load a file onto the SD card's FAT32 volume.
    pub fn with_sd_file(mut self, name: &str, data: Vec<u8>) -> Self {
        self.sd_files.push((name.to_string(), data));
        self
    }

    /// Override the DMA→ICAP stream FIFO depths (ablation). The
    /// default models the RTL's registered handshakes with shallow
    /// skid buffers (mm2s 4, switch→bridge 4, ICAP input 8); deeper
    /// buffers trade BRAM for elasticity (the `rvcap_deep` hostbench
    /// rig measures the host cost of that shape).
    pub fn with_stream_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0);
        self.stream_depth = Some(depth);
        self
    }

    /// SPI clock divider (bit time in fabric cycles).
    pub fn with_spi_clkdiv(mut self, div: u32) -> Self {
        self.spi_clkdiv = div;
        self
    }

    /// Record a VCD waveform of the reconfiguration datapath
    /// (decouple lines, stream-switch select, DMA stream occupancy,
    /// ICAP word count, DMA interrupts). Retrieve it from
    /// [`SocHandles::vcd`] and feed it to GTKWave.
    pub fn with_vcd(mut self) -> Self {
        self.vcd = true;
        self
    }

    /// Insert an RLE decompressor between the AXIS2ICAP bridge and
    /// the ICAP: partial bitstreams are then staged and transferred in
    /// [`rvcap_fabric::compress`] format (extension study).
    pub fn with_compressed_loader(mut self) -> Self {
        self.compressed_loader = true;
        self
    }

    /// Put the whole bus under the protocol sanitizer: every MM link
    /// and stream channel is watched, and violations surface through
    /// [`rvcap_sim::Simulator::mmio_audit`]. The sanitizer is a
    /// passive recorder — it never refuses or reorders traffic, so
    /// cycle counts are identical with it on or off.
    /// Setting `RVCAP_STRICT` (to anything but `0` or empty) enables
    /// it regardless of this flag.
    pub fn with_sanitizer(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Build the system.
    pub fn build(self) -> RvCapSoc {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let ddr_cfg = DdrConfig::default();
        let library = Rc::new(self.library);

        // ---------------- links ----------------
        let (cpu_m, cpu_s) = link("cpu", 1);
        let (dma_mem_m, dma_mem_s) = link("dma.mem", 4);
        let (boot_m, boot_s) = link("boot", 4);
        let (clint_m, clint_s) = link("clint", 2);
        let (plic_m, plic_s) = link("plic", 2);
        let (uart_m, uart_s) = link("uart", 2);
        let (spi_m, spi_s) = link("spi", 2);
        let (hwicap_m, hwicap_s) = link("hwicap", 2);
        let (dma_m, dma_s) = link("dma", 2);
        let (rpctrl_m, rpctrl_s) = link("rpctrl", 2);
        let (swctrl_m, swctrl_s) = link("swctrl", 2);
        let (ddr_m, ddr_s) = link("ddr", 8);

        // ---------------- sanitizer ----------------
        // Watch every link's FIFOs via the master-side handles while
        // both halves are still in scope (a link's two ports share the
        // same channels, so one watch covers both directions of use).
        // Only the DMA issues bursts; they travel dma.mem → crossbar →
        // ddr, so those two links advertise the DMA burst length and
        // every other link is single-beat.
        let strict_env = std::env::var("RVCAP_STRICT").is_ok_and(|v| !v.is_empty() && v != "0");
        let sanitizer = (self.sanitize || strict_env).then(Sanitizer::new);
        if let Some(s) = &sanitizer {
            watch_mm_link(s, &cpu_m.req, &cpu_m.resp, 1);
            watch_mm_link(s, &dma_mem_m.req, &dma_mem_m.resp, self.dma_burst_beats);
            watch_mm_link(s, &ddr_m.req, &ddr_m.resp, self.dma_burst_beats);
            for m in [
                &boot_m, &clint_m, &plic_m, &uart_m, &spi_m, &hwicap_m, &dma_m, &rpctrl_m,
                &swctrl_m,
            ] {
                watch_mm_link(s, &m.req, &m.resp, 1);
            }
        }

        // ---------------- crossbar ----------------
        let xbar = Crossbar::new(
            "xbar",
            vec![cpu_s, dma_mem_s],
            vec![
                (
                    SlaveRegion::new("boot", BOOT_ROM_BASE, BOOT_ROM_SIZE),
                    boot_m,
                ),
                (SlaveRegion::new("clint", CLINT_BASE, CLINT_SIZE), clint_m),
                (SlaveRegion::new("plic", PLIC_BASE, PLIC_SIZE), plic_m),
                (SlaveRegion::new("uart", UART_BASE, UART_SIZE), uart_m),
                (SlaveRegion::new("spi", SPI_BASE, SPI_SIZE), spi_m),
                (
                    SlaveRegion::new("hwicap", HWICAP_BASE, HWICAP_SIZE).behind_lite_converter(),
                    hwicap_m,
                ),
                (
                    SlaveRegion::new("dma", DMA_BASE, DMA_SIZE).behind_lite_converter(),
                    dma_m,
                ),
                (
                    SlaveRegion::new("rpctrl", RP_CTRL_BASE, RP_CTRL_SIZE),
                    rpctrl_m,
                ),
                (
                    SlaveRegion::new("swctrl", SWITCH_BASE, SWITCH_SIZE),
                    swctrl_m,
                ),
                (SlaveRegion::new("ddr", DDR_BASE, ddr_cfg.size), ddr_m),
            ],
        );

        // ---------------- fabric ----------------
        let config_mem = ConfigMem::new(CONFIG_FRAMES);
        let icap_in: AxisChannel = Fifo::new("icap.in", self.stream_depth.unwrap_or(8));
        let (icap, icap_h) = Icap::new("icap", icap_in.clone(), config_mem.clone(), KINTEX7_IDCODE);

        // Place partitions end to end from frame 1000.
        let mut far = 1000u32;
        let mut rps = Vec::new();
        for (i, g) in self.rp_geometries.iter().enumerate() {
            let rp = Rp::new(format!("RP{i}"), g.clone(), far);
            far += rp.frames() as u32 + 64; // static frames between RPs
            rps.push(rp);
        }

        // ---------------- streams ----------------
        // Shallow skid buffers: in the RTL these paths are registered
        // handshakes, not deep FIFOs, so the DMA's completion interrupt
        // fires only a handful of cycles before the ICAP consumes the
        // final word — matching the paper's "interrupt … indicates
        // completion of the reconfiguration process".
        let mm2s: AxisChannel = Fifo::new("dma.mm2s", self.stream_depth.unwrap_or(4));
        let s2mm: AxisChannel = Fifo::new("dma.s2mm", 8);
        let icap_raw: AxisChannel = Fifo::new("switch.icap", self.stream_depth.unwrap_or(4));
        let select = Signal::new(0u8);
        let n_rps = rps.len();
        if let Some(s) = &sanitizer {
            watch_stream(s, &mm2s);
            watch_stream(s, &s2mm);
            watch_stream(s, &icap_raw);
            watch_stream(s, &icap_in);
        }

        let mut switch_outputs = Vec::new();
        let mut decouple = Vec::new();
        let mut hosts = Vec::new();
        let mut host_handles = Vec::new();
        let mut isolators = Vec::new();
        for (i, rp) in rps.iter().enumerate() {
            let to_iso: AxisChannel = Fifo::new(format!("rm{i}.to_iso"), 8);
            let rm_in: AxisChannel = Fifo::new(format!("rm{i}.in"), 8);
            let rm_out: AxisChannel = Fifo::new(format!("rm{i}.out"), 8);
            let dec = Signal::new(false);
            if let Some(s) = &sanitizer {
                watch_stream(s, &to_iso);
                watch_stream(s, &rm_out);
                // Nothing may cross into the partition while its
                // decouple line is high — the PR isolation invariant.
                watch_stream_gated(s, &rm_in, dec.clone());
            }
            switch_outputs.push(to_iso.clone());
            isolators.push(StreamIsolator::new(
                format!("iso{i}.in"),
                to_iso,
                rm_in.clone(),
                dec.clone(),
            ));
            isolators.push(StreamIsolator::new(
                format!("iso{i}.out"),
                rm_out.clone(),
                s2mm.clone(),
                dec.clone(),
            ));
            let (host, handle) = RmHost::new(
                format!("host{i}"),
                rp.clone(),
                config_mem.clone(),
                icap_h.clone(),
                library.clone(),
                rm_in,
                rm_out,
            );
            hosts.push(host);
            host_handles.push(handle);
            decouple.push(dec);
        }
        let mm2s_for_vcd = mm2s.clone();
        let icap_in_for_vcd = icap_in.clone();
        let select_for_vcd = select.clone();
        switch_outputs.push(icap_raw.clone());
        let switch = StreamSwitch::new("switch", mm2s.clone(), switch_outputs, select.clone());
        // With the compressed loader, the bridge feeds the
        // decompressor, which expands into the ICAP channel.
        let (bridge, decompressor) = if self.compressed_loader {
            let expanded: AxisChannel = Fifo::new("rle.in", self.stream_depth.unwrap_or(8));
            if let Some(s) = &sanitizer {
                watch_stream(s, &expanded);
            }
            let bridge = Narrower::new("axis2icap", icap_raw, expanded.clone());
            let d = crate::decompressor::RleDecompressor::new("rle", expanded, icap_in.clone());
            (bridge, Some(d))
        } else {
            (Narrower::new("axis2icap", icap_raw, icap_in.clone()), None)
        };

        // ---------------- controllers ----------------
        let dma = XilinxDma::new("dma", dma_s, dma_mem_m, mm2s, s2mm)
            .with_burst_beats(self.dma_burst_beats);
        let mm2s_irq = dma.mm2s_irq.clone();
        let mm2s_irq_for_vcd = dma.mm2s_irq.clone();
        let s2mm_irq = dma.s2mm_irq.clone();
        let hwicap = AxiHwicap::new(
            "hwicap",
            hwicap_s,
            icap_in,
            self.hwicap_fifo_depth,
            config_mem.clone(),
        );
        let rpctrl = RpController::new(
            "rpctrl",
            rpctrl_s,
            decouple.clone(),
            host_handles.clone(),
            library.clone(),
        );
        let swctrl = SwitchCtrl::new("swctrl", swctrl_s, select, n_rps as u8);

        // ---------------- peripherals ----------------
        let boot = RamSlave::new("boot", boot_s, BOOT_ROM_BASE, BOOT_ROM_SIZE as usize);
        let (clint, clint_h) = Clint::paper(clint_s, CLINT_BASE);
        let (plic, plic_h) = Plic::new(
            "plic",
            plic_s,
            PLIC_BASE,
            vec![(IRQ_DMA_MM2S, mm2s_irq), (IRQ_DMA_S2MM, s2mm_irq)],
        );
        let (uart, uart_h) = Uart::new("uart", uart_s, UART_BASE);
        let mut sd_dev = MemBlockDevice::with_mib(64);
        if !self.sd_files.is_empty() {
            let mut vol =
                Fat32Volume::format(std::mem::replace(&mut sd_dev, MemBlockDevice::new(1)))
                    .expect("SD format");
            for (name, data) in &self.sd_files {
                vol.write(name, data).expect("SD preload");
            }
            sd_dev = vol.into_device();
        }
        let card = SdCard::new(sd_dev);
        let (spi, spi_h) = Spi::new("spi", spi_s, SPI_BASE, card, self.spi_clkdiv);
        let (ddr, ddr_h) = Ddr::new("ddr", ddr_s, DDR_BASE, ddr_cfg);

        // ---------------- registration (dataflow order) ----------------
        if let Some(s) = &sanitizer {
            sim.attach_sanitizer(s.clone());
        }
        sim.register(Box::new(ddr));
        sim.register(Box::new(xbar));
        sim.register(Box::new(dma));
        sim.register(Box::new(switch));
        for iso in isolators {
            sim.register(Box::new(iso));
        }
        sim.register(Box::new(bridge));
        if let Some(d) = decompressor {
            sim.register(Box::new(d));
        }
        sim.register(Box::new(hwicap));
        sim.register(Box::new(icap));
        for host in hosts {
            sim.register(Box::new(host));
        }
        sim.register(Box::new(rpctrl));
        sim.register(Box::new(swctrl));
        sim.register(Box::new(boot));
        sim.register(Box::new(clint));
        sim.register(Box::new(plic));
        sim.register(Box::new(uart));
        sim.register(Box::new(spi));

        // The VCD recorder samples end-of-cycle state: register last.
        let vcd_handle = if self.vcd {
            let mut rec = VcdRecorder::new("vcd");
            for (i, dec) in decouple.iter().enumerate() {
                rec.probe_signal(format!("rp{i}_decouple"), dec.clone());
            }
            {
                let select = select_for_vcd.clone();
                rec.probe("switch_select", 8, move || select.get() as u64);
            }
            rec.probe_fifo_len("mm2s_occupancy", mm2s_for_vcd.clone());
            rec.probe_fifo_len("icap_in_occupancy", icap_in_for_vcd.clone());
            {
                let icap = icap_h.clone();
                rec.probe("icap_words", 32, move || icap.words_consumed());
            }
            rec.probe_signal("dma_mm2s_irq", mm2s_irq_for_vcd.clone());
            let handle = rec.handle();
            sim.register(Box::new(rec));
            Some(handle)
        } else {
            None
        };

        RvCapSoc {
            core: SocCore::new(sim, cpu_m),
            handles: SocHandles {
                ddr: ddr_h,
                clint: clint_h,
                plic: plic_h,
                uart: uart_h,
                spi: spi_h,
                icap: icap_h,
                config_mem,
                rm_hosts: host_handles,
                decouple,
                rps,
                library,
                vcd: vcd_handle,
                sanitizer,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_fabric::resources::Resources;
    use rvcap_soc::map::DDR_BASE;

    #[test]
    fn builds_and_reads_mtime() {
        let mut soc = SocBuilder::new().build();
        soc.core.compute(100);
        let t = soc.core.mmio_read(CLINT_BASE + CLINT_MTIME, 8);
        assert!(t >= 4, "mtime {t}");
    }

    #[test]
    fn paper_rp_is_placed() {
        let soc = SocBuilder::new().build();
        assert_eq!(soc.handles.rps.len(), 1);
        assert_eq!(soc.handles.rps[0].frames(), 1611);
        assert_eq!(soc.handles.rps[0].geometry.bitstream_bytes(), 650_892);
    }

    #[test]
    fn multi_rp_placement_does_not_overlap() {
        let soc = SocBuilder::new()
            .with_rps(vec![
                RpGeometry::scaled(2, 1, 0),
                RpGeometry::scaled(4, 0, 1),
            ])
            .build();
        let a = &soc.handles.rps[0];
        let b = &soc.handles.rps[1];
        assert!(a.far_base + a.frames() as u32 <= b.far_base);
    }

    #[test]
    fn vcd_capture_of_a_reconfiguration() {
        use crate::drivers::{DmaMode, RvCapDriver};
        let geometry = RpGeometry::scaled(1, 0, 0);
        let img = RmImage::synthesize("W", geometry.frames(), Resources::ZERO);
        let mut lib = RmLibrary::new();
        lib.register_image(img.clone());
        let mut soc = SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .with_vcd()
            .build();
        let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
        let d = RvCapDriver::new(0, soc.handles.plic.clone());
        d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        let dump = soc.handles.vcd.as_ref().unwrap().render();
        // Header declares the probes…
        assert!(dump.contains("$var wire 1 ! rp0_decouple $end"));
        assert!(dump.contains("icap_words"));
        assert!(dump.contains("$enddefinitions"));
        // …and the waveform shows the decouple pulse (rise and fall)
        // and the switch flipping to the ICAP route and back.
        assert!(dump.matches("\n1!").count() >= 1, "decouple rose");
        assert!(dump.matches("\n0!").count() >= 2, "decouple fell");
    }

    #[test]
    fn sd_files_visible_over_spi_init() {
        let mut lib = RmLibrary::new();
        lib.register_image(RmImage::synthesize("M", 2, Resources::ZERO));
        let soc = SocBuilder::new()
            .with_library(lib)
            .with_sd_file("M.PBI", vec![1, 2, 3, 4])
            .build();
        // The card exists and has been formatted; the driver-level SD
        // tests live in drivers::storage.
        assert_eq!(soc.handles.library.len(), 1);
    }
}
