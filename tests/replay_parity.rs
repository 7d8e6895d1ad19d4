//! Replay parity: `checkpoint → restore into a fresh rig → continue`
//! must be **bit-identical** to the uninterrupted run — same cycles,
//! same component state, same MMIO audits, same sanitizer verdicts,
//! same tick accounting — under both kernel schedulers.
//!
//! This is the proof obligation behind warm-boot forking (the
//! hostbench builds one SoC per rig, checkpoints it post-boot, and
//! forks every measurement from that snapshot): if a forked run could
//! drift from a cold-booted one by even a cycle, the benchmark numbers
//! would measure the forking, not the hardware.
//!
//! On a parity failure the harness does not stop at "states differ":
//! it binary-searches the first divergent cycle with
//! [`rvcap_sim::bisect_divergence`] and writes the report to
//! `target/replay-divergence-report.txt`, which CI uploads as an
//! artifact.

use rvcap_bench::hostbench::{scheduler_name, SCHEDULERS};
use rvcap_bench::paper_soc::{self, PaperRig};
use rvcap_repro::accel::library::filter_library;
use rvcap_repro::accel::{FilterKind, Image};
use rvcap_repro::core::drivers::rvcap::start_stream_job;
use rvcap_repro::core::drivers::storage::SdDriver;
use rvcap_repro::core::drivers::{DmaMode, RvCapDriver};
use rvcap_repro::core::system::{RvCapSoc, SocBuilder};
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::sim::{bisect_divergence, Cycle, Scheduler, SimState, StateBlob};
use rvcap_repro::soc::cpu::SocState;
use rvcap_repro::soc::map::{BOOT_ROM_BASE, DDR_BASE, IRQ_DMA_MM2S, IRQ_DMA_S2MM};
use rvcap_repro::storage::{BlockDevice, BLOCK_SIZE};

/// Small sweep geometry: full reconfiguration in ~11 k cycles, cheap
/// enough to run under the naive reference schedule in debug builds.
fn small_rp() -> RpGeometry {
    RpGeometry::scaled(2, 0, 0)
}

/// Build the pinned rig under `scheduler`, sanitizer attached (so
/// protocol observation state is inside the parity check too).
fn mk_rig(scheduler: Scheduler) -> PaperRig {
    let mut rig = paper_soc::rig_with_builder(SocBuilder::new().with_sanitizer(), small_rp());
    rig.soc.core.sim.set_scheduler(scheduler);
    rig
}

/// Program a full DMA→ICAP reconfiguration transfer through raw
/// driver primitives (each a blocking MMIO sequence, so the host is
/// quiescent afterwards) without waiting for completion — the stream
/// is then in flight and `compute` advances it.
fn program_transfer(rig: &mut PaperRig) {
    let d = RvCapDriver::new(0, rig.soc.handles.plic.clone());
    d.decouple_accel(&mut rig.soc.core, true);
    d.select_icap(&mut rig.soc.core, true);
    d.dma_start(&mut rig.soc.core);
    d.dma_config(&mut rig.soc.core, DmaMode::NonBlocking);
    d.dma_write_stream(
        &mut rig.soc.core,
        rig.module.start_address,
        rig.module.pbit_size,
    );
}

/// Cycles to advance past the programming prologue so the checkpoint
/// lands mid-stream: DMA bursts in flight, ICAP consuming, FIFOs
/// part-full.
const MID_STREAM: Cycle = 2_000;

/// Continuation horizon: covers stream completion, the ICAP trailer,
/// the completion interrupt pending at the PLIC, and an idle tail.
const HORIZON: Cycle = 12_000;

/// Fork: build a fresh structurally-identical rig, restore `base` into
/// it, advance `t` cycles, checkpoint.
fn fork_run(base: &SocState, scheduler: Scheduler, t: Cycle) -> SocState {
    let mut rig = mk_rig(scheduler);
    rig.soc.core.restore(base).expect("restore into fresh rig");
    assert_eq!(rig.soc.core.now(), base.sim.cycle, "restore sets the clock");
    rig.soc.core.compute(t);
    rig.soc.core.checkpoint().expect("checkpoint forked run")
}

/// Straight re-execution: build a fresh rig, re-run the deterministic
/// prologue to the base cycle, advance `t` cycles, checkpoint.
fn straight_run(base_cycle: Cycle, scheduler: Scheduler, t: Cycle) -> SocState {
    let mut rig = mk_rig(scheduler);
    program_transfer(&mut rig);
    let c0 = rig.soc.core.now();
    assert!(c0 <= base_cycle, "prologue overshot the base cycle");
    rig.soc.core.compute(base_cycle - c0);
    rig.soc.core.compute(t);
    rig.soc.core.checkpoint().expect("checkpoint straight run")
}

/// Assert parity; on failure, bisect the first divergent cycle and
/// write the CI artifact before panicking.
fn assert_parity(context: &str, scheduler: Scheduler, base: &SocState, horizon: Cycle) {
    let straight = straight_run(base.sim.cycle, scheduler, horizon);
    let replay = fork_run(base, scheduler, horizon);
    if let Some(diff) = straight.parity_diff(&replay) {
        let base_clone = base.clone();
        let probe_straight = |b: &SimState, t: Cycle| straight_run(b.cycle, scheduler, t).sim;
        let probe_replay = move |_b: &SimState, t: Cycle| fork_run(&base_clone, scheduler, t).sim;
        let report = bisect_divergence(&base.sim, horizon, probe_straight, probe_replay);
        let rendered = match &report {
            Some(r) => r.render(),
            None => format!(
                "parity failed at the horizon but the bisect probes agree \
                 (flaky probe construction?): {diff}"
            ),
        };
        let path = std::path::Path::new("target").join("replay-divergence-report.txt");
        let body = format!(
            "context: {context} (scheduler {})\n\n{rendered}\n",
            scheduler_name(scheduler)
        );
        let _ = std::fs::write(&path, &body);
        panic!(
            "replay parity failed [{context}, {}]: {diff}\n{rendered}\n(report: {})",
            scheduler_name(scheduler),
            path.display()
        );
    }
}

/// The full paper SoC checkpoints completely: every registered
/// component implements `save_state`, and the checkpoint restores back
/// into the very simulator it came from.
#[test]
fn full_soc_checkpoint_is_complete() {
    let mut rig = paper_soc::rig_with_builder(SocBuilder::new().with_sanitizer(), small_rp());
    let state = rig.soc.core.checkpoint().expect("every component saves");
    assert!(
        state.sim.components.len() >= 17,
        "expected the full roster, got {}",
        state.sim.components.len()
    );
    rig.soc.core.restore(&state).expect("self-restore");
    let again = rig.soc.core.checkpoint().expect("checkpoint after restore");
    assert_eq!(state.parity_diff(&again), None);
}

/// Restoring into a structurally different rig is refused, not
/// silently accepted.
#[test]
fn restore_rejects_mismatched_structure() {
    let rig = paper_soc::rig_with_geometry(small_rp());
    let state = rig.soc.core.checkpoint().expect("checkpoint");
    // Two partitions → more components than the checkpoint carries.
    let mut other = paper_soc::rig_with_rps(
        SocBuilder::new(),
        vec![small_rp(), RpGeometry::scaled(1, 0, 0)],
    );
    assert!(other.soc.core.restore(&state).is_err());
}

/// Fork cycles of the sweep fall after the programming prologue,
/// within this many cycles: past the stream, its ICAP trailer and
/// completion interrupt, into the idle tail.
const SWEEP_SPAN: Cycle = 9_600;

/// Forks in the sweep: one drawn in each equal stratum of the span, so
/// the draws cover the run however the seed falls.
const SWEEP_POINTS: Cycle = 16;

/// Fixed seed of the sweep's draws.
const SWEEP_SEED: u64 = 0x5eed_f02c;

/// Every sweep fork continues to this many cycles past the prologue.
const SWEEP_END: Cycle = SWEEP_SPAN + 400;

/// The sweep's fork offsets past the prologue, ascending.
fn sweep_offsets() -> Vec<Cycle> {
    let stratum = SWEEP_SPAN / SWEEP_POINTS;
    let mut x = SWEEP_SEED;
    (0..SWEEP_POINTS)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            i * stratum + x % stratum
        })
        .collect()
}

/// Forks at 16 seeded cycles across the whole transfer — mid-stream,
/// around DDR refresh stalls, in the ICAP trailer, at the completion
/// interrupt and in the idle tail — each replay bit-identically under
/// both schedulers.
#[test]
fn forks_across_the_transfer_replay_bit_identical() {
    let offsets = sweep_offsets();
    for scheduler in SCHEDULERS {
        let name = scheduler_name(scheduler);
        let mut rig = mk_rig(scheduler);
        program_transfer(&mut rig);
        let c0 = rig.soc.core.now();
        let words = (rig.module.pbit_size / 4) as u64;
        let (mut mid_stream, mut after_irq) = (0, 0);
        for &t in &offsets {
            let now = rig.soc.core.now();
            rig.soc.core.compute(c0 + t - now);
            let base = rig.soc.core.checkpoint().expect("sweep checkpoint");
            let consumed = rig.soc.handles.icap.words_consumed();
            mid_stream += u32::from(consumed > 0 && consumed < words);
            after_irq += u32::from(rig.soc.handles.plic.is_pending(IRQ_DMA_MM2S));
            let horizon = c0 + SWEEP_END - base.sim.cycle;
            assert_parity(&format!("sweep fork at +{t}"), scheduler, &base, horizon);
        }
        assert!(
            mid_stream >= 10 && after_irq >= 2,
            "sweep under {name} missed a phase: {mid_stream} forks mid-stream, \
             {after_irq} after the completion interrupt"
        );
    }
}

/// A cycle-0 fork replays the *entire* reconfiguration bit-identically
/// under both schedulers: same Td/Tr ticks, same final state.
#[test]
fn boot_checkpoint_replays_full_reconfiguration() {
    for scheduler in SCHEDULERS {
        // Straight run.
        let mut a = mk_rig(scheduler);
        let base = a.soc.core.checkpoint().expect("boot checkpoint");
        let da = RvCapDriver::new(0, a.soc.handles.plic.clone());
        let module = a.module.clone();
        let ta = da.init_reconfig_process(&mut a.soc.core, &module, DmaMode::NonBlocking);
        let end_a = a.soc.core.checkpoint().expect("straight end");

        // Forked run: fresh structure, restored boot state, same driver.
        let mut b = mk_rig(scheduler);
        b.soc.core.restore(&base).expect("restore boot state");
        let db = RvCapDriver::new(0, b.soc.handles.plic.clone());
        let tb = db.init_reconfig_process(&mut b.soc.core, &module, DmaMode::NonBlocking);
        let end_b = b.soc.core.checkpoint().expect("replay end");

        assert_eq!(
            ta.td_ticks,
            tb.td_ticks,
            "Td under {}",
            scheduler_name(scheduler)
        );
        assert_eq!(
            ta.tr_ticks,
            tb.tr_ticks,
            "Tr under {}",
            scheduler_name(scheduler)
        );
        assert_eq!(
            end_a.parity_diff(&end_b),
            None,
            "boot-fork parity under {}",
            scheduler_name(scheduler)
        );
        let san = a.soc.handles.sanitizer.as_ref().expect("sanitizer");
        assert_eq!(san.violation_count(), 0);
    }
}

/// The tentpole property: a checkpoint taken *mid-DMA-stream* (bursts
/// in flight, FIFOs part-full, ICAP mid-bitstream) restores into a
/// fresh rig and continues bit-identically to the uninterrupted run —
/// under both schedulers.
#[test]
fn mid_stream_checkpoint_replays_bit_identical() {
    for scheduler in SCHEDULERS {
        let mut rig = mk_rig(scheduler);
        program_transfer(&mut rig);
        rig.soc.core.compute(MID_STREAM);
        let base = rig.soc.core.checkpoint().expect("mid-stream checkpoint");
        // The checkpoint really is mid-stream: the ICAP has consumed
        // some of the bitstream but not all of it.
        let consumed = rig.soc.handles.icap.words_consumed();
        assert!(
            consumed > 0,
            "stream not started under {}",
            scheduler_name(scheduler)
        );
        assert!(
            consumed < (rig.module.pbit_size / 4) as u64,
            "stream already done under {}",
            scheduler_name(scheduler)
        );
        assert_parity("mid-stream fork", scheduler, &base, HORIZON);
    }
}

/// Checkpoints are scheduler-portable: a state captured under one
/// scheduler restores under the other and produces the same simulated
/// observables (scheduler internals are rebuilt cold from component
/// hints). Executed-tick accounting is schedule policy — naive ticks
/// idle components that the active set skips — so the cross-scheduler
/// comparison strips it and checks everything a program can observe:
/// the cycle, every component's state blob, the sanitizer verdict.
#[test]
fn checkpoint_is_scheduler_portable() {
    fn strip_schedule_accounting(mut s: SocState) -> SocState {
        for c in &mut s.sim.components {
            c.ticks = 0;
            c.registered_at = 0;
        }
        s
    }
    let mut rig = mk_rig(Scheduler::ActiveSet);
    program_transfer(&mut rig);
    rig.soc.core.compute(MID_STREAM);
    let base = rig.soc.core.checkpoint().expect("checkpoint");
    let reference = strip_schedule_accounting(fork_run(&base, Scheduler::Naive, HORIZON));
    for scheduler in SCHEDULERS {
        let end = strip_schedule_accounting(fork_run(&base, scheduler, HORIZON));
        assert_eq!(
            reference.parity_diff(&end),
            None,
            "cross-scheduler parity, naive vs {}",
            scheduler_name(scheduler)
        );
    }
}

/// A rig with the VCD recorder attached checkpoints too, and the
/// forked run renders the *same waveform* as the straight run — the
/// dump text survives the checkpoint and continues seamlessly.
#[test]
fn vcd_waveform_survives_fork() {
    let build = || {
        let mut rig = paper_soc::rig_with_builder(SocBuilder::new().with_vcd(), small_rp());
        rig.soc.core.sim.set_scheduler(Scheduler::ActiveSet);
        rig
    };
    let mut a = build();
    program_transfer(&mut a);
    a.soc.core.compute(MID_STREAM);
    let base = a.soc.core.checkpoint().expect("vcd rig checkpoint");
    a.soc.core.compute(HORIZON);
    let straight_dump = a.soc.handles.vcd.as_ref().unwrap().render();

    let mut b = build();
    b.soc.core.restore(&base).expect("restore vcd rig");
    b.soc.core.compute(HORIZON);
    let forked_dump = b.soc.handles.vcd.as_ref().unwrap().render();
    assert!(!straight_dump.is_empty());
    assert_eq!(straight_dump, forked_dump);
}

/// Frame edge of the accelerator fork rig.
const ACCEL_DIM: usize = 16;
const IMG_IN: u64 = DDR_BASE + 0x10_0000;
const IMG_OUT: u64 = DDR_BASE + 0x20_0000;

/// The input frame of the accelerator fork rig.
fn accel_input() -> Image {
    Image::noise(ACCEL_DIM, ACCEL_DIM, 7)
}

/// One small partition hosting the filter library for 16×16 frames,
/// sanitizer attached.
fn accel_soc(scheduler: Scheduler) -> RvCapSoc {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let mut soc = SocBuilder::new()
        .with_sanitizer()
        .with_rps(vec![geometry.clone()])
        .with_library(filter_library(&geometry, ACCEL_DIM, ACCEL_DIM))
        .build();
    soc.core.sim.set_scheduler(scheduler);
    soc
}

/// [`accel_soc`] reconfigured to the Gaussian filter, with a stream
/// job over [`accel_input`] programmed and in flight.
fn gaussian_job(scheduler: Scheduler) -> RvCapSoc {
    let mut soc = accel_soc(scheduler);
    start_gaussian_job(&mut soc);
    soc
}

/// Reconfigure `soc` to the Gaussian filter and start a stream job
/// over [`accel_input`].
fn start_gaussian_job(soc: &mut RvCapSoc) {
    load_filter(soc, "Gaussian");
    soc.handles
        .ddr
        .write_bytes(IMG_IN, accel_input().as_bytes());
    let len = (ACCEL_DIM * ACCEL_DIM) as u32;
    start_stream_job(&mut soc.core, 0, IMG_IN, IMG_OUT, len);
}

/// Reconfigure the accelerator partition to the library filter `name`
/// through RV-CAP (DMA → ICAP), from a DDR staging buffer.
fn load_filter(soc: &mut RvCapSoc, name: &str) {
    let img = soc.handles.library.by_name(name).unwrap();
    let module = soc.stage_module(0, img, DDR_BASE + 0x40_0000);
    RvCapDriver::new(0, soc.handles.plic.clone()).init_reconfig_process(
        &mut soc.core,
        &module,
        DmaMode::NonBlocking,
    );
}

/// Run the job to its S2MM completion interrupt, then let the posted
/// write-back drain. Returns the interrupt's cycle, the output image
/// and the final state. The limits are small: a job that has lost its
/// pipeline stalls.
fn finish_accel_job(soc: &mut RvCapSoc) -> (Cycle, Vec<u8>, SocState) {
    let plic = soc.handles.plic.clone();
    soc.core
        .wait_until(20_000, || plic.is_pending(IRQ_DMA_S2MM))
        .expect("stream job completes");
    let done = soc.core.now();
    soc.core
        .sim
        .run_until_quiescent(20_000)
        .expect("write-back drains");
    let out = soc.handles.ddr.read_bytes(IMG_OUT, ACCEL_DIM * ACCEL_DIM);
    (done, out, soc.core.checkpoint().expect("final checkpoint"))
}

/// The hosted filter's received pixels and emitted pixels inside a
/// checkpoint.
fn filter_progress(state: &SocState) -> (usize, u64) {
    let host = state
        .sim
        .components
        .iter()
        .find(|c| c.name == "host0")
        .expect("RM host registered");
    let filter = host
        .blob
        .get_blob("behavior")
        .expect("the hosted filter saves its pipeline");
    let received = filter.get_bytes("inbuf").expect("received prefix").len();
    (received, filter.get_u64("out_pos").expect("emitted pixels"))
}

/// A stateful accelerator forked mid-frame — the filter holding part
/// of the frame, some of its output emitted — finishes exactly like
/// the uninterrupted job under both schedulers: same completion cycle,
/// same output image, same final state.
#[test]
fn mid_frame_accelerator_fork_replays_bit_identical() {
    let golden = FilterKind::Gaussian.golden(&accel_input());
    for scheduler in SCHEDULERS {
        let name = scheduler_name(scheduler);
        let (done, straight_out, straight_end) = finish_accel_job(&mut gaussian_job(scheduler));
        assert_eq!(straight_out, golden.as_bytes(), "output under {name}");

        // The filter bursts its banked output credits once two rows
        // are in, and completes a few cycles before the interrupt:
        // 20 cycles earlier it holds part of the frame.
        let mut prefix = gaussian_job(scheduler);
        let now = prefix.core.now();
        prefix.core.compute(done - 20 - now);
        let base = prefix.core.checkpoint().expect("mid-frame checkpoint");

        let mut forked = accel_soc(scheduler);
        forked
            .core
            .restore(&base)
            .expect("restore into a fresh SoC");
        let (fork_done, fork_out, fork_end) = finish_accel_job(&mut forked);
        assert_eq!(fork_out, straight_out, "forked output under {name}");
        assert_eq!(fork_done, done, "completion cycle under {name}");
        assert_eq!(
            straight_end.parity_diff(&fork_end),
            None,
            "fork parity under {name}"
        );
        let (received, emitted) = filter_progress(&base);
        assert!(
            emitted > 0 && received < ACCEL_DIM * ACCEL_DIM,
            "checkpoint not mid-frame under {name}: {received} pixels in, {emitted} out"
        );
    }
}

/// Write one SD block through the SPI driver (CMD24 over MMIO).
fn sd_write(soc: &mut RvCapSoc, lba: u64, data: &[u8; BLOCK_SIZE]) {
    SdDriver::init(&mut soc.core)
        .expect("SD card initializes")
        .write_block(lba, data);
}

/// Read one SD block through the SPI driver (CMD17 over MMIO).
fn sd_read(soc: &mut RvCapSoc, lba: u64) -> [u8; BLOCK_SIZE] {
    let mut buf = [0; BLOCK_SIZE];
    SdDriver::init(&mut soc.core)
        .expect("SD card initializes")
        .read_block(lba, &mut buf);
    buf
}

/// The registered image occupying the accelerator partition, by hash.
fn loaded_filter(soc: &RvCapSoc) -> Option<String> {
    let rp = &soc.handles.rps[0];
    let hash = soc
        .handles
        .config_mem
        .range_hash(rp.far_base, rp.frames())?;
    Some(soc.handles.library.by_hash(hash)?.name.clone())
}

/// The proof of snapshot isolation. Replay parity cannot catch a write
/// that leaks into a page a checkpoint shares when both runs write the
/// same bytes, so here the live rig overwrites every bulk store after
/// the checkpoint — DDR by DMA S2MM and by the backdoor, the SD card by
/// a block write, configuration memory by an ICAP load, the boot ROM by
/// a CPU MMIO write — and a rig restored from the checkpoint must still
/// read the old bytes while the live rig reads the new ones.
#[test]
fn checkpoint_is_isolated_from_later_writes_to_every_store() {
    const BACKDOOR: u64 = DDR_BASE + 0x30_0000;
    const LBA: u64 = 1000;
    const BOOT_WORD: u64 = BOOT_ROM_BASE + 0x100;
    let n = ACCEL_DIM * ACCEL_DIM;
    let old_out = vec![0x11; n];

    let mut live = accel_soc(Scheduler::ActiveSet);
    load_filter(&mut live, "Median");
    live.handles.ddr.write_bytes(IMG_OUT, &old_out);
    live.handles.ddr.write_bytes(BACKDOOR, &[0x22; 64]);
    sd_write(&mut live, LBA, &[0x33; BLOCK_SIZE]);
    live.core.mmio_write(BOOT_WORD, 0x4444_4444_4444_4444, 8);
    let base = live.core.checkpoint().expect("checkpoint");

    // New bytes in every store.
    start_gaussian_job(&mut live);
    let (_, new_out, _) = finish_accel_job(&mut live);
    live.handles.ddr.write_bytes(BACKDOOR, &[0x55; 64]);
    sd_write(&mut live, LBA, &[0x66; BLOCK_SIZE]);
    live.core.mmio_write(BOOT_WORD, 0x7777_7777_7777_7777, 8);
    let golden = FilterKind::Gaussian.golden(&accel_input());
    assert_eq!(new_out, golden.as_bytes(), "the S2MM write-back landed");

    let mut restored = accel_soc(Scheduler::ActiveSet);
    restored
        .core
        .restore(&base)
        .expect("restore into a fresh SoC");
    let ddr = &restored.handles.ddr;
    assert_eq!(ddr.read_bytes(IMG_OUT, n), old_out, "DMA S2MM write leaked");
    assert_eq!(
        ddr.read_bytes(BACKDOOR, 64),
        vec![0x22; 64],
        "backdoor write leaked"
    );
    assert_eq!(
        sd_read(&mut restored, LBA),
        [0x33; BLOCK_SIZE],
        "SD write leaked"
    );
    assert_eq!(restored.core.mmio_read(BOOT_WORD, 8), 0x4444_4444_4444_4444);
    assert_eq!(
        loaded_filter(&restored).as_deref(),
        Some("Median"),
        "ICAP load leaked"
    );

    let ddr = &live.handles.ddr;
    assert_eq!(ddr.read_bytes(IMG_OUT, n), golden.as_bytes());
    assert_eq!(ddr.read_bytes(BACKDOOR, 64), vec![0x55; 64]);
    assert_eq!(sd_read(&mut live, LBA), [0x66; BLOCK_SIZE]);
    assert_eq!(live.core.mmio_read(BOOT_WORD, 8), 0x7777_7777_7777_7777);
    assert_eq!(loaded_filter(&live).as_deref(), Some("Gaussian"));
}

/// A one-byte DDR divergence reports where it is and what differs,
/// not two renderings of a 64 MiB memory.
#[test]
fn one_byte_ddr_divergence_gives_a_short_report() {
    let rig = mk_rig(Scheduler::ActiveSet);
    let before = rig.soc.core.checkpoint().expect("checkpoint");
    rig.soc
        .handles
        .ddr
        .write_bytes(DDR_BASE + 0x12_3457, &[0xA5]);
    let after = rig.soc.core.checkpoint().expect("checkpoint");
    let diff = before.parity_diff(&after).expect("the byte differs");
    assert!(diff.len() < 1024, "report is {} bytes", diff.len());
    assert!(
        diff.contains("ddr.mem") && diff.contains("0x123457") && diff.contains("0x0 vs 0xa5"),
        "report does not locate the byte: {diff}"
    );
}

/// What a checkpoint of the small-RP rig holds after one
/// reconfiguration, in resident pages per bulk store: the staged
/// bitstream and the configured frames, nothing of the untouched rest.
/// A store that went back to copying whole images fails this on any
/// host, whatever its clock does.
#[test]
fn fork_footprint_is_pinned() {
    let mut rig = mk_rig(Scheduler::ActiveSet);
    let module = rig.module.clone();
    RvCapDriver::new(0, rig.soc.handles.plic.clone()).init_reconfig_process(
        &mut rig.soc.core,
        &module,
        DmaMode::NonBlocking,
    );
    let state = rig.soc.core.checkpoint().expect("checkpoint");
    let blob = |name: &str| {
        &state
            .sim
            .components
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} registered"))
            .blob
    };
    let pages = |b: &StateBlob, field: &str| b.get_paged(field).unwrap().resident_pages();
    let ddr = pages(blob("ddr"), "mem");
    let sd = pages(
        blob("spi")
            .get_blob("card")
            .unwrap()
            .get_blob("dev")
            .unwrap(),
        "blocks",
    );
    let config = pages(blob("icap").get_blob("config_mem").unwrap(), "frames");
    let boot = pages(blob("boot"), "mem");
    // DDR: the 29 136-byte staged bitstream. Configuration memory:
    // the partition's frames. The SD card and boot ROM are untouched.
    assert_eq!(
        [ddr, sd, config, boot],
        [8, 0, 8, 0],
        "resident pages of [ddr, sd, config_mem, boot]"
    );
}
