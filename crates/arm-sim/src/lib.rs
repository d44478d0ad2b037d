//! Trace-driven ARM hard-core timing models.
//!
//! The paper compares the MicroBlaze warp processor against ARM7
//! (100 MHz), ARM9 (250 MHz), ARM10 (325 MHz), and ARM11 (550 MHz) hard
//! cores, "determining the execution for the ARM processors using the
//! SimpleScalar simulator ported for the ARM processor". SimpleScalar
//! and the proprietary ARM binaries are not reproducible here, so this
//! crate substitutes trace-driven timing models: each core replays the
//! same instruction trace the MicroBlaze executed (same operation mix,
//! branch outcomes, and memory addresses) through a scalar pipeline
//! model with per-class latencies, instruction/data caches, and a
//! branch-penalty model that deepens with the pipeline — the factors
//! that actually separate these cores at this era.
//!
//! The models capture *relative* performance (clock ratio × CPI ratio),
//! which is all the paper's normalized figures use.
//!
//! # Example
//!
//! ```
//! use arm_sim::{arm11, simulate};
//! # use mb_isa::{Assembler, Insn, Reg};
//! # use mb_sim::{MbConfig, System, EXIT_PORT_BASE};
//! # let mut a = Assembler::new(0);
//! # a.li(Reg::R3, 5);
//! # a.label("l");
//! # a.push(Insn::addik(Reg::R3, Reg::R3, -1));
//! # a.bnei(Reg::R3, "l");
//! # a.li(Reg::R31, EXIT_PORT_BASE as i32);
//! # a.push(Insn::swi(Reg::R0, Reg::R31, 0));
//! # let p = a.finish().unwrap();
//! # let mut sys = System::new(MbConfig::paper_default());
//! # sys.load_program(&p).unwrap();
//! let (_, trace) = sys.run_traced(1_000_000).unwrap();
//! let result = simulate(&arm11(), &trace);
//! assert!(result.seconds > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;

use mb_isa::OpClass;
use mb_sim::Trace;

use crate::cache::{Cache, CacheConfig};

/// Branch handling of a core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BranchModel {
    /// No prediction: every taken branch pays the flush penalty.
    None {
        /// Cycles lost on a taken branch.
        taken_penalty: u32,
    },
    /// Static backward-taken / forward-not-taken.
    Static {
        /// Cycles lost on a misprediction.
        mispredict_penalty: u32,
    },
    /// Dynamic bimodal predictor (2-bit counters).
    Bimodal {
        /// Predictor entries (power of two).
        entries: usize,
        /// Cycles lost on a misprediction.
        mispredict_penalty: u32,
    },
}

/// Configuration of one ARM core model.
#[derive(Clone, Debug)]
pub struct ArmCore {
    /// Core name, e.g. `"ARM9"`.
    pub name: &'static str,
    /// Clock frequency (Hz).
    pub clock_hz: u64,
    /// Pipeline depth (reporting only; penalties already encode it).
    pub pipeline_depth: u32,
    /// Multiply latency (cycles).
    pub mul_cycles: u32,
    /// Divide latency (software/hardware, cycles).
    pub div_cycles: u32,
    /// Load latency (cycles, on hit).
    pub load_cycles: u32,
    /// Store latency (cycles, on hit).
    pub store_cycles: u32,
    /// Branch handling.
    pub branch: BranchModel,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
}

/// ARM7TDMI-class core: 100 MHz, 3-stage pipeline, no prediction.
#[must_use]
pub fn arm7() -> ArmCore {
    ArmCore {
        name: "ARM7",
        clock_hz: 100_000_000,
        pipeline_depth: 3,
        mul_cycles: 4,
        div_cycles: 40,
        load_cycles: 2,
        store_cycles: 1,
        branch: BranchModel::None { taken_penalty: 2 },
        icache: CacheConfig { size_bytes: 8 * 1024, line_bytes: 16, ways: 4, miss_penalty: 8 },
        dcache: CacheConfig { size_bytes: 8 * 1024, line_bytes: 16, ways: 4, miss_penalty: 8 },
    }
}

/// ARM9 (ARM926EJ-S-class): 250 MHz, 5-stage pipeline.
#[must_use]
pub fn arm9() -> ArmCore {
    ArmCore {
        name: "ARM9",
        clock_hz: 250_000_000,
        pipeline_depth: 5,
        mul_cycles: 3,
        div_cycles: 35,
        load_cycles: 1,
        store_cycles: 1,
        branch: BranchModel::None { taken_penalty: 2 },
        icache: CacheConfig { size_bytes: 16 * 1024, line_bytes: 32, ways: 4, miss_penalty: 12 },
        dcache: CacheConfig { size_bytes: 16 * 1024, line_bytes: 32, ways: 4, miss_penalty: 12 },
    }
}

/// ARM10 (ARM1020E-class): 325 MHz, 6-stage pipeline, static prediction.
#[must_use]
pub fn arm10() -> ArmCore {
    ArmCore {
        name: "ARM10",
        clock_hz: 325_000_000,
        pipeline_depth: 6,
        mul_cycles: 2,
        div_cycles: 30,
        load_cycles: 1,
        store_cycles: 1,
        branch: BranchModel::Static { mispredict_penalty: 4 },
        icache: CacheConfig { size_bytes: 32 * 1024, line_bytes: 32, ways: 4, miss_penalty: 14 },
        dcache: CacheConfig { size_bytes: 32 * 1024, line_bytes: 32, ways: 4, miss_penalty: 14 },
    }
}

/// ARM11 (ARM1136-class): 550 MHz, 8-stage pipeline, dynamic prediction.
#[must_use]
pub fn arm11() -> ArmCore {
    ArmCore {
        name: "ARM11",
        clock_hz: 550_000_000,
        pipeline_depth: 8,
        mul_cycles: 2,
        div_cycles: 25,
        load_cycles: 1,
        store_cycles: 1,
        branch: BranchModel::Bimodal { entries: 256, mispredict_penalty: 6 },
        icache: CacheConfig { size_bytes: 32 * 1024, line_bytes: 32, ways: 4, miss_penalty: 18 },
        dcache: CacheConfig { size_bytes: 32 * 1024, line_bytes: 32, ways: 4, miss_penalty: 18 },
    }
}

/// The four baseline cores in the paper's order.
#[must_use]
pub fn paper_cores() -> Vec<ArmCore> {
    vec![arm7(), arm9(), arm10(), arm11()]
}

/// Result of replaying a trace through a core model.
#[derive(Clone, Debug)]
pub struct ArmResult {
    /// Core name.
    pub name: &'static str,
    /// Total cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Wall-clock seconds at the core's clock.
    pub seconds: f64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// Branch mispredictions (or unpredicted taken branches).
    pub mispredicts: u64,
    /// Instruction-cache hit rate.
    pub icache_hit_rate: f64,
    /// Data-cache hit rate.
    pub dcache_hit_rate: f64,
}

/// A 2-bit-counter bimodal predictor.
struct Bimodal {
    table: Vec<u8>,
}

impl Bimodal {
    fn new(entries: usize) -> Self {
        Bimodal { table: vec![1; entries.max(1)] } // weakly not-taken
    }

    fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        let idx = ((pc >> 2) as usize) & (self.table.len() - 1);
        let predicted = self.table[idx] >= 2;
        if taken {
            self.table[idx] = (self.table[idx] + 1).min(3);
        } else {
            self.table[idx] = self.table[idx].saturating_sub(1);
        }
        predicted == taken
    }
}

/// Per-class execute cycles for one core.
fn exec_cycles(core: &ArmCore, class: OpClass) -> u32 {
    match class {
        OpClass::Alu | OpClass::BarrelShift | OpClass::ImmPrefix => 1,
        OpClass::Mul => core.mul_cycles,
        OpClass::Div => core.div_cycles,
        OpClass::Load => core.load_cycles,
        OpClass::Store => core.store_cycles,
        OpClass::Branch => 1,
    }
}

/// Replays an instruction trace through a core's timing model.
#[must_use]
pub fn simulate(core: &ArmCore, trace: &Trace) -> ArmResult {
    let mut icache = Cache::new(core.icache);
    let mut dcache = Cache::new(core.dcache);
    let mut bimodal = match core.branch {
        BranchModel::Bimodal { entries, .. } => Some(Bimodal::new(entries)),
        _ => None,
    };
    // Pre-decoded execute-cost table, the same treatment the MicroBlaze
    // fetch path got: the core's per-class costs are fixed for the whole
    // replay, so derive them once and charge each event with an array
    // load. Indexing by class (not PC) stays correct even for traces
    // recorded across a binary patch, where one PC can carry two
    // different instructions.
    let mut cost_by_class = [0u32; OpClass::ALL.len()];
    for class in OpClass::ALL {
        cost_by_class[class.index()] = exec_cycles(core, class);
    }

    let mut cycles = 0u64;
    let mut mispredicts = 0u64;
    for e in trace {
        // Fetch.
        cycles += u64::from(icache.access(e.pc));
        // Execute.
        cycles += u64::from(cost_by_class[e.insn.class().index()]);
        // Memory.
        if let Some(ea) = e.ea {
            cycles += u64::from(dcache.access(ea));
        }
        // Branch outcome.
        if let Some(taken) = e.taken {
            let penalty = match core.branch {
                BranchModel::None { taken_penalty } => {
                    if taken {
                        mispredicts += 1;
                        taken_penalty
                    } else {
                        0
                    }
                }
                BranchModel::Static { mispredict_penalty } => {
                    // Backward-taken / forward-not-taken heuristic.
                    let backward = e.target.is_some_and(|t| t <= e.pc);
                    let predicted_taken = backward;
                    if predicted_taken == taken {
                        0
                    } else {
                        mispredicts += 1;
                        mispredict_penalty
                    }
                }
                BranchModel::Bimodal { mispredict_penalty, .. } => {
                    let correct = bimodal
                        .as_mut()
                        .expect("bimodal table allocated")
                        .predict_and_update(e.pc, taken);
                    if correct {
                        0
                    } else {
                        mispredicts += 1;
                        mispredict_penalty
                    }
                }
            };
            cycles += u64::from(penalty);
        }
    }

    let instructions = trace.len() as u64;
    ArmResult {
        name: core.name,
        cycles,
        instructions,
        seconds: cycles as f64 / core.clock_hz as f64,
        cpi: if instructions == 0 { 0.0 } else { cycles as f64 / instructions as f64 },
        mispredicts,
        icache_hit_rate: icache.stats().hit_rate(),
        dcache_hit_rate: dcache.stats().hit_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::{Assembler, Insn, MbFeatures, Reg};
    use mb_sim::{MbConfig, System, EXIT_PORT_BASE};

    fn loop_trace(iterations: i32) -> (Trace, u64) {
        let mut a = Assembler::new(0);
        a.li(Reg::R3, iterations);
        a.la(Reg::R5, "buf");
        a.equ("buf", 0x400).unwrap();
        a.label("l");
        a.push(Insn::lwi(Reg::R9, Reg::R5, 0));
        a.push(Insn::addk(Reg::R9, Reg::R9, Reg::R9));
        a.push(Insn::swi(Reg::R9, Reg::R5, 0));
        a.push(Insn::addik(Reg::R5, Reg::R5, 4));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "l");
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        let p = a.finish().unwrap();
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&p).unwrap();
        let (out, trace) = sys.run_traced(10_000_000).unwrap();
        assert!(out.exited());
        (trace, out.cycles)
    }

    #[test]
    fn faster_cores_finish_sooner() {
        let (trace, _) = loop_trace(500);
        let times: Vec<f64> = paper_cores().iter().map(|c| simulate(c, &trace).seconds).collect();
        for pair in times.windows(2) {
            assert!(pair[1] < pair[0], "core ordering: {times:?}");
        }
    }

    #[test]
    fn arm11_beats_microblaze_on_wall_clock() {
        let (trace, mb_cycles) = loop_trace(500);
        let mb_seconds = mb_cycles as f64 / 85e6;
        let r = simulate(&arm11(), &trace);
        assert!(r.seconds < mb_seconds, "ARM11 must beat the soft core");
        let speedup = mb_seconds / r.seconds;
        assert!(
            (4.0..10.0).contains(&speedup),
            "ARM11 speedup {speedup:.2} out of the plausible band"
        );
    }

    #[test]
    fn predictor_learns_loop_branches() {
        let (trace, _) = loop_trace(500);
        let r7 = simulate(&arm7(), &trace);
        let r11 = simulate(&arm11(), &trace);
        // ARM7 pays for every taken branch; the bimodal predictor should
        // mispredict only a handful of times.
        assert!(r11.mispredicts * 10 < r7.mispredicts, "{} vs {}", r11.mispredicts, r7.mispredicts);
    }

    #[test]
    fn static_prediction_handles_backward_loops() {
        let (trace, _) = loop_trace(200);
        let r10 = simulate(&arm10(), &trace);
        // Loop-closing branches are backward: the static predictor gets
        // them right except the final not-taken.
        assert!(r10.mispredicts <= 2, "got {}", r10.mispredicts);
    }

    #[test]
    fn caches_warm_up() {
        let (trace, _) = loop_trace(500);
        let r = simulate(&arm9(), &trace);
        assert!(r.icache_hit_rate > 0.99);
        assert!(r.dcache_hit_rate > 0.9);
    }

    #[test]
    fn cpi_bands_are_plausible() {
        let (trace, _) = loop_trace(500);
        for core in paper_cores() {
            let r = simulate(&core, &trace);
            assert!(
                (1.0..2.2).contains(&r.cpi),
                "{}: CPI {:.2} outside the scalar-core band",
                core.name,
                r.cpi
            );
        }
    }

    #[test]
    fn workload_traces_replay_cleanly() {
        let built = workloads::by_name("canrdr").unwrap().build(MbFeatures::paper_default());
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (out, trace) = sys.run_traced(100_000_000).unwrap();
        assert!(out.exited());
        let mb_seconds = out.cycles as f64 / 85e6;
        for core in paper_cores() {
            let r = simulate(&core, &trace);
            assert_eq!(r.instructions, trace.len() as u64);
            assert!(r.seconds > 0.0);
            let speedup = mb_seconds / r.seconds;
            assert!((0.8..12.0).contains(&speedup), "{}: {speedup:.2}", core.name);
        }
    }
}
