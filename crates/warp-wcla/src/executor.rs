//! The WCLA hardware executor: cycle model and functional iteration.
//!
//! Per kernel iteration the DADG performs each load and store in one
//! fabric cycle against the dual-ported data BRAM, overlapped with the
//! fabric settle time of the previous values (the DADG prefetches the
//! next iteration's operands while the routed logic settles — a
//! multi-cycle combinational path held by the LCH); each MAC operation
//! then serializes for [`MAC_LATENCY`] cycles on
//! the single hard multiplier.
//!
//! Functional behaviour comes from [`execute_flat`], which evaluates
//! the kernel's word-level DFG — the source of truth the LUT netlist is
//! synthesized from. The tests below pin it against the kernel
//! interpreter and against a bit-level executor that evaluates the
//! mapped netlist every iteration; the netlist's equivalence to the
//! configuration bitstream is established by the fabric crate's tests.

use mb_sim::{Bram, MemError};
use warp_fabric::CompiledCircuit;
use warp_synth::LutNetlist;

use crate::{FABRIC_CLOCK_HZ, MAC_LATENCY};

/// The derived cycle model for one compiled kernel.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExecModel {
    /// Fabric clock (Hz), capped by the WCLA ceiling.
    pub fabric_clock_hz: u64,
    /// DADG memory operations per iteration.
    pub mem_ops: u64,
    /// Fabric-settle cycles per iteration (multi-cycle path).
    pub compute_cycles: u64,
    /// MAC serialization cycles per iteration.
    pub mac_cycles: u64,
    /// Fixed per-invocation startup cycles (LCH arm + first addresses).
    pub startup_cycles: u64,
    /// Total cycles for one iteration.
    pub cycles_per_iteration: u64,
}

impl ExecModel {
    /// Derives the model from a compiled circuit.
    #[must_use]
    pub fn derive(
        kernel: &warp_cdfg::LoopKernel,
        netlist: &LutNetlist,
        compiled: &CompiledCircuit,
    ) -> Self {
        let fabric_clock_hz = FABRIC_CLOCK_HZ;
        let period_ns = 1e9 / fabric_clock_hz as f64;
        let compute_cycles = (compiled.timing.critical_path_ns / period_ns).ceil().max(1.0) as u64;
        let mem_ops = kernel.mem_ops_per_iter() as u64;
        let mac_cycles = netlist.macs().len() as u64 * MAC_LATENCY;
        ExecModel {
            fabric_clock_hz,
            mem_ops,
            compute_cycles,
            mac_cycles,
            startup_cycles: 4,
            // DADG memory traffic overlaps fabric settle; the MAC chain
            // serializes after both.
            cycles_per_iteration: mem_ops.max(compute_cycles) + mac_cycles,
        }
    }

    /// Fabric cycles to run `iterations` iterations.
    #[must_use]
    pub fn total_cycles(&self, iterations: u64) -> u64 {
        self.startup_cycles + iterations * self.cycles_per_iteration
    }

    /// Wall-clock seconds for `iterations`.
    #[must_use]
    pub fn seconds(&self, iterations: u64) -> f64 {
        self.total_cycles(iterations) as f64 / self.fabric_clock_hz as f64
    }
}

/// Reusable per-device evaluation buffers: a [`WclaDevice`] is invoked
/// many times per warp (once per dispatch of the patched loop), and the
/// serving hot path must not allocate per invocation.
///
/// [`WclaDevice`]: crate::WclaDevice
#[derive(Default)]
pub struct ExecScratch {
    vals: Vec<u32>,
    load_vals: Vec<((usize, i32), u32)>,
}

/// One hardware invocation's counters; accumulators are updated in the
/// caller's buffer in place.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlatOutcome {
    /// Iterations executed (the seeded counter value).
    pub iterations: u64,
    /// Fabric cycles consumed.
    pub fabric_cycles: u64,
    /// Loads performed.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
}

/// Executes a compiled kernel against the data BRAM, allocation-free:
/// all inputs and outputs are flat, index-aligned buffers (`ptrs` by
/// stream index, `accs` by kernel accumulator index, `invs` by kernel
/// invariant index), updated in place so a device can feed its own
/// registers straight in.
///
/// Functional behaviour uses the kernel's word-level DFG, bit-identical
/// to the synthesized netlist (pinned per workload by
/// `word_and_bit_level_executors_agree` below). Evaluating words
/// instead of LUT bits keeps warped hot loops within the same order of
/// host cost as the software engines.
///
/// # Errors
///
/// Returns [`MemError`] if a generated address leaves the BRAM — the
/// hardware equivalent of a wild pointer.
#[allow(clippy::too_many_arguments)]
pub fn execute_flat(
    kernel: &warp_cdfg::LoopKernel,
    model: &ExecModel,
    count: u32,
    ptrs: &mut [u32],
    accs: &mut [u32],
    invs: &[u32],
    dmem: &mut Bram,
    scratch: &mut ExecScratch,
) -> Result<FlatOutcome, MemError> {
    let iterations = u64::from(count);
    let mut loads = 0u64;
    let mut stores = 0u64;
    let ExecScratch { vals, load_vals } = scratch;

    for _ in 0..iterations {
        // DADG load phase: fetch every (stream, offset) word.
        load_vals.clear();
        for (si, s) in kernel.streams.iter().enumerate() {
            let base = ptrs[si];
            for &off in &s.load_offsets {
                let v = dmem.read_word(base.wrapping_add(off as u32))?;
                load_vals.push(((si, off), v));
                loads += 1;
            }
        }

        // Word-level settle: one pass over the DFG in topological
        // order. The operand sets are tiny, so linear scans beat maps.
        kernel.dfg.eval_into(
            vals,
            |stream, offset| {
                load_vals.iter().find(|(k, _)| *k == (stream, offset)).map_or(0, |(_, v)| *v)
            },
            |reg| kernel.invariants.iter().position(|&r| r == reg).map_or(0, |k| invs[k]),
            |reg| kernel.accs.iter().position(|a| a.reg == reg).map_or(0, |k| accs[k]),
        );

        // DADG store phase.
        for s in &kernel.stores {
            let base = ptrs[s.stream];
            dmem.write_word(base.wrapping_add(s.offset as u32), vals[s.value.0 as usize])?;
            stores += 1;
        }

        // Clock the accumulators and advance the streams.
        for (k, a) in kernel.accs.iter().enumerate() {
            accs[k] = vals[a.next.0 as usize];
        }
        for (si, s) in kernel.streams.iter().enumerate() {
            ptrs[si] = ptrs[si].wrapping_add(s.stride as u32);
        }
    }

    Ok(FlatOutcome { iterations, fabric_cycles: model.total_cycles(iterations), loads, stores })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use mb_isa::{MbFeatures, Reg};
    use warp_cdfg::{decompile_loop, KernelEnv};
    use warp_synth::bits::InputWord;

    /// Result of one hardware invocation, accumulators keyed by register.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct HwOutcome {
        /// Iterations executed (the seeded counter value).
        iterations: u64,
        /// Fabric cycles consumed.
        fabric_cycles: u64,
        /// Final accumulator values (register → value).
        accs: BTreeMap<Reg, u32>,
        /// Loads performed.
        loads: u64,
        /// Stores performed.
        stores: u64,
    }

    /// [`execute_flat`] behind a register-keyed [`KernelEnv`], the
    /// interface the kernel interpreter shares. The netlist is unused:
    /// the signature matches [`execute_netlist`] so the two executors
    /// are called alike.
    fn execute(
        kernel: &warp_cdfg::LoopKernel,
        _netlist: &LutNetlist,
        model: &ExecModel,
        env: &KernelEnv,
        dmem: &mut Bram,
    ) -> Result<HwOutcome, MemError> {
        let mut scratch = ExecScratch::default();
        let mut ptrs: Vec<u32> = kernel.streams.iter().map(|s| env.pointers[&s.base]).collect();
        let mut accs: Vec<u32> =
            kernel.accs.iter().map(|a| env.accs.get(&a.reg).copied().unwrap_or(0)).collect();
        let invs: Vec<u32> =
            kernel.invariants.iter().map(|r| env.invariants.get(r).copied().unwrap_or(0)).collect();

        let flat = execute_flat(
            kernel,
            model,
            env.counter,
            &mut ptrs,
            &mut accs,
            &invs,
            dmem,
            &mut scratch,
        )?;

        let accs: BTreeMap<Reg, u32> =
            kernel.accs.iter().enumerate().map(|(k, a)| (a.reg, accs[k])).collect();
        Ok(HwOutcome {
            iterations: flat.iterations,
            fabric_cycles: flat.fabric_cycles,
            accs,
            loads: flat.loads,
            stores: flat.stores,
        })
    }

    /// The bit-level oracle: the same contract as [`execute`], but
    /// functional behaviour comes from evaluating the mapped LUT
    /// netlist every iteration, anchoring the word-level path to the
    /// synthesized hardware.
    fn execute_netlist(
        kernel: &warp_cdfg::LoopKernel,
        netlist: &LutNetlist,
        model: &ExecModel,
        env: &KernelEnv,
        dmem: &mut Bram,
    ) -> Result<HwOutcome, MemError> {
        let iterations = u64::from(env.counter);
        let mut pointers: BTreeMap<Reg, u32> = env.pointers.clone();
        let invariants = env.invariants.clone();

        // FF state in netlist FF order.
        let mut ff_state: Vec<bool> = netlist
            .ffs()
            .iter()
            .map(|f| env.accs.get(&f.reg).copied().unwrap_or(0) >> f.bit & 1 == 1)
            .collect();

        let mut loads = 0u64;
        let mut stores = 0u64;

        for _ in 0..iterations {
            // DADG load phase: fetch every (stream, offset) word.
            let mut load_vals: BTreeMap<(usize, i32), u32> = BTreeMap::new();
            for (si, s) in kernel.streams.iter().enumerate() {
                let base = pointers[&s.base];
                for &off in &s.load_offsets {
                    let v = dmem.read_word(base.wrapping_add(off as u32))?;
                    load_vals.insert((si, off), v);
                    loads += 1;
                }
            }

            // Fabric settle.
            let eval = netlist.eval(
                |w| match w {
                    InputWord::Load { stream, offset } => load_vals[&(stream, offset)],
                    InputWord::Invariant(r) => invariants.get(&r).copied().unwrap_or(0),
                    InputWord::MacOut(_) => unreachable!("resolved internally"),
                },
                &ff_state,
            );

            // DADG store phase.
            for (out, s) in netlist.outputs().iter().zip(&kernel.stores) {
                let base = pointers[&kernel.streams[s.stream].base];
                dmem.write_word(base.wrapping_add(s.offset as u32), eval.word(&out.bits))?;
                stores += 1;
            }

            // Clock the accumulator flip-flops and advance the streams.
            let next: Vec<bool> = netlist.ffs().iter().map(|f| eval.value(f.d)).collect();
            ff_state = next;
            for s in &kernel.streams {
                let p = pointers.get_mut(&s.base).expect("pointer seeded");
                *p = p.wrapping_add(s.stride as u32);
            }
        }

        // Reassemble accumulator words from FF state.
        let mut accs: BTreeMap<Reg, u32> = BTreeMap::new();
        for (k, f) in netlist.ffs().iter().enumerate() {
            let e = accs.entry(f.reg).or_insert(0);
            *e |= u32::from(ff_state[k]) << f.bit;
        }

        Ok(HwOutcome {
            iterations,
            fabric_cycles: model.total_cycles(iterations),
            accs,
            loads,
            stores,
        })
    }

    /// Hardware execution must equal the kernel interpreter (and hence,
    /// via the decompiler tests, software execution) on real workloads.
    #[test]
    fn hardware_matches_interpreter_on_workloads() {
        for workload in workloads::all() {
            let built = workload.build(MbFeatures::paper_default());
            let kernel =
                decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
            let (circuit, _) = crate::WclaCircuit::build(kernel.clone()).unwrap();

            // Seed memory from the workload's initial data.
            let mut hw_mem = Bram::new(64 * 1024);
            for (addr, words) in &built.data {
                hw_mem.load_words(*addr, words).unwrap();
            }
            let mut ref_mem = hw_mem.clone();

            // Environment: run a modest number of iterations.
            let mut env = KernelEnv { counter: 40, ..KernelEnv::default() };
            for (si, s) in kernel.streams.iter().enumerate() {
                // Separate streams far enough that 40 iterations cannot
                // overlap (the reference interpreter reads a frozen
                // snapshot, the hardware reads live memory).
                let base = 0x1000 + (si as u32) * 0x2000;
                env.pointers.insert(s.base, base);
            }
            for a in &kernel.accs {
                env.accs.insert(a.reg, 0x0BAD_F00D);
            }
            for &r in &kernel.invariants {
                env.invariants.insert(r, 7);
            }

            let hw = execute(&circuit.kernel, &circuit.netlist, &circuit.model, &env, &mut hw_mem)
                .unwrap();
            let mut ref_env = env.clone();
            let ref_mem_ro = ref_mem.clone();
            let mut ref_stores = Vec::new();
            kernel.interpret(
                &mut ref_env,
                |addr| ref_mem_ro.read_word(addr).unwrap(),
                |addr, v| ref_stores.push((addr, v)),
            );
            for (addr, v) in ref_stores {
                ref_mem.write_word(addr, v).unwrap();
            }

            assert_eq!(hw_mem.words(), ref_mem.words(), "{}: memory diverged", workload.name);
            for a in &kernel.accs {
                assert_eq!(hw.accs[&a.reg], ref_env.accs[&a.reg], "{}: acc", workload.name);
            }
            assert_eq!(hw.iterations, 40);
            assert!(hw.fabric_cycles >= 40, "{}: cycles sane", workload.name);
        }
    }

    /// The word-level fast path and the bit-level netlist reference
    /// must agree exactly — outcome, accumulators, memory image, and
    /// stats — for every registry workload. This is the anchor that
    /// lets [`execute`] skip LUT evaluation at runtime.
    #[test]
    fn word_and_bit_level_executors_agree() {
        for workload in workloads::all() {
            let built = workload.build(MbFeatures::paper_default());
            let kernel =
                decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
            let (circuit, _) = crate::WclaCircuit::build(kernel.clone()).unwrap();

            let mut word_mem = Bram::new(64 * 1024);
            for (addr, words) in &built.data {
                word_mem.load_words(*addr, words).unwrap();
            }
            let mut bit_mem = word_mem.clone();

            let mut env = KernelEnv { counter: 37, ..KernelEnv::default() };
            for (si, s) in kernel.streams.iter().enumerate() {
                env.pointers.insert(s.base, 0x1000 + (si as u32) * 0x2000);
            }
            for a in &kernel.accs {
                env.accs.insert(a.reg, 0xDEAD_BEEF);
            }
            for &r in &kernel.invariants {
                env.invariants.insert(r, 13);
            }

            let word =
                execute(&circuit.kernel, &circuit.netlist, &circuit.model, &env, &mut word_mem)
                    .unwrap();
            let bit = execute_netlist(
                &circuit.kernel,
                &circuit.netlist,
                &circuit.model,
                &env,
                &mut bit_mem,
            )
            .unwrap();

            assert_eq!(word, bit, "{}: outcome diverged", workload.name);
            assert_eq!(word_mem.words(), bit_mem.words(), "{}: memory diverged", workload.name);
        }
    }

    #[test]
    fn cycle_model_orders_kernels_sensibly() {
        let get_model = |name: &str| {
            let built = workloads::by_name(name).unwrap().build(MbFeatures::paper_default());
            let kernel =
                decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
            let (circuit, _) = crate::WclaCircuit::build(kernel).unwrap();
            circuit.model
        };
        let brev = get_model("brev");
        let idct = get_model("idct");
        // brev is wires; idct has 16 memory ops and 14 MACs.
        assert!(brev.cycles_per_iteration < idct.cycles_per_iteration);
        assert!(idct.mac_cycles >= 28);
        assert_eq!(brev.mem_ops, 2);
    }
}
