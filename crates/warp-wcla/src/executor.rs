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
//! Functional behaviour comes from [`execute_flat`], which runs the
//! kernel's word-level DFG — the source of truth the LUT netlist is
//! synthesized from — lowered once to a [`Tape`]. The DADG fetches the
//! next iteration's operands while the logic settles on the current
//! one; the executor stretches that overlap to chunks of up to 64
//! iterations. It fetches every load of a chunk first, evaluates the
//! DFG a column (one node across the whole chunk) at a time, and writes
//! the stores back iteration by iteration. Fetching ahead is sound only
//! when no early load reads a word that a pending store writes and no
//! access faults, so a chunk whose store span meets its load span, or
//! any of whose addresses would be misaligned or outside the BRAM, runs
//! one iteration at a time instead, each access checked in DADG order.
//! The tests below pin the executor against the kernel interpreter and
//! against a bit-level executor that evaluates the mapped netlist every
//! iteration; the netlist's equivalence to the configuration bitstream
//! is established by the fabric crate's tests, and
//! `tests/generated_kernels.rs` pins the chunks and their fallback on
//! generated kernels.

use mb_sim::{Bram, MemError};
use warp_cdfg::{LoopKernel, Op};
use warp_fabric::CompiledCircuit;
use warp_synth::LutNetlist;

use crate::{FABRIC_CLOCK_HZ, MAC_LATENCY};

/// Iterations per chunk: the height of the executor's columns.
const CHUNK: usize = 64;

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
    pub fn derive(kernel: &LoopKernel, netlist: &LutNetlist, compiled: &CompiledCircuit) -> Self {
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

/// One computed node: its operation, its own column and its operands'
/// columns (a unary operation names its operand twice).
#[derive(Clone, Copy, Debug)]
struct Step {
    op: Op,
    dst: usize,
    a: usize,
    b: usize,
}

/// One DADG access per iteration: a stream, a byte offset from its
/// cursor, and the column loaded into or stored from. A load no node
/// reads fills no column, but is still fetched.
#[derive(Clone, Copy, Debug)]
struct Access<S> {
    stream: usize,
    offset: i32,
    slot: S,
}

/// A [`LoopKernel`]'s word-level DFG lowered once for [`execute_flat`].
///
/// [`Tape::lower`] resolves every operand to a column: node `i` owns
/// the `i`-th column of an [`ExecScratch`], one word per iteration of a
/// chunk. Constants, invariants and inputs the kernel does not provide
/// become column fills, each DADG load names the column it fills, and
/// every other node becomes one step. Steps that do not depend on an
/// accumulator run over a whole column at once; the accumulator cone
/// runs iteration by iteration, each accumulator read taking the
/// previous iteration's next-value column.
///
/// Built from the kernel alone, so it needs no CAD, and kept in the
/// [`WclaCircuit`](crate::WclaCircuit), so every device hosting a
/// cached circuit shares it.
#[derive(Clone, Debug)]
pub struct Tape {
    /// Columns: one per DFG node.
    slots: usize,
    /// Bytes each stream advances per iteration.
    strides: Vec<i32>,
    /// Loads in DADG order: stream by stream, offsets in kernel order.
    loads: Vec<Access<Option<usize>>>,
    /// Stores in kernel order.
    stores: Vec<Access<usize>>,
    /// Constant columns, with inputs the kernel does not provide as 0.
    consts: Vec<(usize, u32)>,
    /// Invariant columns and the invariant index filling each.
    invs: Vec<(usize, usize)>,
    /// Accumulator-free steps, in topological order.
    columns: Vec<Step>,
    /// Accumulator-read columns and the accumulator index each reads.
    acc_reads: Vec<(usize, usize)>,
    /// Steps that depend on an accumulator, in topological order.
    cone: Vec<Step>,
    /// The next-value column of each accumulator.
    acc_next: Vec<usize>,
}

impl Tape {
    /// Lowers `kernel`'s DFG. An invariant or accumulator the kernel
    /// does not list, or a load its streams do not fetch, reads 0;
    /// nodes loading one (stream, offset) share the first one's column.
    #[must_use]
    pub fn lower(kernel: &LoopKernel) -> Self {
        let nodes = kernel.dfg.nodes();
        let mut tape = Tape {
            slots: nodes.len(),
            strides: kernel.streams.iter().map(|s| s.stride).collect(),
            loads: Vec::new(),
            stores: Vec::new(),
            consts: Vec::new(),
            invs: Vec::new(),
            columns: Vec::new(),
            acc_reads: Vec::new(),
            cone: Vec::new(),
            acc_next: Vec::new(),
        };
        // Per node: the column holding its value, and whether it
        // depends on an accumulator.
        let mut slot: Vec<usize> = Vec::with_capacity(nodes.len());
        let mut in_cone = vec![false; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            let mut col = i;
            match node.op {
                Op::LoadValue { stream, offset } => {
                    let fetched = kernel
                        .streams
                        .get(stream)
                        .is_some_and(|s| s.load_offsets.contains(&offset));
                    if fetched {
                        col = nodes[..i].iter().position(|n| n.op == node.op).unwrap_or(i);
                    } else {
                        tape.consts.push((i, 0));
                    }
                }
                Op::Invariant { reg } => match kernel.invariants.iter().position(|&r| r == reg) {
                    Some(k) => tape.invs.push((i, k)),
                    None => tape.consts.push((i, 0)),
                },
                Op::Acc { reg } => match kernel.accs.iter().position(|a| a.reg == reg) {
                    Some(k) => {
                        tape.acc_reads.push((i, k));
                        in_cone[i] = true;
                    }
                    None => tape.consts.push((i, 0)),
                },
                Op::Const(c) => tape.consts.push((i, c)),
                op => {
                    let a = slot[node.args[0].0 as usize];
                    let b = node.args.get(1).map_or(a, |id| slot[id.0 as usize]);
                    let step = Step { op, dst: i, a, b };
                    if node.args.iter().any(|id| in_cone[id.0 as usize]) {
                        in_cone[i] = true;
                        tape.cone.push(step);
                    } else {
                        tape.columns.push(step);
                    }
                }
            }
            slot.push(col);
        }
        for (stream, s) in kernel.streams.iter().enumerate() {
            for &offset in &s.load_offsets {
                let op = Op::LoadValue { stream, offset };
                let read = nodes.iter().position(|n| n.op == op);
                tape.loads.push(Access { stream, offset, slot: read });
            }
        }
        tape.stores = kernel
            .stores
            .iter()
            .map(|s| Access { stream: s.stream, offset: s.offset, slot: slot[s.value.0 as usize] })
            .collect();
        tape.acc_next = kernel.accs.iter().map(|a| slot[a.next.0 as usize]).collect();
        tape
    }

    /// Words of column buffer the executor needs for this tape.
    fn buffer_len(&self) -> usize {
        self.slots * CHUNK
    }

    /// Fills the first `n` rows of the constant and invariant columns.
    fn fill_inputs(&self, cols: &mut [u32], n: usize, invs: &[u32]) {
        for &(slot, c) in &self.consts {
            cols[slot * CHUNK..][..n].fill(c);
        }
        for &(slot, k) in &self.invs {
            cols[slot * CHUNK..][..n].fill(invs[k]);
        }
    }

    /// Evaluates `n` iterations whose input and load columns are
    /// filled, entering with accumulator values `accs` (left as they
    /// are; [`Tape::clock`] updates them).
    fn eval(&self, cols: &mut [u32], n: usize, accs: &[u32]) {
        for step in &self.columns {
            step.run_column(cols, n);
        }
        // No accumulator read means no cone.
        if self.acc_reads.is_empty() {
            return;
        }
        for j in 0..n {
            for &(slot, k) in &self.acc_reads {
                cols[slot * CHUNK + j] =
                    if j == 0 { accs[k] } else { cols[self.acc_next[k] * CHUNK + j - 1] };
            }
            for step in &self.cone {
                step.run_row(cols, j);
            }
        }
    }

    /// Clocks the accumulators to their values after iteration `j`.
    fn clock(&self, cols: &[u32], j: usize, accs: &mut [u32]) {
        for (acc, &slot) in accs.iter_mut().zip(&self.acc_next) {
            *acc = cols[slot * CHUNK + j];
        }
    }
}

impl Step {
    /// Computes rows `0..n` of this step's column. Its operands'
    /// columns precede it, since the DFG is topological.
    fn run_column(&self, cols: &mut [u32], n: usize) {
        let (src, dst) = cols.split_at_mut(self.dst * CHUNK);
        let out = &mut dst[..n];
        let a = &src[self.a * CHUNK..][..n];
        let b = &src[self.b * CHUNK..][..n];
        // One arm per operation, so each loop applies a fixed one.
        match self.op {
            Op::Add => zip_map(out, a, b, |x, y| alu(Op::Add, x, y)),
            Op::Sub => zip_map(out, a, b, |x, y| alu(Op::Sub, x, y)),
            Op::Mul => zip_map(out, a, b, |x, y| alu(Op::Mul, x, y)),
            Op::And => zip_map(out, a, b, |x, y| alu(Op::And, x, y)),
            Op::Or => zip_map(out, a, b, |x, y| alu(Op::Or, x, y)),
            Op::Xor => zip_map(out, a, b, |x, y| alu(Op::Xor, x, y)),
            Op::AndNot => zip_map(out, a, b, |x, y| alu(Op::AndNot, x, y)),
            Op::Shl(k) => zip_map(out, a, b, |x, y| alu(Op::Shl(k), x, y)),
            Op::Shr(k) => zip_map(out, a, b, |x, y| alu(Op::Shr(k), x, y)),
            Op::Sar(k) => zip_map(out, a, b, |x, y| alu(Op::Sar(k), x, y)),
            Op::ShlDyn => zip_map(out, a, b, |x, y| alu(Op::ShlDyn, x, y)),
            Op::ShrDyn => zip_map(out, a, b, |x, y| alu(Op::ShrDyn, x, y)),
            Op::SarDyn => zip_map(out, a, b, |x, y| alu(Op::SarDyn, x, y)),
            Op::Sext8 => zip_map(out, a, b, |x, y| alu(Op::Sext8, x, y)),
            Op::Sext16 => zip_map(out, a, b, |x, y| alu(Op::Sext16, x, y)),
            Op::LoadValue { .. } | Op::Invariant { .. } | Op::Acc { .. } | Op::Const(_) => {
                unreachable!("inputs are lowered to column fills")
            }
        }
    }

    /// Computes row `j` of this step's column.
    fn run_row(&self, cols: &mut [u32], j: usize) {
        cols[self.dst * CHUNK + j] =
            alu(self.op, cols[self.a * CHUNK + j], cols[self.b * CHUNK + j]);
    }
}

/// `out[i] = f(a[i], b[i])`: a fixed operation over equal-length
/// slices, which the compiler vectorises.
#[inline]
fn zip_map(out: &mut [u32], a: &[u32], b: &[u32], f: impl Fn(u32, u32) -> u32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// One computed operation on its operands (`y` is ignored by unary
/// ones), with [`Dfg::eval`](warp_cdfg::Dfg::eval)'s semantics.
#[inline(always)]
fn alu(op: Op, x: u32, y: u32) -> u32 {
    match op {
        Op::Add => x.wrapping_add(y),
        Op::Sub => x.wrapping_sub(y),
        Op::Mul => x.wrapping_mul(y),
        Op::And => x & y,
        Op::Or => x | y,
        Op::Xor => x ^ y,
        Op::AndNot => x & !y,
        Op::Shl(k) => x << (k & 31),
        Op::Shr(k) => x >> (k & 31),
        Op::Sar(k) => ((x as i32) >> (k & 31)) as u32,
        Op::ShlDyn => x << (y & 31),
        Op::ShrDyn => x >> (y & 31),
        Op::SarDyn => ((x as i32) >> (y & 31)) as u32,
        Op::Sext8 => x as u8 as i8 as i32 as u32,
        Op::Sext16 => x as u16 as i16 as i32 as u32,
        Op::LoadValue { .. } | Op::Invariant { .. } | Op::Acc { .. } | Op::Const(_) => {
            unreachable!("inputs are lowered to column fills")
        }
    }
}

/// A device's column buffer: one 64-word column per DFG node of its
/// [`Tape`], sized when the device is built, so a [`WclaDevice`]
/// invoked once per dispatch of the patched loop allocates nothing per
/// invocation.
///
/// [`WclaDevice`]: crate::WclaDevice
pub struct ExecScratch {
    cols: Vec<u32>,
}

impl ExecScratch {
    /// The buffer `tape` runs in.
    #[must_use]
    pub fn new(tape: &Tape) -> Self {
        ExecScratch { cols: vec![0; tape.buffer_len()] }
    }
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
/// registers straight in. `scratch` must be built for `tape`.
///
/// Functional behaviour uses the kernel's word-level DFG, bit-identical
/// to the synthesized netlist (pinned per workload by
/// `word_and_bit_level_executors_agree` below). Evaluating words
/// instead of LUT bits keeps warped hot loops within the same order of
/// host cost as the software engines.
///
/// Iterations run in chunks of up to 64, fetched ahead as the DADG
/// fetches ahead: first all the chunk's loads, read straight from the
/// BRAM's words; then the accumulator-free nodes a column at a time and
/// the accumulator cone in iteration order; then the stores, one
/// iteration at a time. A chunk runs one iteration at a time on the
/// same tape, with every access checked, when any address it would
/// generate (computed without wrapping) is misaligned or outside the
/// BRAM, or when the span its stores write meets the span its loads
/// read, since a load could then see an earlier iteration's store.
/// Results, errors and partial state are therefore those of running
/// every iteration in turn.
///
/// # Errors
///
/// Returns [`MemError`] if a generated address leaves the BRAM — the
/// hardware equivalent of a wild pointer. Memory then holds every store
/// made before the faulting access, and `ptrs` and `accs` hold their
/// values after the last whole iteration.
#[allow(clippy::too_many_arguments)]
pub fn execute_flat(
    tape: &Tape,
    model: &ExecModel,
    count: u32,
    ptrs: &mut [u32],
    accs: &mut [u32],
    invs: &[u32],
    dmem: &mut Bram,
    scratch: &mut ExecScratch,
) -> Result<FlatOutcome, MemError> {
    let cols = &mut scratch.cols[..];
    let mut left = count as usize;
    tape.fill_inputs(cols, left.min(CHUNK), invs);
    while left > 0 {
        let n = left.min(CHUNK);
        if columnar(tape, ptrs, n, dmem.size()) {
            fetch_columns(tape, ptrs, n, dmem.words(), cols);
            tape.eval(cols, n, accs);
            for j in 0..n {
                for s in &tape.stores {
                    let skip = (j as u32).wrapping_mul(tape.strides[s.stream] as u32);
                    let addr = ptrs[s.stream].wrapping_add(skip).wrapping_add(s.offset as u32);
                    dmem.write_word(addr, cols[s.slot * CHUNK + j])?;
                }
            }
            tape.clock(cols, n - 1, accs);
            advance(tape, ptrs, n);
        } else {
            for _ in 0..n {
                iterate_once(tape, ptrs, accs, dmem, cols)?;
            }
        }
        left -= n;
    }

    let iterations = u64::from(count);
    Ok(FlatOutcome {
        iterations,
        fabric_cycles: model.total_cycles(iterations),
        loads: iterations * tape.loads.len() as u64,
        stores: iterations * tape.stores.len() as u64,
    })
}

/// Whether the next `n` iterations can run a column at a time: every
/// address they generate, computed without wrapping, is word-aligned
/// and inside a BRAM of `size` bytes, and the span the stores write
/// does not meet the span the loads read.
fn columnar(tape: &Tape, ptrs: &[u32], n: usize, size: u32) -> bool {
    // The bytes `n` iterations touch at `offset` from a stream's cursor.
    let span = |stream: usize, offset: i32| {
        let stride = i64::from(tape.strides[stream]);
        let first = i64::from(ptrs[stream]) + i64::from(offset);
        let last = first + stride * (n as i64 - 1);
        let aligned = first % 4 == 0 && (n == 1 || stride % 4 == 0);
        let (lo, hi) = (first.min(last), first.max(last) + 3);
        (aligned && lo >= 0 && hi < i64::from(size)).then_some((lo, hi))
    };
    let mut loads = (i64::MAX, i64::MIN);
    for a in &tape.loads {
        let Some((lo, hi)) = span(a.stream, a.offset) else { return false };
        loads = (loads.0.min(lo), loads.1.max(hi));
    }
    let mut stores = (i64::MAX, i64::MIN);
    for a in &tape.stores {
        let Some((lo, hi)) = span(a.stream, a.offset) else { return false };
        stores = (stores.0.min(lo), stores.1.max(hi));
    }
    // An empty span starts after it ends, so it meets nothing.
    stores.0 > loads.1 || loads.0 > stores.1
}

/// Fills the load columns of `n` iterations from the BRAM's words, all
/// of whose addresses [`columnar`] has checked.
fn fetch_columns(tape: &Tape, ptrs: &[u32], n: usize, words: &[u32], cols: &mut [u32]) {
    for a in &tape.loads {
        let Some(slot) = a.slot else { continue };
        let first = (i64::from(ptrs[a.stream]) + i64::from(a.offset)) / 4;
        let step = i64::from(tape.strides[a.stream] / 4);
        for (j, v) in cols[slot * CHUNK..][..n].iter_mut().enumerate() {
            *v = words[(first + j as i64 * step) as usize];
        }
    }
}

/// Runs one iteration in row 0 of the columns, checking every access
/// in DADG order: all loads, then the stores. The accumulators and
/// stream cursors move only once the iteration has completed.
fn iterate_once(
    tape: &Tape,
    ptrs: &mut [u32],
    accs: &mut [u32],
    dmem: &mut Bram,
    cols: &mut [u32],
) -> Result<(), MemError> {
    for a in &tape.loads {
        let v = dmem.read_word(ptrs[a.stream].wrapping_add(a.offset as u32))?;
        if let Some(slot) = a.slot {
            cols[slot * CHUNK] = v;
        }
    }
    tape.eval(cols, 1, accs);
    for s in &tape.stores {
        dmem.write_word(ptrs[s.stream].wrapping_add(s.offset as u32), cols[s.slot * CHUNK])?;
    }
    tape.clock(cols, 0, accs);
    advance(tape, ptrs, 1);
    Ok(())
}

/// Moves every stream cursor on by `n` iterations.
fn advance(tape: &Tape, ptrs: &mut [u32], n: usize) {
    for (p, &stride) in ptrs.iter_mut().zip(&tape.strides) {
        *p = p.wrapping_add((stride as u32).wrapping_mul(n as u32));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::WclaCircuit;
    use mb_isa::{MbFeatures, Reg};
    use warp_cdfg::{decompile_loop, Dfg, KernelEnv, MemStream, StoreOp};
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
    /// interface the kernel interpreter shares.
    fn execute(
        circuit: &WclaCircuit,
        env: &KernelEnv,
        dmem: &mut Bram,
    ) -> Result<HwOutcome, MemError> {
        let kernel = &circuit.kernel;
        let mut scratch = ExecScratch::new(&circuit.tape);
        let mut ptrs: Vec<u32> = kernel.streams.iter().map(|s| env.pointers[&s.base]).collect();
        let mut accs: Vec<u32> =
            kernel.accs.iter().map(|a| env.accs.get(&a.reg).copied().unwrap_or(0)).collect();
        let invs: Vec<u32> =
            kernel.invariants.iter().map(|r| env.invariants.get(r).copied().unwrap_or(0)).collect();

        let flat = execute_flat(
            &circuit.tape,
            &circuit.model,
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
        circuit: &WclaCircuit,
        env: &KernelEnv,
        dmem: &mut Bram,
    ) -> Result<HwOutcome, MemError> {
        let WclaCircuit { kernel, netlist, model, .. } = circuit;
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
            let (circuit, _) = WclaCircuit::build(kernel.clone()).unwrap();

            // Seed memory from the workload's initial data.
            let mut hw_mem = Bram::new(64 * 1024);
            for (addr, words) in &built.data {
                hw_mem.load_words(*addr, words).unwrap();
            }
            let mut ref_mem = hw_mem.clone();

            // Environment: two whole chunks and a tail.
            let mut env = KernelEnv { counter: 150, ..KernelEnv::default() };
            for (si, s) in kernel.streams.iter().enumerate() {
                // Separate streams far enough that 150 iterations cannot
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

            let hw = execute(&circuit, &env, &mut hw_mem).unwrap();
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
            assert_eq!(hw.iterations, 150);
            assert!(hw.fabric_cycles >= 150, "{}: cycles sane", workload.name);
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
            let (circuit, _) = WclaCircuit::build(kernel.clone()).unwrap();

            let mut word_mem = Bram::new(64 * 1024);
            for (addr, words) in &built.data {
                word_mem.load_words(*addr, words).unwrap();
            }
            let mut bit_mem = word_mem.clone();

            // Two whole chunks and a tail.
            let mut env = KernelEnv { counter: 151, ..KernelEnv::default() };
            for (si, s) in kernel.streams.iter().enumerate() {
                env.pointers.insert(s.base, 0x1000 + (si as u32) * 0x2000);
            }
            for a in &kernel.accs {
                env.accs.insert(a.reg, 0xDEAD_BEEF);
            }
            for &r in &kernel.invariants {
                env.invariants.insert(r, 13);
            }

            let word = execute(&circuit, &env, &mut word_mem).unwrap();
            let bit = execute_netlist(&circuit, &env, &mut bit_mem).unwrap();

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
            let (circuit, _) = WclaCircuit::build(kernel).unwrap();
            circuit.model
        };
        let brev = get_model("brev");
        let idct = get_model("idct");
        // brev is wires; idct has 16 memory ops and 14 MACs.
        assert!(brev.cycles_per_iteration < idct.cycles_per_iteration);
        assert!(idct.mac_cycles >= 28);
        assert_eq!(brev.mem_ops, 2);
    }

    /// A load the streams do not fetch, an invariant or an accumulator
    /// the kernel does not list: each lowers to a constant 0 column.
    #[test]
    fn inputs_the_kernel_does_not_provide_read_zero() {
        let mut dfg = Dfg::new();
        let load = dfg.push(Op::LoadValue { stream: 0, offset: 8 }, vec![]);
        let inv = dfg.push(Op::Invariant { reg: Reg::R20 }, vec![]);
        let acc = dfg.push(Op::Acc { reg: Reg::R21 }, vec![]);
        let one = dfg.constant(1);
        let sum = dfg.push(Op::Add, vec![load, inv]);
        let sum = dfg.push(Op::Add, vec![sum, acc]);
        let sum = dfg.push(Op::Add, vec![sum, one]);
        let kernel = LoopKernel {
            head: 0,
            tail: 0,
            counter: Reg::R6,
            streams: vec![MemStream {
                base: Reg::R3,
                stride: 4,
                load_offsets: vec![0],
                store_offsets: vec![0x40],
            }],
            dfg,
            stores: vec![StoreOp { stream: 0, offset: 0x40, value: sum }],
            accs: Vec::new(),
            invariants: Vec::new(),
            dead_temps: Vec::new(),
            body_insns: 0,
        };
        let model = ExecModel {
            fabric_clock_hz: 1,
            mem_ops: 2,
            compute_cycles: 1,
            mac_cycles: 0,
            startup_cycles: 0,
            cycles_per_iteration: 2,
        };
        let tape = Tape::lower(&kernel);
        let mut dmem = Bram::new(0x100);
        dmem.load_words(0, &[u32::MAX; 0x10]).unwrap();
        let mut ptrs = [0];
        execute_flat(
            &tape,
            &model,
            3,
            &mut ptrs,
            &mut [],
            &[],
            &mut dmem,
            &mut ExecScratch::new(&tape),
        )
        .unwrap();
        assert_eq!(dmem.read_words(0x40, 4).unwrap(), [1, 1, 1, 0]);
        assert_eq!(ptrs, [12]);
    }
}
