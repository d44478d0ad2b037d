//! The complete simulated system: CPU + memories + buses + peripherals.

use std::error::Error;
use std::fmt;

use mb_isa::{decode, DecodeError, Insn, MemSize, Program};

use crate::block::{Block, BlockOp, Effect, Guard, ProgramStore};
use crate::image::ProgramImage;
use crate::periph::{OpbBus, Peripheral, EXIT_PORT_BASE, OPB_BASE};
use crate::predecode::Predecoded;
use crate::sink::{BlockRetire, NullSink, TraceSink};
use crate::trace::{Trace, TraceEvent};
use crate::{Bram, Cpu, ExecStats, ExitPort, MbConfig, MemError};

/// Why a [`System::run`] call stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The program wrote the exit port with this code.
    Exited(u32),
    /// The cycle budget was exhausted first.
    CycleLimit,
}

/// Result of running the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Outcome {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Total cycles consumed.
    pub cycles: u64,
    /// Total instructions retired.
    pub instructions: u64,
}

impl Outcome {
    /// Whether the program exited via the exit port.
    #[must_use]
    pub fn exited(&self) -> bool {
        matches!(self.stop, StopReason::Exited(_))
    }

    /// The exit code, if the program exited.
    #[must_use]
    pub fn exit_code(&self) -> Option<u32> {
        match self.stop {
            StopReason::Exited(c) => Some(c),
            StopReason::CycleLimit => None,
        }
    }
}

/// Execution error: the simulated program did something illegal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunError {
    /// A memory access failed.
    Mem {
        /// PC of the faulting instruction.
        pc: u32,
        /// Underlying memory error.
        err: MemError,
    },
    /// Instruction fetch returned an undecodable word.
    Decode {
        /// PC of the faulting fetch.
        pc: u32,
        /// Underlying decode error.
        err: DecodeError,
    },
    /// The instruction needs a functional unit this configuration lacks.
    UnsupportedInsn {
        /// PC of the faulting instruction.
        pc: u32,
    },
    /// A data access hit an address with no memory or peripheral.
    UnmappedAddress {
        /// PC of the faulting instruction.
        pc: u32,
        /// The unmapped data address.
        addr: u32,
    },
    /// A control-flow instruction appeared in a delay slot.
    BranchInDelaySlot {
        /// PC of the offending delay-slot instruction.
        pc: u32,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Mem { pc, err } => write!(f, "memory fault at pc {pc:#010x}: {err}"),
            RunError::Decode { pc, err } => write!(f, "fetch fault at pc {pc:#010x}: {err}"),
            RunError::UnsupportedInsn { pc } => {
                write!(f, "instruction at pc {pc:#010x} needs a unit this core lacks")
            }
            RunError::UnmappedAddress { pc, addr } => {
                write!(f, "unmapped address {addr:#010x} at pc {pc:#010x}")
            }
            RunError::BranchInDelaySlot { pc } => {
                write!(f, "control-flow instruction in delay slot at pc {pc:#010x}")
            }
        }
    }
}

impl Error for RunError {}

/// The execution engine a [`System`] actually dispatches through —
/// derived from the configuration, never silently downgraded. Benchmark
/// harnesses and equality tests assert this instead of assuming the
/// configuration they requested is the engine they got.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Decode-per-fetch reference loop (`predecode` off): the seed
    /// behavior, re-decoding every fetched word.
    Reference,
    /// Per-instruction stepping over the pre-decoded store (`blocks`
    /// off).
    Step,
    /// Superblock retirement: straight-line blocks ending at control
    /// flow (`traces` off).
    Block,
    /// Megablock loop traces: superblocks chained across predicted-taken
    /// backward branches with guarded side exits (the default).
    Trace,
}

impl Engine {
    /// Stable identifier used in `BENCH_sim.json` and CI gates.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Reference => "reference_decode_per_fetch",
            Engine::Step => "predecoded_step",
            Engine::Block => "block",
            Engine::Trace => "trace",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// MicroBlaze divide semantics, shared verbatim by the step engine's
/// [`System::execute`] and the block engine's `exec_effect` so the two
/// can never drift: `rd = dividend ÷ divisor`, divide-by-zero yields 0,
/// and signed overflow (`i32::MIN / -1`) wraps.
#[inline]
fn divide(divisor: u32, dividend: u32, unsigned: bool) -> u32 {
    if divisor == 0 {
        0
    } else if unsigned {
        dividend / divisor
    } else {
        ((dividend as i32).wrapping_div(divisor as i32)) as u32
    }
}

/// MicroBlaze `cmp`/`cmpu` result, shared by every engine: the
/// subtraction's low 31 bits with the sign bit replaced by the
/// (signedness-aware) `rb < ra` outcome.
#[inline]
fn compare(a: u32, b: u32, unsigned: bool) -> u32 {
    let diff = b.wrapping_sub(a);
    let lt = if unsigned { b < a } else { (b as i32) < (a as i32) };
    (diff & 0x7FFF_FFFF) | (u32::from(lt) << 31)
}

/// Control-flow outcome of one instruction.
enum Next {
    Seq,
    Jump(u32),
    JumpAfterDelay(u32),
}

struct Exec {
    next: Next,
    cycles: u32,
    taken: Option<bool>,
    target: Option<u32>,
    ea: Option<u32>,
}

/// A complete MicroBlaze system (Figure 1 of the paper): CPU, separate
/// instruction and data BRAMs on local memory buses, and an OPB
/// peripheral bus with at least the exit port mapped.
pub struct System {
    config: MbConfig,
    cpu: Cpu,
    imem: Bram,
    dmem: Bram,
    opb: OpbBus,
    stats: ExecStats,
    halted: Option<u32>,
    /// Pre-decoded slots and fused blocks derived from `imem` (see
    /// [`MbConfig::predecode`] and [`MbConfig::blocks`]).
    store: ProgramStore,
    /// Reusable per-block event buffer (filled only for sinks whose
    /// [`TraceSink::WANTS_EVENTS`] is true).
    block_events: Vec<TraceEvent>,
    /// Reusable `(op index, effective address)` scratch so a partially
    /// retired block can reconstruct exact events for batched sinks.
    block_eas: Vec<(u32, u32)>,
}

impl System {
    /// Creates a system per the configuration, with the exit port mapped
    /// at [`EXIT_PORT_BASE`].
    #[must_use]
    pub fn new(config: MbConfig) -> Self {
        let mut opb = OpbBus::default();
        opb.map(EXIT_PORT_BASE, 16, Box::new(ExitPort::new()));
        System {
            cpu: Cpu::new(),
            imem: Bram::new(config.imem_bytes),
            dmem: Bram::new(config.dmem_bytes),
            opb,
            stats: ExecStats::new(),
            halted: None,
            store: ProgramStore::new(config.traces),
            block_events: Vec::new(),
            block_eas: Vec::new(),
            config,
        }
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &MbConfig {
        &self.config
    }

    /// The execution engine this configuration actually dispatches
    /// through: a pure function of [`MbConfig`], with no hidden
    /// downgrade path.
    #[must_use]
    pub fn active_engine(&self) -> Engine {
        if !self.config.predecode {
            Engine::Reference
        } else if !self.config.blocks {
            Engine::Step
        } else if !self.config.traces {
            Engine::Block
        } else {
            Engine::Trace
        }
    }

    /// Loads a program into instruction memory and points the PC at its
    /// base address.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Mem`] if the program does not fit.
    pub fn load_program(&mut self, program: &Program) -> Result<(), RunError> {
        self.write_imem(program.base, &program.words)
            .map_err(|err| RunError::Mem { pc: program.base, err })?;
        self.cpu.set_pc(program.base);
        Ok(())
    }

    /// Loads words into data memory.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Mem`] if the region does not fit.
    pub fn load_data(&mut self, addr: u32, words: &[u32]) -> Result<(), RunError> {
        self.dmem.load_words(addr, words).map_err(|err| RunError::Mem { pc: 0, err })
    }

    /// Maps a peripheral into the OPB window.
    pub fn map_peripheral(&mut self, base: u32, size: u32, dev: Box<dyn Peripheral>) {
        self.opb.map(base, size, dev);
    }

    /// The CPU state.
    #[must_use]
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU state (for test setup).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The data BRAM.
    #[must_use]
    pub fn dmem(&self) -> &Bram {
        &self.dmem
    }

    /// The instruction BRAM (the DPM reads it through the dual-ported
    /// interface and patches it through [`System::write_imem`]).
    #[must_use]
    pub fn imem(&self) -> &Bram {
        &self.imem
    }

    /// Writes `words` into instruction memory from byte address `addr`:
    /// the one way to change the program, and the interface the dynamic
    /// partitioning module patches the running binary through. The
    /// written words' pre-decoded slots and every fused block
    /// overlapping them are dropped here, so the next fetch or dispatch
    /// sees the new code and everything else stays warm.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if `addr` is misaligned or the words do not
    /// fit; nothing is written then.
    pub fn write_imem(&mut self, addr: u32, words: &[u32]) -> Result<(), MemError> {
        self.store.write(&mut self.imem, addr, words)
    }

    /// Accumulated execution statistics.
    #[must_use]
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Whether the program has written the exit port.
    #[must_use]
    pub fn halted(&self) -> Option<u32> {
        self.halted
    }

    #[inline]
    fn fetch(&mut self, pc: u32) -> Result<Predecoded, RunError> {
        if self.config.predecode {
            return self.store.fetch(&self.imem, &self.config.features, pc);
        }
        // Decode-per-fetch reference path (the seed behavior), kept for
        // the fast-path equivalence tests and `simperf` baseline: every
        // fetch re-reads the word, re-decodes it, and re-derives the
        // per-instruction properties.
        let word = self.imem.read_word(pc).map_err(|err| RunError::Mem { pc, err })?;
        let insn = decode(word).map_err(|err| RunError::Decode { pc, err })?;
        Ok(Predecoded::prepare(insn, &self.config.features))
    }

    fn data_load(&mut self, pc: u32, addr: u32, size: MemSize) -> Result<(u32, u32), RunError> {
        if addr >= OPB_BASE {
            let Some((m, off)) = self.opb.find(addr) else {
                return Err(RunError::UnmappedAddress { pc, addr });
            };
            let r = m.dev.read(off, &mut self.dmem);
            Ok((r.value, r.wait))
        } else {
            let value = self.dmem.read(addr, size).map_err(|err| RunError::Mem { pc, err })?;
            Ok((value, 0))
        }
    }

    fn data_store(
        &mut self,
        pc: u32,
        addr: u32,
        value: u32,
        size: MemSize,
    ) -> Result<u32, RunError> {
        if addr >= OPB_BASE {
            let Some((m, off)) = self.opb.find(addr) else {
                return Err(RunError::UnmappedAddress { pc, addr });
            };
            Ok(m.dev.write(off, value, &mut self.dmem))
        } else {
            self.dmem.write(addr, value, size).map_err(|err| RunError::Mem { pc, err })?;
            Ok(0)
        }
    }

    /// Executes one prepared instruction (no delay-slot handling) over
    /// this system's CPU, dmem, and OPB: the one implementation
    /// of MicroBlaze instruction semantics, which the block engine's
    /// lowered effects ([`exec_alu`](System::exec_alu),
    /// [`exec_mem`](System::exec_mem)) mirror.
    #[inline]
    fn execute(&mut self, pc: u32, d: &Predecoded) -> Result<Exec, RunError> {
        if !d.supported {
            return Err(RunError::UnsupportedInsn { pc });
        }
        let cpu_carry = u32::from(self.cpu.carry());
        let mut cycles = d.lat_not_taken;
        let mut next = Next::Seq;
        let mut taken = None;
        let mut target = None;
        let mut ea = None;

        match d.insn {
            Insn::Add { rd, ra, rb, keep_carry, use_carry } => {
                let cin = if use_carry { cpu_carry } else { 0 };
                let v = self.add_with_carry(self.cpu.reg(ra), self.cpu.reg(rb), cin, keep_carry);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Rsub { rd, ra, rb, keep_carry, use_carry } => {
                let cin = if use_carry { cpu_carry } else { 1 };
                let v = self.add_with_carry(!self.cpu.reg(ra), self.cpu.reg(rb), cin, keep_carry);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Addi { rd, ra, imm, keep_carry, use_carry } => {
                let imm32 = self.cpu.take_imm(imm);
                let cin = if use_carry { cpu_carry } else { 0 };
                let v = self.add_with_carry(self.cpu.reg(ra), imm32, cin, keep_carry);
                self.cpu.set_reg(rd, v);
            }
            Insn::Rsubi { rd, ra, imm, keep_carry, use_carry } => {
                let imm32 = self.cpu.take_imm(imm);
                let cin = if use_carry { cpu_carry } else { 1 };
                let v = self.add_with_carry(!self.cpu.reg(ra), imm32, cin, keep_carry);
                self.cpu.set_reg(rd, v);
            }
            Insn::Cmp { rd, ra, rb, unsigned } => {
                let v = compare(self.cpu.reg(ra), self.cpu.reg(rb), unsigned);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Mul { rd, ra, rb } => {
                let v = self.cpu.reg(ra).wrapping_mul(self.cpu.reg(rb));
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Muli { rd, ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let v = self.cpu.reg(ra).wrapping_mul(imm32);
                self.cpu.set_reg(rd, v);
            }
            Insn::Idiv { rd, ra, rb, unsigned } => {
                // MicroBlaze: rd = rb ÷ ra.
                let v = divide(self.cpu.reg(ra), self.cpu.reg(rb), unsigned);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Bs { rd, ra, rb, kind } => {
                let v = kind.apply(self.cpu.reg(ra), self.cpu.reg(rb));
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Bsi { rd, ra, amount, kind } => {
                let v = kind.apply(self.cpu.reg(ra), u32::from(amount));
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Or { rd, ra, rb } => {
                let v = self.cpu.reg(ra) | self.cpu.reg(rb);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::And { rd, ra, rb } => {
                let v = self.cpu.reg(ra) & self.cpu.reg(rb);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Xor { rd, ra, rb } => {
                let v = self.cpu.reg(ra) ^ self.cpu.reg(rb);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Andn { rd, ra, rb } => {
                let v = self.cpu.reg(ra) & !self.cpu.reg(rb);
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Ori { rd, ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let v = self.cpu.reg(ra) | imm32;
                self.cpu.set_reg(rd, v);
            }
            Insn::Andi { rd, ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let v = self.cpu.reg(ra) & imm32;
                self.cpu.set_reg(rd, v);
            }
            Insn::Xori { rd, ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let v = self.cpu.reg(ra) ^ imm32;
                self.cpu.set_reg(rd, v);
            }
            Insn::Andni { rd, ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let v = self.cpu.reg(ra) & !imm32;
                self.cpu.set_reg(rd, v);
            }
            Insn::Sra { rd, ra } => {
                self.shift_sra(rd, ra);
                self.cpu.clear_imm_prefix();
            }
            Insn::Src { rd, ra } => {
                self.shift_src(rd, ra, cpu_carry);
                self.cpu.clear_imm_prefix();
            }
            Insn::Srl { rd, ra } => {
                self.shift_srl(rd, ra);
                self.cpu.clear_imm_prefix();
            }
            Insn::Sext8 { rd, ra } => {
                let v = self.cpu.reg(ra) as u8 as i8 as i32 as u32;
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Sext16 { rd, ra } => {
                let v = self.cpu.reg(ra) as u16 as i16 as i32 as u32;
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
            }
            Insn::Br { rd, rb, link, absolute, delay } => {
                let t = if absolute { self.cpu.reg(rb) } else { pc.wrapping_add(self.cpu.reg(rb)) };
                if link {
                    self.cpu.set_reg(rd, pc);
                }
                self.cpu.clear_imm_prefix();
                cycles = d.lat_taken;
                taken = Some(true);
                target = Some(t);
                next = if delay { Next::JumpAfterDelay(t) } else { Next::Jump(t) };
            }
            Insn::Bri { rd, imm, link, absolute, delay } => {
                let imm32 = self.cpu.take_imm(imm);
                let t = if absolute { imm32 } else { pc.wrapping_add(imm32) };
                if link {
                    self.cpu.set_reg(rd, pc);
                }
                cycles = d.lat_taken;
                taken = Some(true);
                target = Some(t);
                next = if delay { Next::JumpAfterDelay(t) } else { Next::Jump(t) };
            }
            Insn::Bc { cond, ra, rb, delay } => {
                let t = pc.wrapping_add(self.cpu.reg(rb));
                let is_taken = cond.eval(self.cpu.reg(ra));
                self.cpu.clear_imm_prefix();
                cycles = if is_taken { d.lat_taken } else { d.lat_not_taken };
                taken = Some(is_taken);
                if is_taken {
                    target = Some(t);
                    next = if delay { Next::JumpAfterDelay(t) } else { Next::Jump(t) };
                }
            }
            Insn::Bci { cond, ra, imm, delay } => {
                let imm32 = self.cpu.take_imm(imm);
                let t = pc.wrapping_add(imm32);
                let is_taken = cond.eval(self.cpu.reg(ra));
                cycles = if is_taken { d.lat_taken } else { d.lat_not_taken };
                taken = Some(is_taken);
                if is_taken {
                    target = Some(t);
                    next = if delay { Next::JumpAfterDelay(t) } else { Next::Jump(t) };
                }
            }
            Insn::Rtsd { ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let t = self.cpu.reg(ra).wrapping_add(imm32);
                cycles = d.lat_taken;
                taken = Some(true);
                target = Some(t);
                next = Next::JumpAfterDelay(t);
            }
            Insn::Load { size, rd, ra, rb } => {
                let addr = self.cpu.reg(ra).wrapping_add(self.cpu.reg(rb));
                let (v, wait) = self.data_load(pc, addr, size)?;
                self.cpu.set_reg(rd, v);
                self.cpu.clear_imm_prefix();
                cycles += wait;
                ea = Some(addr);
            }
            Insn::Loadi { size, rd, ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let addr = self.cpu.reg(ra).wrapping_add(imm32);
                let (v, wait) = self.data_load(pc, addr, size)?;
                self.cpu.set_reg(rd, v);
                cycles += wait;
                ea = Some(addr);
            }
            Insn::Store { size, rd, ra, rb } => {
                let addr = self.cpu.reg(ra).wrapping_add(self.cpu.reg(rb));
                let wait = self.data_store(pc, addr, self.cpu.reg(rd), size)?;
                self.cpu.clear_imm_prefix();
                cycles += wait;
                ea = Some(addr);
            }
            Insn::Storei { size, rd, ra, imm } => {
                let imm32 = self.cpu.take_imm(imm);
                let addr = self.cpu.reg(ra).wrapping_add(imm32);
                let wait = self.data_store(pc, addr, self.cpu.reg(rd), size)?;
                cycles += wait;
                ea = Some(addr);
            }
            Insn::Imm { imm } => {
                self.cpu.set_imm_prefix(imm);
            }
        }

        Ok(Exec { next, cycles, taken, target, ea })
    }

    fn add_with_carry(&mut self, a: u32, b: u32, cin: u32, keep: bool) -> u32 {
        let wide = u64::from(a) + u64::from(b) + u64::from(cin);
        if !keep {
            self.cpu.set_carry(wide >> 32 != 0);
        }
        wide as u32
    }

    // Single-bit shifts write both `rd` and the carry flag; the helpers
    // keep the step and block engines on one implementation.
    #[inline]
    fn shift_sra(&mut self, rd: mb_isa::Reg, ra: mb_isa::Reg) {
        let a = self.cpu.reg(ra);
        self.cpu.set_carry(a & 1 != 0);
        self.cpu.set_reg(rd, ((a as i32) >> 1) as u32);
    }

    #[inline]
    fn shift_src(&mut self, rd: mb_isa::Reg, ra: mb_isa::Reg, carry_in: u32) {
        let a = self.cpu.reg(ra);
        let v = (carry_in << 31) | (a >> 1);
        self.cpu.set_carry(a & 1 != 0);
        self.cpu.set_reg(rd, v);
    }

    #[inline]
    fn shift_srl(&mut self, rd: mb_isa::Reg, ra: mb_isa::Reg) {
        let a = self.cpu.reg(ra);
        self.cpu.set_carry(a & 1 != 0);
        self.cpu.set_reg(rd, a >> 1);
    }

    #[inline]
    fn record<S: TraceSink>(&mut self, pc: u32, d: &Predecoded, exec: &Exec, sink: &mut S) {
        self.stats.record(d.class, exec.cycles);
        if let Some(t) = exec.taken {
            if t {
                self.stats.branches_taken += 1;
                if exec.target.is_some_and(|tt| tt <= pc) {
                    self.stats.backward_taken += 1;
                }
            } else {
                self.stats.branches_not_taken += 1;
            }
        }
        sink.record(&TraceEvent {
            pc,
            insn: d.insn,
            cycles: exec.cycles,
            taken: exec.taken,
            target: if exec.taken == Some(true) { exec.target } else { None },
            ea: exec.ea,
        });
    }

    /// Executes one instruction (plus its delay slot if the branch is
    /// taken), feeding each retirement to `sink` and returning the
    /// cycles consumed.
    ///
    /// The sink is a compile-time policy: [`NullSink`] makes this an
    /// untraced step with zero tracing cost, and [`Trace`] records the
    /// full event stream.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on illegal execution (bad memory access,
    /// undecodable instruction, missing functional unit, or a branch in a
    /// delay slot).
    pub fn step<S: TraceSink>(&mut self, sink: &mut S) -> Result<u32, RunError> {
        let pc = self.cpu.pc();
        let d = self.fetch(pc)?;
        let exec = self.execute(pc, &d)?;
        self.record(pc, &d, &exec, sink);
        let mut total = exec.cycles;
        // Peripherals only change state when accessed, so the exit port
        // needs polling only after a step that touched the OPB window.
        let mut touched_opb = exec.ea.is_some_and(|a| a >= OPB_BASE);

        match exec.next {
            Next::Seq => self.cpu.set_pc(pc.wrapping_add(4)),
            Next::Jump(t) => self.cpu.set_pc(t),
            Next::JumpAfterDelay(t) => {
                let dpc = pc.wrapping_add(4);
                let dd = self.fetch(dpc)?;
                if dd.control_flow {
                    return Err(RunError::BranchInDelaySlot { pc: dpc });
                }
                let dexec = self.execute(dpc, &dd)?;
                self.record(dpc, &dd, &dexec, sink);
                total += dexec.cycles;
                touched_opb |= dexec.ea.is_some_and(|a| a >= OPB_BASE);
                self.cpu.set_pc(t);
            }
        }

        // The reference loop keeps the seed's per-instruction poll.
        if (touched_opb || !self.config.predecode) && self.halted.is_none() {
            self.halted = self.opb.exit_request();
        }
        Ok(total)
    }

    /// Whether this configuration dispatches fused superblocks: the
    /// block engine rides on the predecoded store, so predecode must be
    /// on.
    fn blocks_enabled(&self) -> bool {
        self.config.blocks && self.config.predecode
    }

    /// Looks up (building lazily) the fused block entered at `pc`.
    fn block_at(&mut self, pc: u32) -> Option<std::sync::Arc<Block>> {
        let System { store, imem, config, .. } = self;
        store.block_at(imem, &config.features, pc)
    }

    /// Executes one lowered block op at `pc`, returning its actual
    /// cycles and effective address. Mirrors [`System::execute`] exactly
    /// — with `imm`-prefix traffic already resolved statically by the
    /// block lowerer, so no prefix state is touched mid-block.
    ///
    /// Dispatch is two-tiered so the block engines inline the common
    /// case: [`exec_alu`](System::exec_alu) covers every effect that
    /// cannot fault and produces no effective address — those return by
    /// register at their static `op.cycles` cost, with no `Result` on
    /// the path at all — while the four memory-access effects take the
    /// out-of-line fallible path in [`exec_mem`](System::exec_mem).
    #[inline]
    fn exec_effect(&mut self, pc: u32, op: &BlockOp) -> Result<(u32, Option<u32>), RunError> {
        if self.exec_alu(op) {
            return Ok((op.cycles, None));
        }
        self.exec_mem(pc, op)
    }

    /// Executes `op` if it is one of the infallible register-to-register
    /// effects (no fault, no effective address, static cost), returning
    /// whether it was handled. Memory accesses return `false` and must
    /// go through [`exec_mem`](System::exec_mem). Carry is read inside
    /// the arms that consume it, so carry-free ops touch no flag state.
    #[inline]
    fn exec_alu(&mut self, op: &BlockOp) -> bool {
        match op.effect {
            Effect::Add { rd, ra, rb, keep, use_c } => {
                let cin = if use_c { u32::from(self.cpu.carry()) } else { 0 };
                let v = self.add_with_carry(self.cpu.reg(ra), self.cpu.reg(rb), cin, keep);
                self.cpu.set_reg(rd, v);
            }
            Effect::AddImm { rd, ra, imm, keep, use_c } => {
                let cin = if use_c { u32::from(self.cpu.carry()) } else { 0 };
                let v = self.add_with_carry(self.cpu.reg(ra), imm, cin, keep);
                self.cpu.set_reg(rd, v);
            }
            Effect::Rsub { rd, ra, rb, keep, use_c } => {
                let cin = if use_c { u32::from(self.cpu.carry()) } else { 1 };
                let v = self.add_with_carry(!self.cpu.reg(ra), self.cpu.reg(rb), cin, keep);
                self.cpu.set_reg(rd, v);
            }
            Effect::RsubImm { rd, ra, imm, keep, use_c } => {
                let cin = if use_c { u32::from(self.cpu.carry()) } else { 1 };
                let v = self.add_with_carry(!self.cpu.reg(ra), imm, cin, keep);
                self.cpu.set_reg(rd, v);
            }
            Effect::Cmp { rd, ra, rb, unsigned } => {
                let v = compare(self.cpu.reg(ra), self.cpu.reg(rb), unsigned);
                self.cpu.set_reg(rd, v);
            }
            Effect::Mul { rd, ra, rb } => {
                let v = self.cpu.reg(ra).wrapping_mul(self.cpu.reg(rb));
                self.cpu.set_reg(rd, v);
            }
            Effect::MulImm { rd, ra, imm } => {
                self.cpu.set_reg(rd, self.cpu.reg(ra).wrapping_mul(imm));
            }
            Effect::Idiv { rd, ra, rb, unsigned } => {
                let v = divide(self.cpu.reg(ra), self.cpu.reg(rb), unsigned);
                self.cpu.set_reg(rd, v);
            }
            Effect::Bs { rd, ra, rb, kind } => {
                let v = kind.apply(self.cpu.reg(ra), self.cpu.reg(rb));
                self.cpu.set_reg(rd, v);
            }
            Effect::BsImm { rd, ra, amount, kind } => {
                self.cpu.set_reg(rd, kind.apply(self.cpu.reg(ra), amount));
            }
            Effect::Or { rd, ra, rb } => {
                self.cpu.set_reg(rd, self.cpu.reg(ra) | self.cpu.reg(rb));
            }
            Effect::And { rd, ra, rb } => {
                self.cpu.set_reg(rd, self.cpu.reg(ra) & self.cpu.reg(rb));
            }
            Effect::Xor { rd, ra, rb } => {
                self.cpu.set_reg(rd, self.cpu.reg(ra) ^ self.cpu.reg(rb));
            }
            Effect::Andn { rd, ra, rb } => {
                self.cpu.set_reg(rd, self.cpu.reg(ra) & !self.cpu.reg(rb));
            }
            Effect::OrImm { rd, ra, imm } => self.cpu.set_reg(rd, self.cpu.reg(ra) | imm),
            Effect::AndImm { rd, ra, imm } => self.cpu.set_reg(rd, self.cpu.reg(ra) & imm),
            Effect::XorImm { rd, ra, imm } => self.cpu.set_reg(rd, self.cpu.reg(ra) ^ imm),
            Effect::AndnImm { rd, ra, imm } => self.cpu.set_reg(rd, self.cpu.reg(ra) & !imm),
            Effect::Sra { rd, ra } => self.shift_sra(rd, ra),
            Effect::Src { rd, ra } => {
                let carry = u32::from(self.cpu.carry());
                self.shift_src(rd, ra, carry);
            }
            Effect::Srl { rd, ra } => self.shift_srl(rd, ra),
            Effect::Sext8 { rd, ra } => {
                self.cpu.set_reg(rd, self.cpu.reg(ra) as u8 as i8 as i32 as u32);
            }
            Effect::Sext16 { rd, ra } => {
                self.cpu.set_reg(rd, self.cpu.reg(ra) as u16 as i16 as i32 as u32);
            }
            Effect::ImmFused { .. } => {}
            Effect::ImmTrailing { hi } => self.cpu.set_imm_prefix(hi),
            Effect::Load { .. }
            | Effect::LoadImm { .. }
            | Effect::Store { .. }
            | Effect::StoreImm { .. } => return false,
        }
        true
    }

    /// Executes a memory-access block op — the fallible,
    /// effective-address-producing complement of
    /// [`exec_alu`](System::exec_alu).
    fn exec_mem(&mut self, pc: u32, op: &BlockOp) -> Result<(u32, Option<u32>), RunError> {
        let mut cycles = op.cycles;
        let ea = match op.effect {
            Effect::Load { size, rd, ra, rb } => {
                let addr = self.cpu.reg(ra).wrapping_add(self.cpu.reg(rb));
                let (v, wait) = self.data_load(pc, addr, size)?;
                self.cpu.set_reg(rd, v);
                cycles += wait;
                addr
            }
            Effect::LoadImm { size, rd, ra, imm } => {
                let addr = self.cpu.reg(ra).wrapping_add(imm);
                let (v, wait) = self.data_load(pc, addr, size)?;
                self.cpu.set_reg(rd, v);
                cycles += wait;
                addr
            }
            Effect::Store { size, rd, ra, rb } => {
                let addr = self.cpu.reg(ra).wrapping_add(self.cpu.reg(rb));
                cycles += self.data_store(pc, addr, self.cpu.reg(rd), size)?;
                addr
            }
            Effect::StoreImm { size, rd, ra, imm } => {
                let addr = self.cpu.reg(ra).wrapping_add(imm);
                cycles += self.data_store(pc, addr, self.cpu.reg(rd), size)?;
                addr
            }
            _ => unreachable!("exec_alu handles every non-memory effect"),
        };
        Ok((cycles, Some(ea)))
    }

    /// Retires the first `retired` instructions of a block individually
    /// — statistics via [`ExecStats::record`] and events via
    /// [`TraceSink::record`] — exactly as the step engine would have.
    /// Used when a block stops early (a fault, or an instruction that
    /// turned out to touch the OPB). `last_cycles` overrides the final
    /// retired op's static cost when it paid bus waits.
    fn flush_partial_block<S: TraceSink>(
        &mut self,
        block: &Block,
        retired: usize,
        last_cycles: Option<u32>,
        events: &[TraceEvent],
        eas: &[(u32, u32)],
        sink: &mut S,
    ) {
        let mut ea_iter = eas.iter().peekable();
        for (i, op) in block.ops[..retired].iter().enumerate() {
            let cycles =
                if i + 1 == retired { last_cycles.unwrap_or(op.cycles) } else { op.cycles };
            self.stats.record(op.class, cycles);
            if S::WANTS_EVENTS {
                sink.record(&events[i]);
            } else {
                let ea = ea_iter.next_if(|(j, _)| *j as usize == i).map(|&(_, a)| a);
                sink.record(&TraceEvent {
                    pc: block.head + 4 * i as u32,
                    insn: op.insn,
                    cycles,
                    taken: None,
                    target: None,
                    ea,
                });
            }
        }
    }

    /// Retires a chained guard branch exactly as the step engine would
    /// have: evaluate the condition, write the link register, charge the
    /// taken/not-taken latency, emit the trace event, and move the PC to
    /// the target or the fall-through.
    ///
    /// Statistics are the caller's job: the trace loop batches guard
    /// retirements into one [`ExecStats::record_guards`] update per
    /// dispatch.
    ///
    /// Returns `(taken, cycles)`.
    #[inline]
    fn retire_guard<S: TraceSink>(&mut self, g: &Guard, pc: u32, sink: &mut S) -> (bool, u32) {
        let taken = g.cond.is_none_or(|(cond, ra)| cond.eval(self.cpu.reg(ra)));
        if let Some(rd) = g.link {
            self.cpu.set_reg(rd, pc);
        }
        let cycles = if taken { g.lat_taken } else { g.lat_not_taken };
        sink.record(&TraceEvent {
            pc,
            insn: g.insn,
            cycles,
            taken: Some(taken),
            target: taken.then_some(g.target),
            ea: None,
        });
        self.cpu.set_pc(if taken { g.target } else { pc.wrapping_add(4) });
        (taken, cycles)
    }

    /// Retires one fused block — iterating it in place when it carries a
    /// loop guard — returning the cycles consumed.
    ///
    /// The fast path retires each whole body: one statistics update from
    /// the precomputed class deltas and one [`TraceSink::retire_block`]
    /// call per iteration. A chained guard then retires through
    /// [`System::retire_guard`], and when it loops back to the block's
    /// own head the next iteration runs without returning to the
    /// dispatch loop — the megablock trace tier. Guard failure (a side
    /// exit) leaves the machine at the exact architectural boundary the
    /// step engine would have reached: the retired prefix is already
    /// recorded and the PC sits on the fall-through or the off-trace
    /// target.
    ///
    /// Budget contract (bit-identical slice boundaries): the caller
    /// guarantees the first body fits `budget`. The guard executes only
    /// while `total < budget` — the step engine stops only once spent
    /// cycles reach the budget, overshooting mid-instruction otherwise —
    /// and the loop re-enters only when the next body also fully fits,
    /// so any boundary the step engine would have stopped at inside the
    /// trace is instead handed back to the dispatch loop's stepping
    /// tail. Two events stop a body early at an exact instruction
    /// boundary:
    ///
    /// * an op whose effective address lands in the OPB window — it
    ///   retires (peripherals execute correctly either way), the exit
    ///   port is polled exactly as after an OPB-touching step, the PC is
    ///   learned so rebuilt blocks end before it, and control returns to
    ///   the dispatch loop;
    /// * a fault — the instructions before it are flushed per-insn (the
    ///   step engine would have recorded them) and the error propagates
    ///   with the PC on the faulting instruction. If the faulting op is
    ///   a register-indexed (Type-A) load/store directly preceded by a
    ///   fused `imm`, the architectural prefix is restored first: the
    ///   step engine clears a pending prefix only *after* a successful
    ///   Type-A access, so at the fault point it would still hold it
    ///   (Type-B consumers take the prefix before the access, so those
    ///   need no restore).
    fn exec_block<S: TraceSink>(
        &mut self,
        b: &Block,
        budget: u64,
        sink: &mut S,
    ) -> Result<u64, RunError> {
        debug_assert!(!self.cpu.has_imm_prefix(), "blocks are lowered for prefix-free entry");
        let mut events = std::mem::take(&mut self.block_events);
        let mut eas = std::mem::take(&mut self.block_eas);
        let mut total = 0u64;
        // Statistics are batched across the whole dispatch (every
        // iteration retires the same per-class deltas, and u64 sums are
        // order-independent, so the totals stay bit-identical): the
        // per-iteration cost of the O(classes) array update would rival
        // a two-op loop body. Sink retirements stay per-iteration: the
        // profiler's heat observes each one.
        let mut iters = 0u64;
        let mut guards = 0u64;
        let mut guards_taken = 0u64;
        let mut guard_cycles = 0u64;

        // Loop-invariant: whether the guard chains back to this block's
        // own head (the in-dispatch iteration case).
        let loops_to_head = b.guard.as_ref().is_some_and(|g| g.target == b.head);

        'iterate: loop {
            if S::WANTS_EVENTS || S::WANTS_RECORDS {
                events.clear();
                eas.clear();
            }
            let mut body = 0u64;
            let mut pc = b.head;

            for (i, op) in b.ops.iter().enumerate() {
                match self.exec_effect(pc, op) {
                    Err(err) => {
                        if matches!(op.effect, Effect::Load { .. } | Effect::Store { .. }) {
                            if let Some(prev) = i.checked_sub(1).map(|p| &b.ops[p]) {
                                if let Effect::ImmFused { hi } = prev.effect {
                                    self.cpu.set_imm_prefix(hi);
                                }
                            }
                        }
                        self.flush_partial_block(b, i, None, &events, &eas, sink);
                        self.cpu.set_pc(pc);
                        self.flush_trace_stats(b, iters, guards, guards_taken, guard_cycles);
                        self.block_events = events;
                        self.block_eas = eas;
                        return Err(err);
                    }
                    Ok((cycles, ea)) => {
                        body += u64::from(cycles);
                        if S::WANTS_EVENTS {
                            events.push(TraceEvent {
                                pc,
                                insn: op.insn,
                                cycles,
                                taken: None,
                                target: None,
                                ea,
                            });
                        } else if S::WANTS_RECORDS {
                            // A discarding sink never replays the
                            // prefix, so skip remembering addresses.
                            if let Some(a) = ea {
                                eas.push((i as u32, a));
                            }
                        }
                        pc = pc.wrapping_add(4);
                        if ea.is_some_and(|a| a >= OPB_BASE) {
                            // Peripheral touched mid-block: retire the
                            // prefix, poll the exit port (the step-path
                            // contract), and split future blocks here.
                            self.flush_partial_block(b, i + 1, Some(cycles), &events, &eas, sink);
                            self.cpu.set_pc(pc);
                            self.store.learn_opb(pc.wrapping_sub(4));
                            if self.halted.is_none() {
                                self.halted = self.opb.exit_request();
                            }
                            self.flush_trace_stats(b, iters, guards, guards_taken, guard_cycles);
                            self.block_events = events;
                            self.block_eas = eas;
                            return Ok(total + body);
                        }
                    }
                }
            }

            debug_assert_eq!(body, b.cycles, "static block cost must match actual retirement");
            iters += 1;
            sink.retire_block(&BlockRetire { instructions: b.ops.len() as u32, events: &events });
            total += body;

            // The PC only needs storing on paths that leave the loop:
            // a retired guard overwrites it with the target or the
            // fall-through anyway.
            let Some(g) = &b.guard else {
                self.cpu.set_pc(pc);
                break 'iterate;
            };
            if total >= budget {
                self.cpu.set_pc(pc);
                // The step engine would have stopped at this boundary,
                // before fetching the guard branch — still holding the
                // prefix of a trailing `imm` fused into the guard.
                if let Some(Effect::ImmFused { hi }) = b.ops.last().map(|o| o.effect) {
                    self.cpu.set_imm_prefix(hi);
                }
                break 'iterate;
            }
            let (taken, gcycles) = self.retire_guard(g, pc, sink);
            guards += 1;
            guards_taken += u64::from(taken);
            guard_cycles += u64::from(gcycles);
            total += u64::from(gcycles);
            // `total + b.cycles <= budget` implies `total < budget` for
            // any non-empty body; saturating keeps that sound even at
            // a `u64::MAX` budget.
            if taken && loops_to_head && total.saturating_add(b.cycles) <= budget {
                continue 'iterate;
            }
            // Side exit (guard failed or jumped elsewhere), or the next
            // iteration would cross a boundary the step engine must own.
            break 'iterate;
        }

        self.flush_trace_stats(b, iters, guards, guards_taken, guard_cycles);
        self.block_events = events;
        self.block_eas = eas;
        Ok(total)
    }

    /// Applies the statistics a trace dispatch batched up: `iters`
    /// fully-retired bodies of `b` plus `guards` guard retirements
    /// (`guards_taken` of them taken, costing `guard_cycles` in total).
    #[inline]
    fn flush_trace_stats(
        &mut self,
        b: &Block,
        iters: u64,
        guards: u64,
        guards_taken: u64,
        guard_cycles: u64,
    ) {
        if iters > 0 {
            self.stats.record_block_scaled(&b.class_insns, &b.class_cycles, iters);
        }
        if guards > 0 {
            let g = b.guard.as_ref().expect("guard retirements imply a chained guard");
            self.stats.record_guards(g.class, guard_cycles, guards, guards_taken);
        }
        // Engine attribution: the dispatch's first body and first guard
        // belong to the superblock tier; everything chained in place past
        // them is the megablock trace tier's contribution.
        let body = b.ops.len() as u64;
        self.stats.attribute_block(iters.min(1) * body + guards.min(1));
        self.stats.attribute_trace(iters.saturating_sub(1) * body + guards.saturating_sub(1));
    }

    /// The one budget-tracking loop behind [`System::run_with_sink`].
    ///
    /// The budget is tracked from each dispatch's return value — every
    /// step or block retirement returns exactly the cycles it recorded —
    /// so the loop touches no statistics until it stops.
    ///
    /// With the superblock engine on (see [`MbConfig::blocks`]) the loop
    /// retires a whole fused block — iterated in place while its loop
    /// guard holds, see [`MbConfig::traces`] — per iteration whenever
    /// one exists at the PC, the CPU holds no pending `imm` prefix, and
    /// the block's precomputed cost fits the remaining budget; otherwise
    /// it falls back to [`System::step`]. Because every interior
    /// boundary of a fitting block satisfies `cycles < max_cycles`, the
    /// step engine would never have stopped inside it — so sliced
    /// executions stop at bit-identical instruction boundaries with
    /// blocks on or off. Once a block no longer fits, the tail of the
    /// budget is stepped instruction by instruction (`stepping_tail`),
    /// which both honors the exact boundary and avoids building suffix
    /// blocks at every slice-dependent split point.
    ///
    /// Ordering contract: the exit check runs **before** the budget
    /// check. The exit port is polled after OPB-touching retirements
    /// (inside [`System::step`], and at the OPB early-out of the block
    /// engine), so a retirement that writes the port can also be the one
    /// that exhausts the budget; reporting that boundary as
    /// [`StopReason::CycleLimit`] would make a sliced execution lose the
    /// exit code for exactly one slice — the off-by-one this ordering
    /// rules out. `boundary_on_exit_step_reports_exited` pins it.
    fn run_budgeted<S: TraceSink>(
        &mut self,
        max_cycles: u64,
        sink: &mut S,
    ) -> Result<Outcome, RunError> {
        let start_insns = self.stats.instructions();
        let mut cycles = 0u64;
        let use_blocks = self.blocks_enabled();
        let mut stepping_tail = false;
        loop {
            if let Some(code) = self.halted {
                return Ok(Outcome {
                    stop: StopReason::Exited(code),
                    cycles,
                    instructions: self.stats.instructions() - start_insns,
                });
            }
            if cycles >= max_cycles {
                return Ok(Outcome {
                    stop: StopReason::CycleLimit,
                    cycles,
                    instructions: self.stats.instructions() - start_insns,
                });
            }
            if use_blocks && !stepping_tail && !self.cpu.has_imm_prefix() {
                if let Some(block) = self.block_at(self.cpu.pc()) {
                    let remaining = max_cycles - cycles;
                    if block.cycles <= remaining {
                        cycles += self.exec_block(&block, remaining, sink)?;
                        continue;
                    }
                    stepping_tail = true;
                }
            }
            cycles += u64::from(self.step(sink)?);
        }
    }

    /// Eagerly fills the derived program store for the loaded
    /// instruction image: pre-decodes each word and lowers the fused
    /// block (and chained loop trace) at every possible entry point.
    /// Dispatch normally builds these lazily on first touch; a
    /// long-running host that wants predictable first-slice latency — or
    /// a benchmark measuring steady-state engine throughput rather than
    /// one-time lowering cost — calls this once after loading the
    /// program. Execution is identical either way: a later
    /// [`System::write_imem`] drops the same slots and blocks from an
    /// eager store as from a lazy one. Zero words — BRAM padding
    /// beyond the loaded image — are skipped, as are words that do not
    /// decode; anything the skip misjudges is simply built lazily on
    /// first dispatch as before. A configuration without pre-decoded
    /// fetch re-decodes every fetch by design, so there is nothing to
    /// warm and this is a no-op.
    pub fn prewarm(&mut self) {
        let size = self.imem.size();
        for pc in (0..size).step_by(4) {
            if self.imem.read_word(pc).is_ok_and(|w| w == 0) {
                continue;
            }
            if self.config.predecode {
                let System { store, imem, config, .. } = self;
                let _ = store.fetch(imem, &config.features, pc);
            }
            if self.blocks_enabled() {
                let _ = self.block_at(pc);
            }
        }
    }

    /// Freezes this system's per-program artifacts — instruction words,
    /// pre-decoded slots, and built block/trace tables — into a
    /// [`ProgramImage`] that any number of sibling systems can attach
    /// read-only via [`System::attach_image`].
    ///
    /// Call on a *warmed* system: load the program, [`prewarm`], run it
    /// to completion once (so the block store has learned OPB store
    /// splits), and [`prewarm`] again (the learn invalidated the
    /// exit-sequence block). Writes invalidate the store as they land,
    /// so a capture straight after a patch is also coherent — but an
    /// unwarmed capture just bakes in an empty table that siblings
    /// fill privately, losing the sharing win.
    ///
    /// Freezing converts the live words and table to shared mode in
    /// place; the captured system keeps running and detaches private
    /// copies on its next patch like any other sibling.
    ///
    /// [`prewarm`]: System::prewarm
    pub fn capture_image(&mut self, entry_pc: u32) -> ProgramImage {
        ProgramImage { entry_pc, words: self.imem.freeze(), tables: self.store.freeze() }
    }

    /// Attaches a captured [`ProgramImage`]: instruction memory and the
    /// table of pre-decoded slots and blocks become shared read-only
    /// views, and the PC points at the image's entry. The first
    /// [`System::write_imem`] detaches private copies (copy-on-patch),
    /// so hot-patching works exactly as with owned stores.
    ///
    /// Run state (registers, data memory, stats, peripherals) is
    /// untouched — pair with [`System::reset_run_state`] when rerunning
    /// a used system. The image must come from a system with this
    /// system's configuration; debug builds assert the memory geometry
    /// matches.
    pub fn attach_image(&mut self, image: &ProgramImage) {
        debug_assert_eq!(
            self.imem.size() as usize,
            image.words.len() * 4,
            "image captured under a different imem geometry"
        );
        self.imem.attach_shared(std::sync::Arc::clone(&image.words));
        self.store.attach_shared(std::sync::Arc::clone(&image.tables));
        self.cpu.set_pc(image.entry_pc);
    }

    /// Resets everything a finished run dirtied — CPU registers, data
    /// memory, statistics, the exit latch and other peripheral
    /// state — without touching instruction memory or the derived
    /// stores, and points the PC at `entry_pc`.
    ///
    /// This is the in-place rerun primitive (an online session's next
    /// repeat, pooled or not): the program re-enters on the same
    /// instruction memory, as on the warp processor, whose instruction
    /// BRAM keeps every patch written to it, so a rerun matches a
    /// freshly built system that holds the same instruction words. The
    /// system keeps its attached [`ProgramImage`] or private stores,
    /// written words included, and its mapped peripherals, and performs
    /// no allocation.
    pub fn reset_run_state(&mut self, entry_pc: u32) {
        self.cpu.reset();
        self.cpu.set_pc(entry_pc);
        self.dmem.clear();
        self.halted = None;
        self.stats = ExecStats::new();
        self.opb.reset_all();
    }

    /// Runs until the program exits or `max_cycles` elapse, feeding
    /// every retired instruction to `sink`.
    ///
    /// This is the monomorphized run loop every other `run_*` entry
    /// point is a thin wrapper over, and the co-simulation interface
    /// for an online partitioning runtime: the caller runs bounded
    /// slices, interleaved with profiler queries and mid-run
    /// instruction-memory patches through [`System::write_imem`], which
    /// drops the stale pre-decoded slots and blocks as it writes. All
    /// state lives in the system, so a slice resumes exactly where the
    /// previous one stopped and a sliced execution retires the
    /// identical instruction stream as one call — `Outcome` fields are
    /// per-call.
    ///
    /// Steps are atomic: a slice never splits a delayed branch from its
    /// delay slot, so the returned `cycles` may overshoot `max_cycles`
    /// by at most one step. Callers accounting simulated time must sum
    /// the returned `cycles`, not the requested budgets. A slice whose
    /// final step writes the exit port reports [`StopReason::Exited`]
    /// in that same slice (never [`StopReason::CycleLimit`]); once
    /// exited, further slices return `Exited` with zero cycles.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from [`System::step`].
    pub fn run_with_sink<S: TraceSink>(
        &mut self,
        max_cycles: u64,
        sink: &mut S,
    ) -> Result<Outcome, RunError> {
        self.run_budgeted(max_cycles, sink)
    }

    /// Runs until the program exits or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from [`System::step`].
    pub fn run(&mut self, max_cycles: u64) -> Result<Outcome, RunError> {
        self.run_with_sink(max_cycles, &mut NullSink)
    }

    /// Runs like [`System::run`] while recording a full instruction
    /// trace.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from [`System::step`].
    pub fn run_traced(&mut self, max_cycles: u64) -> Result<(Outcome, Trace), RunError> {
        let mut trace = Trace::new();
        let outcome = self.run_with_sink(max_cycles, &mut trace)?;
        Ok((outcome, trace))
    }
}

// A `System` (with every mapped peripheral behind the OPB) is an owned,
// movable session: the multi-session server migrates it between worker
// threads at slice boundaries. Fail the build loudly if any engine
// store, sink plumbing, or peripheral regains thread-pinned state.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<System>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::{encode, Assembler, Reg};

    fn exit_sequence(a: &mut Assembler) {
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
    }

    fn run_program(build: impl FnOnce(&mut Assembler)) -> System {
        let mut a = Assembler::new(0);
        build(&mut a);
        exit_sequence(&mut a);
        let p = a.finish().unwrap();
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&p).unwrap();
        let out = sys.run(1_000_000).unwrap();
        assert!(out.exited(), "program must exit, stopped at pc {:#x}", sys.cpu().pc());
        sys
    }

    #[test]
    fn patch_rebuilds_only_blocks_over_written_words() {
        // A warm system patched in `apply_patch`'s order: a stub past
        // the program end, then a jump at the loop head. The loop head
        // is word 2, and the exit sequence starts at word 5.
        let mut a = Assembler::new(0);
        a.li(Reg::R3, 10);
        a.bri("loop");
        a.label("loop");
        a.push(Insn::addik(Reg::R4, Reg::R4, 3));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "loop");
        exit_sequence(&mut a);
        let program = a.finish().unwrap();
        let (head, done, stub) = (8, 20, program.end() + 32);
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&program).unwrap();
        sys.prewarm();
        assert!(sys.run(1_000_000).unwrap().exited());
        sys.prewarm();
        let (built, prepared) = (sys.store.built, sys.store.prepared);

        let jump = |from: u32, to: u32| {
            let imm = to.wrapping_sub(from) as i16;
            encode(&Insn::Bri { rd: Reg::R0, imm, link: false, absolute: false, delay: false })
        };
        let stub_words = [encode(&Insn::addik(Reg::R4, Reg::R4, 30)), jump(stub + 4, done)];
        sys.write_imem(stub, &stub_words).unwrap();
        sys.write_imem(head, &[jump(head, stub)]).unwrap();
        sys.reset_run_state(0);
        assert!(sys.run(1_000_000).unwrap().exited());
        assert_eq!(sys.cpu().reg(Reg::R4), 30, "the patched head must run the stub");
        // Built: the head's block (now empty: it starts at a forward
        // jump) and the stub's block (its jump back to the exit chains
        // as a guard). The exit sequence's blocks, and its learned OPB
        // store, survive the patch.
        assert_eq!(sys.store.built, built + 2, "only blocks over written words rebuild");
        assert_eq!(sys.store.prepared, prepared + 3, "only the three written words re-decode");
    }

    #[test]
    fn arithmetic_and_logic() {
        let sys = run_program(|a| {
            a.li(Reg::R3, 20);
            a.li(Reg::R4, 22);
            a.push(Insn::addk(Reg::R5, Reg::R3, Reg::R4)); // 42
            a.push(Insn::rsubk(Reg::R6, Reg::R3, Reg::R4)); // 22-20 = 2
            a.push(Insn::Xor { rd: Reg::R7, ra: Reg::R3, rb: Reg::R4 });
            a.push(Insn::Andn { rd: Reg::R8, ra: Reg::R4, rb: Reg::R3 });
        });
        assert_eq!(sys.cpu().reg(Reg::R5), 42);
        assert_eq!(sys.cpu().reg(Reg::R6), 2);
        assert_eq!(sys.cpu().reg(Reg::R7), 20 ^ 22);
        assert_eq!(sys.cpu().reg(Reg::R8), 22 & !20);
    }

    #[test]
    fn carry_chain_addc() {
        let sys = run_program(|a| {
            // 0xFFFF_FFFF + 1 sets carry; addc folds it into the high word.
            a.li(Reg::R3, -1);
            a.li(Reg::R4, 1);
            a.push(Insn::add(Reg::R5, Reg::R3, Reg::R4)); // 0, carry=1
            a.push(Insn::Add {
                rd: Reg::R6,
                ra: Reg::R0,
                rb: Reg::R0,
                keep_carry: false,
                use_carry: true,
            });
        });
        assert_eq!(sys.cpu().reg(Reg::R5), 0);
        assert_eq!(sys.cpu().reg(Reg::R6), 1, "carry must propagate via addc");
    }

    #[test]
    fn cmp_sets_sign_for_signed_compare() {
        let sys = run_program(|a| {
            a.li(Reg::R3, -5);
            a.li(Reg::R4, 3);
            // cmp rd, ra, rb: sign(rd) = (rb < ra). rb=-5 < ra=3 -> neg.
            a.push(Insn::cmp(Reg::R5, Reg::R4, Reg::R3));
            // Unsigned: 0xFFFF_FFFB > 3 -> not less -> positive.
            a.push(Insn::cmpu(Reg::R6, Reg::R4, Reg::R3));
        });
        assert!((sys.cpu().reg(Reg::R5) as i32) < 0);
        assert!((sys.cpu().reg(Reg::R6) as i32) >= 0);
    }

    #[test]
    fn loads_stores_and_subword() {
        let sys = run_program(|a| {
            a.li(Reg::R3, 0x11223344);
            a.li(Reg::R4, 0x100);
            a.push(Insn::swi(Reg::R3, Reg::R4, 0));
            a.push(Insn::lbui(Reg::R5, Reg::R4, 1)); // big endian: 0x22
            a.push(Insn::Loadi { size: MemSize::Half, rd: Reg::R6, ra: Reg::R4, imm: 2 });
            a.push(Insn::sbi(Reg::R3, Reg::R4, 7)); // low byte 0x44
            a.push(Insn::lwi(Reg::R7, Reg::R4, 4));
        });
        assert_eq!(sys.cpu().reg(Reg::R5), 0x22);
        assert_eq!(sys.cpu().reg(Reg::R6), 0x3344);
        assert_eq!(sys.cpu().reg(Reg::R7), 0x0000_0044);
        assert_eq!(sys.dmem().read_word(0x100).unwrap(), 0x11223344);
    }

    #[test]
    fn loop_counts_and_branch_stats() {
        let sys = run_program(|a| {
            a.li(Reg::R3, 5);
            a.li(Reg::R4, 0);
            a.label("loop");
            a.push(Insn::addik(Reg::R4, Reg::R4, 2));
            a.push(Insn::addik(Reg::R3, Reg::R3, -1));
            a.bnei(Reg::R3, "loop");
        });
        assert_eq!(sys.cpu().reg(Reg::R4), 10);
        // 4 taken backward branches + 1 not taken.
        assert_eq!(sys.stats().backward_taken, 4);
        assert_eq!(sys.stats().branches_not_taken, 1);
    }

    #[test]
    fn delay_slot_executes_before_jump() {
        let sys = run_program(|a| {
            a.li(Reg::R3, 1);
            a.brid("target"); // delayed branch
            a.push(Insn::addik(Reg::R3, Reg::R3, 10)); // delay slot runs
            a.push(Insn::addik(Reg::R3, Reg::R3, 100)); // skipped
            a.label("target");
        });
        assert_eq!(sys.cpu().reg(Reg::R3), 11);
    }

    #[test]
    fn call_and_return() {
        let sys = run_program(|a| {
            a.li(Reg::R5, 7);
            a.call("double");
            a.push(Insn::addk(Reg::R20, Reg::R3, Reg::R0));
            a.bri("done");
            a.label("double");
            a.push(Insn::addk(Reg::R3, Reg::R5, Reg::R5));
            a.ret();
            a.label("done");
        });
        assert_eq!(sys.cpu().reg(Reg::R20), 14);
    }

    #[test]
    fn imm_prefix_builds_32bit_constants() {
        let sys = run_program(|a| {
            a.li(Reg::R3, 0x1234_5678);
            a.li(Reg::R4, -123456);
        });
        assert_eq!(sys.cpu().reg(Reg::R3), 0x1234_5678);
        assert_eq!(sys.cpu().reg(Reg::R4) as i32, -123456);
    }

    #[test]
    fn mul_without_multiplier_faults() {
        let mut a = Assembler::new(0);
        a.push(Insn::mul(Reg::R3, Reg::R4, Reg::R5));
        let p = a.finish().unwrap();
        let cfg = MbConfig::paper_default().with_features(mb_isa::MbFeatures::minimal());
        let mut sys = System::new(cfg);
        sys.load_program(&p).unwrap();
        assert_eq!(sys.run(100), Err(RunError::UnsupportedInsn { pc: 0 }));
    }

    #[test]
    fn unmapped_opb_address_faults() {
        let mut a = Assembler::new(0);
        a.li(Reg::R4, (OPB_BASE + 0x1000) as i32);
        a.push(Insn::lwi(Reg::R3, Reg::R4, 0));
        let p = a.finish().unwrap();
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&p).unwrap();
        let err = sys.run(100).unwrap_err();
        assert!(matches!(err, RunError::UnmappedAddress { .. }));
    }

    #[test]
    fn cycle_limit_stops_infinite_loop() {
        let mut a = Assembler::new(0);
        a.label("spin");
        a.bri("spin");
        let p = a.finish().unwrap();
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&p).unwrap();
        let out = sys.run(1000).unwrap();
        assert_eq!(out.stop, StopReason::CycleLimit);
        assert!(out.cycles >= 1000);
    }

    /// A counting loop ending in the exit-port store, for slice tests.
    fn sliceable_program(iters: i32) -> mb_isa::Program {
        let mut a = Assembler::new(0);
        a.li(Reg::R3, iters);
        a.label("loop");
        a.push(Insn::addik(Reg::R4, Reg::R4, 3));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "loop");
        exit_sequence(&mut a);
        a.finish().unwrap()
    }

    #[test]
    fn sliced_run_equals_monolithic_run_for_any_slice_size() {
        let program = sliceable_program(100);
        let mut mono = System::new(MbConfig::paper_default());
        mono.load_program(&program).unwrap();
        let expected = mono.run(1_000_000).unwrap();
        assert!(expected.exited());

        // Slice sizes chosen to land boundaries everywhere: mid-loop,
        // on branches, and (size 1) after literally every step.
        for slice in [1u64, 2, 3, 5, 7, 64, 1_000_000] {
            let mut sys = System::new(MbConfig::paper_default());
            sys.load_program(&program).unwrap();
            let mut cycles = 0u64;
            let mut instructions = 0u64;
            let last = loop {
                let out = sys.run_with_sink(slice, &mut NullSink).unwrap();
                cycles += out.cycles;
                instructions += out.instructions;
                if out.exited() {
                    break out;
                }
                assert_eq!(out.stop, StopReason::CycleLimit);
            };
            assert_eq!(last.stop, expected.stop, "slice {slice}");
            assert_eq!(cycles, expected.cycles, "slice {slice}: total cycles must match");
            assert_eq!(instructions, expected.instructions, "slice {slice}");
            assert_eq!(sys.cpu().reg(Reg::R4), mono.cpu().reg(Reg::R4), "slice {slice}");
            assert_eq!(sys.stats(), mono.stats(), "slice {slice}");
        }
    }

    #[test]
    fn boundary_on_exit_step_reports_exited() {
        // Find the exact cycle count of the run, then slice so the
        // budget is exhausted by the very step that writes the exit
        // port (an OPB-touching step): the slice must say Exited, not
        // CycleLimit — the off-by-one `run_budgeted`'s check order
        // prevents.
        let program = sliceable_program(3);
        let mut probe = System::new(MbConfig::paper_default());
        probe.load_program(&program).unwrap();
        let total = probe.run(1_000_000).unwrap();
        assert!(total.exited());

        // The exit store costs 2 cycles, so budgets `total` and
        // `total - 1` are both exhausted by the very step that writes
        // the port.
        for budget in [total.cycles, total.cycles - 1] {
            let mut sys = System::new(MbConfig::paper_default());
            sys.load_program(&program).unwrap();
            let first = sys.run_with_sink(budget, &mut NullSink).unwrap();
            assert_eq!(
                first.stop,
                StopReason::Exited(0),
                "budget {budget} of {} landed on/after the exit store",
                total.cycles
            );
            assert_eq!(first.cycles, total.cycles);
            // The exit is sticky: further slices are zero-cost no-ops.
            let after = sys.run_with_sink(1000, &mut NullSink).unwrap();
            assert_eq!(after.stop, StopReason::Exited(0));
            assert_eq!(after.cycles, 0);
            assert_eq!(after.instructions, 0);
        }

        // One cycle earlier the slice ends just *before* the exit store:
        // CycleLimit, with the exit delivered by the next slice.
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&program).unwrap();
        let first = sys.run_with_sink(total.cycles - 2, &mut NullSink).unwrap();
        assert_eq!(first.stop, StopReason::CycleLimit);
        let second = sys.run_with_sink(1000, &mut NullSink).unwrap();
        assert_eq!(second.stop, StopReason::Exited(0));
        assert_eq!(first.cycles + second.cycles, total.cycles);
    }

    #[test]
    fn zero_budget_slice_runs_nothing_but_reports_exit() {
        let program = sliceable_program(2);
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&program).unwrap();
        let out = sys.run_with_sink(0, &mut NullSink).unwrap();
        assert_eq!(out.stop, StopReason::CycleLimit);
        assert_eq!(out.cycles, 0);
        sys.run(1_000_000).unwrap();
        let out = sys.run_with_sink(0, &mut NullSink).unwrap();
        assert_eq!(out.stop, StopReason::Exited(0), "exit visible even to a zero-budget slice");
    }

    #[test]
    fn trace_records_branches_and_memory() {
        let mut a = Assembler::new(0);
        a.li(Reg::R3, 2);
        a.label("loop");
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "loop");
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        let p = a.finish().unwrap();
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&p).unwrap();
        let (out, trace) = sys.run_traced(10_000).unwrap();
        assert!(out.exited());
        assert_eq!(trace.len() as u64, out.instructions);
        assert!(trace.iter().any(|e| e.is_backward_taken_branch()));
        assert!(trace.iter().any(|e| e.ea.is_some()));
        assert_eq!(trace.cycles(), out.cycles);
    }

    #[test]
    fn timing_loop_matches_hand_count() {
        // li(1) + loop of 3 iterations: addik(1) + bnei(taken 2, not 1)
        // + exit li(1) + swi(2).
        let mut a = Assembler::new(0);
        a.li(Reg::R3, 3);
        a.label("loop");
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "loop");
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        let p = a.finish().unwrap();
        let mut sys = System::new(MbConfig::paper_default());
        sys.load_program(&p).unwrap();
        let out = sys.run(10_000).unwrap();
        // 1 + (1+2) + (1+2) + (1+1) + 2 (li long? no: EXIT_PORT_BASE needs
        // imm prefix: 2 words = imm(1)+addik(1)) + swi(2).
        let expected = 1 + (1 + 2) + (1 + 2) + (1 + 1) + 1 + 1 + 2;
        assert_eq!(out.cycles, expected);
    }
}
