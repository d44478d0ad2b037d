//! Superblock store: straight-line runs of predecoded instructions
//! fused into blocks that retire in one dispatch.
//!
//! PR 3 removed per-fetch decoding; the remaining per-instruction cost
//! was the interpreter's dispatch — fetch-slot lookup, per-instruction
//! statistics, sink calls, and the run loop's halt/budget/exit checks.
//! This module hoists all of that to block granularity, the same move
//! block-level emulation engines make (and the paper's own on-chip
//! profiler justifies: it watches *branches*, i.e. block boundaries,
//! not instructions).
//!
//! A [`Block`] is the longest straight-line run starting at a PC that
//! ends at control flow, an unsupported instruction, a PC learned to
//! touch the OPB window, an undecodable word, or a length cap. Each
//! instruction is lowered to an [`Effect`] micro-op with its `imm`
//! prefix statically fused: a block entered with no pending prefix
//! (the dispatcher guarantees it) never materializes prefix state at
//! all — an interior `imm` becomes [`Effect::ImmFused`] and its Type-B
//! consumer carries the resolved 32-bit immediate. The block also
//! carries its precomputed total cycles and per-class histogram deltas,
//! so full-block retirement applies statistics in O(classes), not
//! O(instructions).
//!
//! With loop chaining on (see [`MbConfig::traces`]) a block whose run
//! ends at a non-delay immediate-target branch with a statically
//! backward target also fuses that branch as a [`Guard`], turning the
//! block into a **megablock loop trace**: the engine retires body +
//! guard per dispatch and, when the guard holds and its target is the
//! block's own head, keeps iterating without leaving the dispatch. A
//! guard failure is the side exit — the retired prefix stands and the
//! engine resumes at `pc + 4`, the exact boundary the step engine pins.
//! Backward branches are exactly the events the paper's profiler
//! watches, so the chained shape is the application's critical loop.
//!
//! The blocks share one per-word table with the pre-decoded slots and
//! the learned OPB words, in the [`ProgramStore`]. Invalidation happens
//! where instruction memory is written: [`System::write_imem`] drops
//! the written words' slots and every block overlapping them — a block
//! is dropped if *any* of its words changed, *including its guard
//! word*, so the scan walks back one maximum trace length. PCs observed
//! to touch the OPB mid-block are remembered so rebuilt blocks end
//! before them and peripheral accesses always go through
//! [`System::step`], which polls the exit port.
//!
//! [`System`]: crate::System
//! [`System::step`]: crate::System::step
//! [`System::write_imem`]: crate::System::write_imem
//! [`MbConfig::traces`]: crate::MbConfig::traces

use std::sync::Arc;

use mb_isa::{decode, Cond, Insn, MbFeatures, MemSize, OpClass, Reg, ShiftKind};

use crate::image::Shareable;
use crate::machine::RunError;
use crate::predecode::Predecoded;
use crate::{Bram, MemError};

/// Maximum instructions fused into one block. Bounds both the
/// invalidation back-scan and how much budget a slice must have left
/// before whole-block retirement is used.
pub(crate) const MAX_BLOCK_OPS: usize = 64;

/// One lowered register/memory effect, with immediates resolved
/// (including any `imm` prefix contributed by the preceding in-block
/// instruction) and operands pre-extracted.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Effect {
    /// `add`-family: rd = ra + rb (+ carry in), optionally keeping carry.
    Add { rd: Reg, ra: Reg, rb: Reg, keep: bool, use_c: bool },
    /// `addi`-family with the resolved 32-bit immediate.
    AddImm { rd: Reg, ra: Reg, imm: u32, keep: bool, use_c: bool },
    /// `rsub`-family: rd = rb - ra.
    Rsub { rd: Reg, ra: Reg, rb: Reg, keep: bool, use_c: bool },
    /// `rsubi`-family: rd = imm - ra.
    RsubImm { rd: Reg, ra: Reg, imm: u32, keep: bool, use_c: bool },
    /// `cmp`/`cmpu`.
    Cmp { rd: Reg, ra: Reg, rb: Reg, unsigned: bool },
    /// `mul`.
    Mul { rd: Reg, ra: Reg, rb: Reg },
    /// `muli` with the resolved immediate.
    MulImm { rd: Reg, ra: Reg, imm: u32 },
    /// `idiv`/`idivu`.
    Idiv { rd: Reg, ra: Reg, rb: Reg, unsigned: bool },
    /// Dynamic barrel shift.
    Bs { rd: Reg, ra: Reg, rb: Reg, kind: ShiftKind },
    /// Constant barrel shift.
    BsImm { rd: Reg, ra: Reg, amount: u32, kind: ShiftKind },
    /// `or`.
    Or { rd: Reg, ra: Reg, rb: Reg },
    /// `and`.
    And { rd: Reg, ra: Reg, rb: Reg },
    /// `xor`.
    Xor { rd: Reg, ra: Reg, rb: Reg },
    /// `andn`.
    Andn { rd: Reg, ra: Reg, rb: Reg },
    /// `ori` with the resolved immediate.
    OrImm { rd: Reg, ra: Reg, imm: u32 },
    /// `andi` with the resolved immediate.
    AndImm { rd: Reg, ra: Reg, imm: u32 },
    /// `xori` with the resolved immediate.
    XorImm { rd: Reg, ra: Reg, imm: u32 },
    /// `andni` with the resolved immediate.
    AndnImm { rd: Reg, ra: Reg, imm: u32 },
    /// `sra`.
    Sra { rd: Reg, ra: Reg },
    /// `src`.
    Src { rd: Reg, ra: Reg },
    /// `srl`.
    Srl { rd: Reg, ra: Reg },
    /// `sext8`.
    Sext8 { rd: Reg, ra: Reg },
    /// `sext16`.
    Sext16 { rd: Reg, ra: Reg },
    /// Register-indexed load.
    Load { size: MemSize, rd: Reg, ra: Reg, rb: Reg },
    /// Immediate-indexed load with the resolved offset.
    LoadImm { size: MemSize, rd: Reg, ra: Reg, imm: u32 },
    /// Register-indexed store.
    Store { size: MemSize, rd: Reg, ra: Reg, rb: Reg },
    /// Immediate-indexed store with the resolved offset.
    StoreImm { size: MemSize, rd: Reg, ra: Reg, imm: u32 },
    /// An `imm` prefix whose upper half was fused into the next op:
    /// retires (1 cycle, `ImmPrefix` class) with no architectural
    /// effect on the success path. The upper half is kept so a fault on
    /// a register-indexed (Type-A) successor can restore the prefix the
    /// step engine would still be holding at the fault point.
    ImmFused {
        /// Upper 16 bits the fused consumer absorbed.
        hi: i16,
    },
    /// An `imm` prefix ending the block: its consumer lies outside, so
    /// the real prefix register must be set (and the dispatcher will
    /// route the consumer through [`crate::System::step`]).
    ImmTrailing {
        /// Upper 16 bits for the next Type-B immediate.
        hi: i16,
    },
}

/// One fused instruction: the lowered effect plus everything the
/// engine needs to retire it (original instruction for trace events and
/// partial flushes, class and static cycle cost for statistics).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockOp {
    pub effect: Effect,
    pub insn: Insn,
    pub class: OpClass,
    pub cycles: u32,
}

/// The fused terminal branch of a megablock loop trace: a non-delay
/// `bci`/`bri` whose target resolved statically to a backward address.
/// Predicted taken — when the condition holds and the target is the
/// block's own head the engine loops without leaving the dispatch; a
/// guard failure is the side exit, falling through to the branch's
/// `pc + 4` with every already-retired instruction standing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Guard {
    /// The original branch instruction (for trace events).
    pub insn: Insn,
    /// Instruction class (a branch).
    pub class: OpClass,
    /// Condition and condition register; `None` for unconditional `bri`.
    pub cond: Option<(Cond, Reg)>,
    /// Link register written with the branch's own PC, if any.
    pub link: Option<Reg>,
    /// Statically-resolved taken target (`<=` the branch PC).
    pub target: u32,
    /// Taken latency.
    pub lat_taken: u32,
    /// Not-taken (side-exit) latency.
    pub lat_not_taken: u32,
}

/// A fused straight-line block with precomputed retirement aggregates,
/// optionally chained across a backward branch into a loop trace.
#[derive(Debug)]
pub(crate) struct Block {
    /// PC of the first instruction.
    pub head: u32,
    /// The fused op sequence (one op per instruction).
    pub ops: Vec<BlockOp>,
    /// Total static cycles of a full body retirement (guard excluded).
    pub cycles: u64,
    /// Per-class retired-instruction deltas, indexed by `OpClass::index()`.
    pub class_insns: [u32; OpClass::ALL.len()],
    /// Per-class cycle deltas.
    pub class_cycles: [u32; OpClass::ALL.len()],
    /// The backward branch this block was chained across, if any. The
    /// guard instruction sits at `head + 4 * ops.len()`.
    pub guard: Option<Guard>,
}

impl Block {
    /// Instruction-memory words the block covers, guard included —
    /// the span invalidation must treat as one unit.
    pub fn span_words(&self) -> usize {
        self.ops.len() + usize::from(self.guard.is_some())
    }

    /// Whether dispatch can retire it: a block with no ops and no guard
    /// is cached only so the builder does not retry its head.
    fn dispatchable(&self) -> bool {
        !self.ops.is_empty() || self.guard.is_some()
    }
}

/// The program store's per-word table, frozen and shared as one unit:
/// pre-decoded slots, built blocks, and learned OPB-touching words, all
/// indexed by `pc >> 2` and covering the words used so far. A write
/// clears all three for the written words, so a copy-on-patch detach
/// copies them together.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tables {
    /// The prepared instruction at each word; `None` = not decoded yet.
    slots: Vec<Option<Predecoded>>,
    /// Block entered at each word; `None` = not built. Unbuildable
    /// entries cache an empty block so hot dispatch does not retry them.
    blocks: Vec<Option<Arc<Block>>>,
    /// Words whose instruction was observed touching the OPB window:
    /// blocks end before them, so peripheral accesses (and the exit-port
    /// poll they require) always run through `step`.
    opb: Vec<bool>,
}

/// Drops every block overlapping the words `lo..hi`. A block spans at
/// most [`MAX_BLOCK_OPS`] body words plus one guard word, so the
/// back-scan is bounded — and a write landing on a trace's guard word
/// drops the whole chained trace, never leaving a stale loop shape
/// behind.
fn drop_blocks_over(blocks: &mut [Option<Arc<Block>>], lo: usize, hi: usize) {
    let start = lo.saturating_sub(MAX_BLOCK_OPS);
    for (w, block) in (start..).zip(&mut blocks[start..lo]) {
        if block.as_ref().is_some_and(|b| w + b.span_words() > lo) {
            *block = None;
        }
    }
    blocks[lo..hi].fill(None);
}

/// The derived program store for one instruction BRAM: slots and
/// blocks are filled lazily on first use, and [`write`](Self::write)
/// invalidates exactly what a write to instruction memory makes stale.
#[derive(Debug)]
pub(crate) struct ProgramStore {
    /// The per-word table (possibly a shared image view), grown to
    /// cover each word as it is first used.
    tables: Shareable<Tables>,
    /// Whether the builder chains backward branches into loop-trace
    /// guards (see [`crate::MbConfig::traces`]).
    chain: bool,
    /// Slow-path decodes performed (observability for the invalidation
    /// tests: a patch must re-decode only the words it wrote).
    pub(crate) prepared: u64,
    /// Blocks constructed (observability for invalidation tests).
    pub(crate) built: u64,
}

impl ProgramStore {
    /// Creates an empty store; `chain` enables guard chaining across
    /// backward branches.
    pub fn new(chain: bool) -> Self {
        ProgramStore { tables: Shareable::Owned(Tables::default()), chain, prepared: 0, built: 0 }
    }

    /// Freezes the table into a shareable read-only value and switches
    /// this store to the shared view (see [`Bram::freeze`]).
    pub fn freeze(&mut self) -> Arc<Tables> {
        self.tables.freeze()
    }

    /// Replaces the table with a shared one captured against the
    /// program words this store's BRAM now holds. The next mutation
    /// detaches a private copy.
    pub fn attach_shared(&mut self, tables: Arc<Tables>) {
        self.tables = Shareable::Shared(tables);
    }

    /// The owned table, grown to cover word `w`. Growing on use sizes
    /// the table to the words the program touches, not the whole BRAM,
    /// which keeps a copy-on-patch detach small; and a pooled session,
    /// which attaches an image right after creating its system,
    /// allocates nothing here.
    fn tables_mut(&mut self, w: usize) -> &mut Tables {
        let t = self.tables.make_owned();
        if t.slots.len() <= w {
            t.slots.resize(w + 1, None);
            t.blocks.resize(w + 1, None);
            t.opb.resize(w + 1, false);
        }
        t
    }

    /// Writes `words` into `imem` from byte address `addr` and
    /// invalidates the written words' slots and learned OPB flags and
    /// every block overlapping them. Nothing else goes stale: every
    /// other slot and block was derived from words this write left
    /// alone.
    pub fn write(&mut self, imem: &mut Bram, addr: u32, words: &[u32]) -> Result<(), MemError> {
        imem.load_words(addr, words)?;
        // Every word a slot or block was derived from lies inside the
        // table, so words past its end invalidate nothing.
        let covered = self.tables.get().slots.len();
        let lo = (addr >> 2) as usize;
        let hi = (lo + words.len()).min(covered);
        if lo >= hi {
            return Ok(());
        }
        let t = self.tables.make_owned();
        drop_blocks_over(&mut t.blocks, lo, hi);
        t.slots[lo..hi].fill(None);
        t.opb[lo..hi].fill(false);
        Ok(())
    }

    /// Fetches the prepared instruction at `pc`, decoding and caching on
    /// the first visit.
    #[inline]
    pub fn fetch(
        &mut self,
        imem: &Bram,
        features: &MbFeatures,
        pc: u32,
    ) -> Result<Predecoded, RunError> {
        if pc & 3 == 0 {
            if let Some(Some(d)) = self.tables.get().slots.get((pc >> 2) as usize) {
                return Ok(*d);
            }
        }
        self.fetch_slow(imem, features, pc)
    }

    #[cold]
    fn fetch_slow(
        &mut self,
        imem: &Bram,
        features: &MbFeatures,
        pc: u32,
    ) -> Result<Predecoded, RunError> {
        let word = imem.read_word(pc).map_err(|err| RunError::Mem { pc, err })?;
        let insn = decode(word).map_err(|err| RunError::Decode { pc, err })?;
        let d = Predecoded::prepare(insn, features);
        let w = (pc >> 2) as usize;
        self.tables_mut(w).slots[w] = Some(d);
        self.prepared += 1;
        Ok(d)
    }

    /// Returns the (possibly freshly built) non-empty block entered at
    /// `pc`, or `None` when no fusable straight-line run starts there.
    pub fn block_at(&mut self, imem: &Bram, features: &MbFeatures, pc: u32) -> Option<Arc<Block>> {
        if pc & 3 != 0 {
            return None; // misaligned fetch: let `step` fault
        }
        let w = (pc >> 2) as usize;
        if let Some(Some(b)) = self.tables.get().blocks.get(w) {
            return b.dispatchable().then(|| Arc::clone(b));
        }
        if w >= imem.words().len() {
            return None;
        }
        let b = Arc::new(self.build(imem, features, pc));
        self.built += 1;
        let useful = b.dispatchable().then(|| Arc::clone(&b));
        self.tables_mut(w).blocks[w] = Some(b);
        useful
    }

    /// Records that the instruction at `pc` touched the OPB window and
    /// drops every block containing it, so rebuilt blocks end before it.
    ///
    /// Already-learned words return immediately: `opb[w]` set implies no
    /// cached block contains `w` (the builder stops at OPB words, and a
    /// write clears blocks and OPB knowledge together), so there is
    /// nothing to drop — and, just as important, re-learning a word must
    /// not detach a shared image table on every peripheral access of
    /// every session.
    pub fn learn_opb(&mut self, pc: u32) {
        let w = (pc >> 2) as usize;
        if !self.learned_opb(pc) {
            let t = self.tables_mut(w);
            drop_blocks_over(&mut t.blocks, w, w + 1);
            t.opb[w] = true;
        }
    }

    /// Whether the instruction at `pc` was learned to touch the OPB.
    fn learned_opb(&self, pc: u32) -> bool {
        self.tables.get().opb.get((pc >> 2) as usize).is_some_and(|&opb| opb)
    }

    /// Builds the block entered at `pc` (possibly empty): collect the
    /// straight-line run of predecoded slots, then lower it with static
    /// `imm`-prefix fusion. With chaining on, a run ending at a
    /// non-delay backward `bci`/`bri` fuses that branch as the guard.
    fn build(&mut self, imem: &Bram, features: &MbFeatures, head: u32) -> Block {
        let mut raw: Vec<Predecoded> = Vec::new();
        let mut pc = head;
        while raw.len() < MAX_BLOCK_OPS && !self.learned_opb(pc) {
            let Ok(d) = self.fetch(imem, features, pc) else { break };
            if d.control_flow || !d.supported {
                break;
            }
            raw.push(d);
            pc = pc.wrapping_add(4);
        }
        let mut guard_slot = None;
        if self.chain && !self.learned_opb(pc) {
            if let Ok(d) = self.fetch(imem, features, pc) {
                if d.control_flow && d.supported {
                    guard_slot = Some((d, pc));
                }
            }
        }
        lower(head, &raw, guard_slot)
    }
}

/// Resolves a Type-B immediate against a statically known prefix,
/// exactly as [`crate::Cpu::take_imm`] would at run time.
fn resolve_imm(imm: i16, prefix: Option<i16>) -> u32 {
    match prefix {
        Some(hi) => (u32::from(hi as u16) << 16) | u32::from(imm as u16),
        None => imm as i32 as u32,
    }
}

/// Chains the slot after a straight-line run into a [`Guard`] when it
/// is a non-delay immediate-target branch whose target — resolved
/// against a trailing in-block `imm` prefix, if any — is backward: the
/// predicted-taken loop shape the paper's profiler watches.
/// Register-target branches (`br`, `bc`) have dynamic targets and
/// delay-slot branches split retirement across two PCs; both keep
/// retiring through [`crate::System::step`].
fn chain_guard(d: &Predecoded, pc: u32, prefix: Option<i16>) -> Option<Guard> {
    let (cond, link, target) = match d.insn {
        Insn::Bci { cond, ra, imm, delay: false } => {
            (Some((cond, ra)), None, pc.wrapping_add(resolve_imm(imm, prefix)))
        }
        Insn::Bri { rd, imm, link, absolute, delay: false } => {
            let imm32 = resolve_imm(imm, prefix);
            (None, link.then_some(rd), if absolute { imm32 } else { pc.wrapping_add(imm32) })
        }
        _ => return None,
    };
    if target > pc {
        return None; // forward: not a loop-closing branch
    }
    Some(Guard {
        insn: d.insn,
        class: d.class,
        cond,
        link,
        target,
        lat_taken: d.lat_taken,
        lat_not_taken: d.lat_not_taken,
    })
}

/// Lowers a straight-line run into fused ops. The caller guarantees the
/// block is entered with no pending `imm` prefix, so prefix flow is
/// fully static: an interior `imm` fuses into its successor (every
/// non-`imm` instruction either consumes or clears the prefix), and
/// only a trailing `imm` escapes to the architectural prefix register —
/// unless a guard was chained, in which case the guard is the trailing
/// `imm`'s consumer and the prefix fuses into its static target.
fn lower(head: u32, raw: &[Predecoded], guard_slot: Option<(Predecoded, u32)>) -> Block {
    let trailing_hi = raw.last().and_then(|d| match d.insn {
        Insn::Imm { imm } => Some(imm),
        _ => None,
    });
    let guard = guard_slot.and_then(|(d, pc)| chain_guard(&d, pc, trailing_hi));

    let mut ops = Vec::with_capacity(raw.len());
    let mut cycles = 0u64;
    let mut class_insns = [0u32; OpClass::ALL.len()];
    let mut class_cycles = [0u32; OpClass::ALL.len()];
    let mut pending: Option<i16> = None;

    for (i, d) in raw.iter().enumerate() {
        let prefix = pending.take();
        let effect = match d.insn {
            Insn::Imm { imm } => {
                if i + 1 < raw.len() {
                    pending = Some(imm);
                    Effect::ImmFused { hi: imm }
                } else if guard.is_some() {
                    // The guard consumed the prefix statically (its
                    // target is already resolved), exactly as a Type-B
                    // branch takes the prefix before evaluating.
                    Effect::ImmFused { hi: imm }
                } else {
                    Effect::ImmTrailing { hi: imm }
                }
            }
            Insn::Add { rd, ra, rb, keep_carry, use_carry } => {
                Effect::Add { rd, ra, rb, keep: keep_carry, use_c: use_carry }
            }
            Insn::Rsub { rd, ra, rb, keep_carry, use_carry } => {
                Effect::Rsub { rd, ra, rb, keep: keep_carry, use_c: use_carry }
            }
            Insn::Addi { rd, ra, imm, keep_carry, use_carry } => Effect::AddImm {
                rd,
                ra,
                imm: resolve_imm(imm, prefix),
                keep: keep_carry,
                use_c: use_carry,
            },
            Insn::Rsubi { rd, ra, imm, keep_carry, use_carry } => Effect::RsubImm {
                rd,
                ra,
                imm: resolve_imm(imm, prefix),
                keep: keep_carry,
                use_c: use_carry,
            },
            Insn::Cmp { rd, ra, rb, unsigned } => Effect::Cmp { rd, ra, rb, unsigned },
            Insn::Mul { rd, ra, rb } => Effect::Mul { rd, ra, rb },
            Insn::Muli { rd, ra, imm } => Effect::MulImm { rd, ra, imm: resolve_imm(imm, prefix) },
            Insn::Idiv { rd, ra, rb, unsigned } => Effect::Idiv { rd, ra, rb, unsigned },
            Insn::Bs { rd, ra, rb, kind } => Effect::Bs { rd, ra, rb, kind },
            Insn::Bsi { rd, ra, amount, kind } => {
                Effect::BsImm { rd, ra, amount: u32::from(amount), kind }
            }
            Insn::Or { rd, ra, rb } => Effect::Or { rd, ra, rb },
            Insn::And { rd, ra, rb } => Effect::And { rd, ra, rb },
            Insn::Xor { rd, ra, rb } => Effect::Xor { rd, ra, rb },
            Insn::Andn { rd, ra, rb } => Effect::Andn { rd, ra, rb },
            Insn::Ori { rd, ra, imm } => Effect::OrImm { rd, ra, imm: resolve_imm(imm, prefix) },
            Insn::Andi { rd, ra, imm } => Effect::AndImm { rd, ra, imm: resolve_imm(imm, prefix) },
            Insn::Xori { rd, ra, imm } => Effect::XorImm { rd, ra, imm: resolve_imm(imm, prefix) },
            Insn::Andni { rd, ra, imm } => {
                Effect::AndnImm { rd, ra, imm: resolve_imm(imm, prefix) }
            }
            Insn::Sra { rd, ra } => Effect::Sra { rd, ra },
            Insn::Src { rd, ra } => Effect::Src { rd, ra },
            Insn::Srl { rd, ra } => Effect::Srl { rd, ra },
            Insn::Sext8 { rd, ra } => Effect::Sext8 { rd, ra },
            Insn::Sext16 { rd, ra } => Effect::Sext16 { rd, ra },
            Insn::Load { size, rd, ra, rb } => Effect::Load { size, rd, ra, rb },
            Insn::Loadi { size, rd, ra, imm } => {
                Effect::LoadImm { size, rd, ra, imm: resolve_imm(imm, prefix) }
            }
            Insn::Store { size, rd, ra, rb } => Effect::Store { size, rd, ra, rb },
            Insn::Storei { size, rd, ra, imm } => {
                Effect::StoreImm { size, rd, ra, imm: resolve_imm(imm, prefix) }
            }
            // Control flow never enters a block (the builder stops at
            // it); reaching here would be a builder bug.
            Insn::Br { .. }
            | Insn::Bri { .. }
            | Insn::Bc { .. }
            | Insn::Bci { .. }
            | Insn::Rtsd { .. } => unreachable!("control flow inside a block"),
        };
        cycles += u64::from(d.lat_not_taken);
        class_insns[d.class.index()] += 1;
        class_cycles[d.class.index()] += d.lat_not_taken;
        ops.push(BlockOp { effect, insn: d.insn, class: d.class, cycles: d.lat_not_taken });
    }

    Block { head, ops, cycles, class_insns, class_cycles, guard }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::encode;

    fn features() -> MbFeatures {
        MbFeatures::paper_default()
    }

    /// Unchained store (PR 5 semantics: blocks end at control flow).
    fn store_with(words: &[Insn]) -> (ProgramStore, Bram) {
        let (_, imem) = chained_store_with(words);
        (ProgramStore::new(false), imem)
    }

    /// Chaining store: backward branches fuse into loop-trace guards.
    fn chained_store_with(words: &[Insn]) -> (ProgramStore, Bram) {
        let mut store = ProgramStore::new(true);
        let mut imem = Bram::new(4 * 256);
        let words: Vec<u32> = words.iter().map(encode).collect();
        store.write(&mut imem, 0, &words).unwrap();
        (store, imem)
    }

    #[test]
    fn caches_and_invalidates_on_write() {
        let add = Insn::addk(Reg::R1, Reg::R2, Reg::R3);
        let (mut store, mut imem) = store_with(&[add]);
        assert_eq!(store.fetch(&imem, &features(), 0).unwrap().insn, add);
        // Cached: same answer without consulting the word again.
        assert_eq!(store.fetch(&imem, &features(), 0).unwrap().insn, add);

        // A write invalidates the written word; the new word decodes.
        let xor = Insn::Xor { rd: Reg::R4, ra: Reg::R5, rb: Reg::R6 };
        store.write(&mut imem, 0, &[encode(&xor)]).unwrap();
        assert_eq!(store.fetch(&imem, &features(), 0).unwrap().insn, xor);
    }

    #[test]
    fn write_invalidates_only_the_written_slots() {
        let (mut store, mut imem) = store_with(&[Insn::addk(Reg::R1, Reg::R2, Reg::R3); 4]);
        for w in 0..4u32 {
            store.fetch(&imem, &features(), w * 4).unwrap();
        }
        let prepared = store.prepared;

        // Patch one word: only that slot re-decodes.
        let xor = Insn::Xor { rd: Reg::R4, ra: Reg::R5, rb: Reg::R6 };
        store.write(&mut imem, 0, &[encode(&xor)]).unwrap();
        for w in 0..4u32 {
            store.fetch(&imem, &features(), w * 4).unwrap();
        }
        assert_eq!(store.fetch(&imem, &features(), 0).unwrap().insn, xor);
        assert_eq!(store.prepared, prepared + 1, "incremental invalidation must spare the rest");
    }

    #[test]
    fn shared_slots_serve_fetches_and_detach_on_patch() {
        let add = Insn::addk(Reg::R1, Reg::R2, Reg::R3);
        let (mut warm, mut imem) = store_with(&[add]);
        warm.fetch(&imem, &features(), 0).unwrap();
        let table = warm.freeze();

        let mut store = ProgramStore::new(false);
        store.attach_shared(Arc::clone(&table));
        assert_eq!(store.fetch(&imem, &features(), 0).unwrap().insn, add);
        assert_eq!(store.prepared, 0, "a shared table must serve without slow-path decodes");

        // A patch detaches this store's private copy; the frozen table
        // (and every sibling attached to it) keeps the original slot.
        let xor = Insn::Xor { rd: Reg::R4, ra: Reg::R5, rb: Reg::R6 };
        store.write(&mut imem, 0, &[encode(&xor)]).unwrap();
        assert_eq!(store.fetch(&imem, &features(), 0).unwrap().insn, xor);
        assert_eq!(store.prepared, 1, "only the patched slot re-decodes");
        assert_eq!(table.slots[0].map(|d| d.insn), Some(add), "the frozen table must never change");
    }

    #[test]
    fn faults_match_direct_decode() {
        let imem = Bram::new(16);
        let mut store = ProgramStore::new(false);
        assert!(matches!(store.fetch(&imem, &features(), 2), Err(RunError::Mem { pc: 2, .. })));
        assert!(matches!(store.fetch(&imem, &features(), 64), Err(RunError::Mem { pc: 64, .. })));
    }

    #[test]
    fn block_ends_before_control_flow() {
        let (mut store, imem) = store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Xor { rd: Reg::R4, ra: Reg::R5, rb: Reg::R6 },
            Insn::Bci { cond: mb_isa::Cond::Ne, ra: Reg::R3, imm: -8, delay: false },
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), 2);
        assert_eq!(b.cycles, 2);
        assert_eq!(b.class_insns[OpClass::Alu.index()], 2);
        // A block entered *at* the branch is unbuildable (cached empty).
        assert!(store.block_at(&imem, &features(), 8).is_none());
        let built = store.built;
        assert!(store.block_at(&imem, &features(), 8).is_none());
        assert_eq!(store.built, built, "empty blocks must be cached, not rebuilt");
    }

    #[test]
    fn interior_imm_fuses_into_its_consumer() {
        let (mut store, imem) = store_with(&[
            Insn::Imm { imm: 0x1234u16 as i16 },
            Insn::Addi {
                rd: Reg::R1,
                ra: Reg::R0,
                imm: 0x5678,
                keep_carry: true,
                use_carry: false,
            },
            Insn::ret(),
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert!(matches!(b.ops[0].effect, Effect::ImmFused { hi } if hi == 0x1234u16 as i16));
        match b.ops[1].effect {
            Effect::AddImm { imm, .. } => assert_eq!(imm, 0x1234_5678),
            ref e => panic!("expected fused AddImm, got {e:?}"),
        }
        // Both instructions still retire individually.
        assert_eq!(b.ops.len(), 2);
        assert_eq!(b.class_insns[OpClass::ImmPrefix.index()], 1);
    }

    #[test]
    fn trailing_imm_escapes_to_the_prefix_register() {
        let (mut store, imem) = store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Imm { imm: 7 },
            Insn::Bci { cond: mb_isa::Cond::Ne, ra: Reg::R3, imm: -8, delay: false },
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), 2);
        assert!(matches!(b.ops[1].effect, Effect::ImmTrailing { hi: 7 }));
    }

    #[test]
    fn unsupported_slots_end_the_block() {
        let (mut store, imem) = store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Idiv { rd: Reg::R1, ra: Reg::R2, rb: Reg::R3, unsigned: false },
        ]);
        // paper_default has no divider: the block must stop before idiv.
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), 1);
    }

    #[test]
    fn learned_opb_pcs_split_blocks() {
        let (mut store, imem) = store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::swi(Reg::R0, Reg::R31, 0),
            Insn::addk(Reg::R4, Reg::R5, Reg::R6),
            Insn::ret(),
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), 3, "an unlearned store is fused optimistically");
        store.learn_opb(4);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), 1, "rebuilt block must end before the OPB store");
        assert!(store.block_at(&imem, &features(), 4).is_none());
    }

    #[test]
    fn shared_tables_serve_blocks_and_relearn_without_detaching() {
        let (mut store, imem) = store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::swi(Reg::R0, Reg::R31, 0),
            Insn::addk(Reg::R4, Reg::R5, Reg::R6),
            Insn::ret(),
        ]);
        // Warm the store the way an image build does: run shape learned,
        // blocks rebuilt to end before the OPB word.
        store.block_at(&imem, &features(), 0);
        store.learn_opb(4);
        assert_eq!(store.block_at(&imem, &features(), 0).unwrap().ops.len(), 1);
        store.block_at(&imem, &features(), 8);
        let tables = store.freeze();

        let mut fresh = ProgramStore::new(false);
        fresh.attach_shared(Arc::clone(&tables));
        let b = fresh.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), 1, "the shared table serves the learned shape");
        assert_eq!(fresh.built, 0, "a warm image needs no lazy builds");

        // Re-learning an already-learned OPB word — every session's exit
        // store does this — must not detach the shared tables.
        fresh.learn_opb(4);
        assert!(fresh.tables.is_shared(), "re-learning must stay shared");

        // Learning a genuinely new word detaches a private copy and
        // leaves the image (and the sibling still attached) intact.
        fresh.learn_opb(8);
        assert!(!fresh.tables.is_shared());
        assert!(fresh.block_at(&imem, &features(), 8).is_none());
        let sibling = store.block_at(&imem, &features(), 8).unwrap();
        assert_eq!(sibling.ops.len(), 1, "the frozen image must never change");
    }

    #[test]
    fn patch_invalidates_only_overlapping_blocks() {
        let mut insns = vec![Insn::addk(Reg::R1, Reg::R2, Reg::R3); 8];
        insns.push(Insn::ret()); // terminator so the first block is bounded
        insns.extend(vec![Insn::addk(Reg::R4, Reg::R5, Reg::R6); 4]);
        insns.push(Insn::ret());
        let (mut store, mut imem) = store_with(&insns);
        assert_eq!(store.block_at(&imem, &features(), 0).unwrap().ops.len(), 8);
        assert_eq!(store.block_at(&imem, &features(), 36).unwrap().ops.len(), 4);
        let built = store.built;

        // Patch word 2: the block at 0 dies (it contains word 2), the
        // one at word 9 survives.
        store
            .write(&mut imem, 8, &[encode(&Insn::Xor { rd: Reg::R7, ra: Reg::R1, rb: Reg::R2 })])
            .unwrap();
        assert!(store.block_at(&imem, &features(), 36).is_some());
        assert_eq!(store.built, built, "non-overlapping block must survive the patch");
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(store.built, built + 1, "overlapping block must rebuild");
        assert!(matches!(b.ops[2].effect, Effect::Xor { .. }));
    }

    #[test]
    fn misaligned_pc_yields_no_block() {
        let (mut store, imem) = store_with(&[Insn::addk(Reg::R1, Reg::R2, Reg::R3)]);
        assert!(store.block_at(&imem, &features(), 2).is_none());
    }

    fn bnei_back(words: i32) -> Insn {
        Insn::Bci { cond: mb_isa::Cond::Ne, ra: Reg::R3, imm: (-4 * words) as i16, delay: false }
    }

    #[test]
    fn backward_branch_chains_into_a_loop_guard() {
        let (mut store, imem) = chained_store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::addik(Reg::R3, Reg::R3, -1),
            bnei_back(2),
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), 2);
        assert_eq!(b.cycles, 2, "guard cycles stay out of the body cost");
        let g = b.guard.expect("backward bnei must chain");
        assert_eq!(g.target, 0, "loop closes on the block's own head");
        assert_eq!((g.lat_taken, g.lat_not_taken), (2, 1));
        assert!(matches!(g.cond, Some((mb_isa::Cond::Ne, Reg::R3))));
        assert_eq!(b.span_words(), 3, "the guard word belongs to the trace");
    }

    #[test]
    fn guard_only_self_loop_is_dispatchable() {
        // `spin: bri spin` — empty body, guard targeting itself.
        let (mut store, imem) = chained_store_with(&[Insn::Bri {
            rd: Reg::R0,
            imm: 0,
            link: false,
            absolute: false,
            delay: false,
        }]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert!(b.ops.is_empty());
        let g = b.guard.unwrap();
        assert_eq!(g.target, 0);
        assert!(g.cond.is_none(), "bri is unconditional: the guard always loops");
    }

    #[test]
    fn forward_register_target_and_delay_branches_never_chain() {
        // Forward bci: predicted not-taken, no loop shape.
        let (mut store, imem) = chained_store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Bci { cond: mb_isa::Cond::Ne, ra: Reg::R3, imm: 8, delay: false },
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert!(b.guard.is_none(), "forward branch must not chain");

        // Register-target br: dynamic target.
        let (mut store, imem) = chained_store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Br { rd: Reg::R0, rb: Reg::R5, link: false, absolute: false, delay: false },
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert!(b.guard.is_none(), "register-target branch must not chain");

        // Delay-slot bci: retirement spans two PCs.
        let (mut store, imem) = chained_store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Bci { cond: mb_isa::Cond::Ne, ra: Reg::R3, imm: -4, delay: true },
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert!(b.guard.is_none(), "delay-slot branch must not chain");
    }

    #[test]
    fn trailing_imm_fuses_into_the_guard_target() {
        // imm 0xFFFF ++ bnei -8 resolves to a full 32-bit backward
        // displacement; the prefix is consumed statically so the imm
        // lowers to ImmFused, not ImmTrailing.
        let (mut store, imem) = chained_store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Imm { imm: -1 },
            bnei_back(2),
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        let g = b.guard.expect("prefix-resolved backward target must chain");
        assert_eq!(g.target, 0);
        assert!(matches!(b.ops[1].effect, Effect::ImmFused { hi: -1 }));
    }

    #[test]
    fn trailing_imm_stays_architectural_when_the_guard_is_rejected() {
        // The same shape but the prefix makes the target *forward*: no
        // guard, so the imm must escape to the real prefix register.
        let (mut store, imem) = chained_store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::Imm { imm: 1 },
            bnei_back(2),
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert!(b.guard.is_none());
        assert!(matches!(b.ops[1].effect, Effect::ImmTrailing { hi: 1 }));
    }

    #[test]
    fn patch_on_the_guard_word_drops_the_chained_trace() {
        // Maximum-length body (64 ops) + guard at word 64: a patch on
        // the guard word alone must still kill the trace at word 0 —
        // the invalidation back-scan covers body + guard.
        let mut insns = vec![Insn::addk(Reg::R1, Reg::R2, Reg::R3); MAX_BLOCK_OPS];
        insns.push(bnei_back(MAX_BLOCK_OPS as i32));
        let (mut store, mut imem) = chained_store_with(&insns);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(b.ops.len(), MAX_BLOCK_OPS);
        assert!(b.guard.is_some());
        let built = store.built;

        let guard_pc = 4 * MAX_BLOCK_OPS as u32;
        store.write(&mut imem, guard_pc, &[encode(&Insn::ret())]).unwrap();
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert_eq!(store.built, built + 1, "guard-word patch must rebuild the trace");
        assert!(b.guard.is_none(), "rtsd (delay slot) must not chain");
    }

    #[test]
    fn unchained_store_never_builds_guards() {
        let (mut store, imem) = store_with(&[
            Insn::addk(Reg::R1, Reg::R2, Reg::R3),
            Insn::addik(Reg::R3, Reg::R3, -1),
            bnei_back(2),
        ]);
        let b = store.block_at(&imem, &features(), 0).unwrap();
        assert!(b.guard.is_none());
        assert!(store.block_at(&imem, &features(), 8).is_none());
    }
}
