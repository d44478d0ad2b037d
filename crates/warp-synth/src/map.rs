//! Technology mapping onto 3-input LUTs.
//!
//! The WCLA's configurable-logic fabric is built from 3-input, 2-output
//! LUTs (two independent 3-LUTs per CLB). This module covers the gate
//! netlist with 3-input LUTs using greedy cut enlargement — the lean
//! mapping pass of the on-chip tool flow — and produces the
//! [`LutNetlist`] that placement and routing consume.
//!
//! Mapping is organized around **root cones** (one per output bit,
//! flip-flop input, and MAC operand bit — the "LUT clusters" of the
//! incremental flow): every decision the mapper makes for a cone is a
//! pure function of the cone's canonical fan-in structure. So a host
//! [`MapStore`] keeps each cone's mapping plan once and replays it
//! bit-identically, while a [`MapCache`] models the cones the on-chip
//! mapper has already seen. [`MapWork`] charges only the cones that
//! cache did not hold, and feeds the on-chip CAD cost model.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use mb_isa::Reg;

use crate::bits::{BitDef, BitId, GateNetlist, InputWord};
use crate::rocm;
use crate::store::{Lookups, Table};

/// Index of a node in a [`LutNetlist`].
pub type LutRef = u32;

/// Maximum LUT fan-in of the WCLA fabric.
pub const LUT_INPUTS: usize = 3;

/// One node of the mapped netlist.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum LutNode {
    /// Constant 0/1 (tied off in the fabric).
    Const(bool),
    /// A fabric input bit.
    Input {
        /// Which input word.
        word: InputWord,
        /// Bit position.
        bit: u8,
    },
    /// Flip-flop output (accumulator state bit).
    FfQ(usize),
    /// A configured LUT.
    Lut {
        /// 1–3 input nodes.
        inputs: Vec<LutRef>,
        /// Truth table over the inputs (bit `i` = output for input
        /// assignment `i`, input 0 = LSB).
        truth: u8,
    },
}

/// A flip-flop in the mapped netlist.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct LutFf {
    /// Accumulator register.
    pub reg: Reg,
    /// Bit within the register.
    pub bit: u8,
    /// Next-state input.
    pub d: LutRef,
}

/// A MAC operation with mapped operand bits.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct LutMac {
    /// Multiplicand bits.
    pub a: [LutRef; 32],
    /// Multiplier bits.
    pub b: [LutRef; 32],
    /// Accumulate input bits.
    pub addend: [LutRef; 32],
    /// Accumulate function.
    pub mode: crate::bits::MacMode,
}

/// An output word with mapped bits.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct LutOutput {
    /// Index into the kernel's store list.
    pub store: usize,
    /// Output bits.
    pub bits: [LutRef; 32],
}

/// Mapping statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct MapStats {
    /// Number of LUTs.
    pub luts: u64,
    /// Number of flip-flops.
    pub ffs: u64,
    /// Number of MAC operations.
    pub macs: u64,
    /// LUT levels on the longest path.
    pub depth: u64,
    /// Total LUT input pins in use.
    pub pins: u64,
    /// Sum of minimized SOP literal costs over all LUTs (ROCM metric).
    pub sop_literals: u64,
}

/// A 3-LUT netlist ready for placement and routing.
#[derive(Clone, PartialEq, Eq, Debug, Default, Hash)]
pub struct LutNetlist {
    nodes: Vec<LutNode>,
    ffs: Vec<LutFf>,
    macs: Vec<LutMac>,
    outputs: Vec<LutOutput>,
}

impl LutNetlist {
    /// All nodes in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[LutNode] {
        &self.nodes
    }

    /// The flip-flops.
    #[must_use]
    pub fn ffs(&self) -> &[LutFf] {
        &self.ffs
    }

    /// The MAC schedule.
    #[must_use]
    pub fn macs(&self) -> &[LutMac] {
        &self.macs
    }

    /// The output words.
    #[must_use]
    pub fn outputs(&self) -> &[LutOutput] {
        &self.outputs
    }

    /// Number of LUT nodes (excluding inputs/constants/FFs).
    #[must_use]
    pub fn lut_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, LutNode::Lut { .. })).count()
    }

    /// Evaluates the netlist for one iteration (same contract as
    /// [`GateNetlist::eval`]).
    pub fn eval(&self, mut inputs: impl FnMut(InputWord) -> u32, ff_state: &[bool]) -> LutEval {
        let mut vals = vec![false; self.nodes.len()];
        let mut mac_vals: Vec<Option<u32>> = vec![None; self.macs.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let value = match node {
                LutNode::Const(v) => *v,
                LutNode::Input { word, bit } => match word {
                    InputWord::MacOut(k) => {
                        let v = *mac_vals[*k].get_or_insert_with(|| {
                            let take = |w: &[LutRef; 32]| -> u32 {
                                w.iter().enumerate().fold(0u32, |acc, (j, &b)| {
                                    acc | (u32::from(vals[b as usize]) << j)
                                })
                            };
                            let m = &self.macs[*k];
                            let prod = take(&m.a).wrapping_mul(take(&m.b));
                            m.mode.apply(prod, take(&m.addend))
                        });
                        v >> bit & 1 == 1
                    }
                    other => inputs(*other) >> bit & 1 == 1,
                },
                LutNode::FfQ(k) => ff_state.get(*k).copied().unwrap_or(false),
                LutNode::Lut { inputs: ins, truth } => {
                    let mut idx = 0u8;
                    for (j, &r) in ins.iter().enumerate() {
                        if vals[r as usize] {
                            idx |= 1 << j;
                        }
                    }
                    truth >> idx & 1 == 1
                }
            };
            vals[i] = value;
        }
        LutEval { vals }
    }

    /// Mapping statistics.
    #[must_use]
    pub fn stats(&self) -> MapStats {
        let mut depth = vec![0u64; self.nodes.len()];
        let mut s = MapStats {
            ffs: self.ffs.len() as u64,
            macs: self.macs.len() as u64,
            ..MapStats::default()
        };
        for (i, node) in self.nodes.iter().enumerate() {
            if let LutNode::Lut { inputs, truth } = node {
                s.luts += 1;
                s.pins += inputs.len() as u64;
                s.sop_literals += u64::from(rocm::lut3_sop_cost(*truth));
                depth[i] = inputs.iter().map(|&r| depth[r as usize]).max().unwrap_or(0) + 1;
                s.depth = s.depth.max(depth[i]);
            }
        }
        s
    }
}

/// Result of a [`LutNetlist::eval`].
#[derive(Clone, Debug)]
pub struct LutEval {
    vals: Vec<bool>,
}

impl LutEval {
    /// The value of one node.
    #[must_use]
    pub fn value(&self, r: LutRef) -> bool {
        self.vals[r as usize]
    }

    /// Reassembles a word.
    #[must_use]
    pub fn word(&self, bits: &[LutRef; 32]) -> u32 {
        bits.iter()
            .enumerate()
            .fold(0u32, |acc, (i, &b)| acc | (u32::from(self.vals[b as usize]) << i))
    }
}

/// Maximum cuts kept per node during enumeration.
const MAX_CUTS: usize = 8;

/// Enumerates 3-feasible cuts for every bit (standard k-feasible cut
/// enumeration, pruned to [`MAX_CUTS`] per node).
///
/// Returns, per bit, the cut list usable by *parents* (including the
/// trivial cut `{bit}` for non-constant bits) and, for gates, the
/// non-trivial cuts usable to map the bit itself.
/// All cuts of one bit; each cut is the list of leaf bits feeding it.
type CutList = Vec<Vec<BitId>>;

/// Enumerates cuts for the bits with `scope` set (a transitive-fan-in
/// closed set); everything out of scope is skipped. `None` = all bits.
fn enumerate_cuts(n: &GateNetlist, scope: Option<&[bool]>) -> Vec<CutList> {
    let len = n.defs().len();
    let mut parent_cuts: Vec<CutList> = vec![Vec::new(); len];
    let mut own_cuts: Vec<CutList> = vec![Vec::new(); len];
    for id in 0..len as BitId {
        if let Some(s) = scope {
            if !s[id as usize] {
                continue;
            }
        }
        let def = n.def(id);
        match def {
            BitDef::Const(_) => {
                // Constants fold into truth tables: empty cut.
                parent_cuts[id as usize] = vec![vec![]];
            }
            BitDef::Input { .. } | BitDef::FfQ(_) => {
                parent_cuts[id as usize] = vec![vec![id]];
            }
            _ => {
                let args = def.args();
                // Cartesian merge of argument cut lists.
                let mut merged: Vec<Vec<BitId>> = vec![vec![]];
                for &a in &args {
                    let mut next = Vec::new();
                    for base in &merged {
                        for ac in &parent_cuts[a as usize] {
                            let mut c: Vec<BitId> = base.iter().chain(ac.iter()).copied().collect();
                            c.sort_unstable();
                            c.dedup();
                            if c.len() <= LUT_INPUTS {
                                next.push(c);
                            }
                        }
                    }
                    merged = next;
                    if merged.is_empty() {
                        break;
                    }
                }
                merged.sort();
                merged.dedup();
                // Prefer cuts that materialize few extra gates and stay
                // small.
                merged.sort_by_key(|c| {
                    let gate_members = c.iter().filter(|&&m| n.def(m).is_gate()).count();
                    (gate_members, c.len())
                });
                merged.truncate(MAX_CUTS);
                own_cuts[id as usize] = merged.clone();
                let mut pl = merged;
                pl.insert(0, vec![id]);
                pl.truncate(MAX_CUTS);
                parent_cuts[id as usize] = pl;
            }
        }
    }
    own_cuts
}

/// Chooses the mapping cut for a gate: fewest gate members, then fewest
/// members.
fn choose_cut(own: &[Vec<BitId>]) -> Vec<BitId> {
    own.first().cloned().unwrap_or_default()
}

/// Evaluates the cone of `bit` under an assignment to its cut.
fn cone_value(n: &GateNetlist, bit: BitId, cut: &[BitId], assignment: u8) -> bool {
    fn eval(
        n: &GateNetlist,
        b: BitId,
        cut: &[BitId],
        assignment: u8,
        memo: &mut HashMap<BitId, bool>,
    ) -> bool {
        if let Some(pos) = cut.iter().position(|&c| c == b) {
            return assignment >> pos & 1 == 1;
        }
        if let Some(&v) = memo.get(&b) {
            return v;
        }
        let v = match n.def(b) {
            BitDef::Const(c) => c,
            BitDef::Input { .. } | BitDef::FfQ(_) => {
                unreachable!("cut must cover all non-constant leaves")
            }
            BitDef::Not(a) => !eval(n, a, cut, assignment, memo),
            BitDef::And(a, c) => {
                eval(n, a, cut, assignment, memo) && eval(n, c, cut, assignment, memo)
            }
            BitDef::Or(a, c) => {
                eval(n, a, cut, assignment, memo) || eval(n, c, cut, assignment, memo)
            }
            BitDef::Xor(a, c) => {
                eval(n, a, cut, assignment, memo) ^ eval(n, c, cut, assignment, memo)
            }
            BitDef::Mux { sel, t, f } => {
                if eval(n, sel, cut, assignment, memo) {
                    eval(n, t, cut, assignment, memo)
                } else {
                    eval(n, f, cut, assignment, memo)
                }
            }
        };
        memo.insert(b, v);
        v
    }
    let mut memo = HashMap::new();
    eval(n, bit, cut, assignment, &mut memo)
}

/// One bit of a root cone, canonicalized by renaming every bit in the
/// cone's transitive fan-in to its rank in ascending-id order.
///
/// Two cones with equal canonical forms map identically: every decision
/// the cut search makes (cut-member sorts, cut-list ordering, truth
/// tables) only ever compares bit ids for *order*, and ranks preserve
/// order. Inputs and flip-flop outputs collapse to [`CanonBit::Leaf`]
/// because both behave as opaque cut leaves; constants keep their value
/// because it folds into truth tables.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum CanonBit {
    /// Constant bit.
    Const(bool),
    /// Input or flip-flop output: an opaque cut leaf.
    Leaf,
    /// NOT gate.
    Not(u32),
    /// AND gate (argument positions preserved).
    And(u32, u32),
    /// OR gate.
    Or(u32, u32),
    /// XOR gate.
    Xor(u32, u32),
    /// MUX gate.
    Mux {
        /// Select rank.
        sel: u32,
        /// Then rank.
        t: u32,
        /// Else rank.
        f: u32,
    },
}

/// One materialized bit of a mapped cone: its fan-in rank and, for
/// gates, the chosen cut (as ranks) plus LUT truth table (`None` for
/// leaves and constants, which materialize from their own defs).
type PlannedBit = (u32, Option<(Vec<u32>, u8)>);

/// A canonical cone, shared by the store and the caches that hold it.
type Cone = Arc<[CanonBit]>;

/// A stored cone mapping plan.
type ConePlan = Arc<[PlannedBit]>;

/// The host store of cone mapping plans: `(rank, gate plan)` for every
/// bit a mapped cone materializes, keyed by the canonical cone.
///
/// [`map_netlist_cached`] runs cut enumeration only for the cones this
/// store misses and replays the rest, producing a bit-identical
/// [`LutNetlist`] either way. The store never changes the reported
/// [`MapWork`].
#[derive(Debug, Default)]
pub struct MapStore {
    plans: Table<Cone, [PlannedBit]>,
}

impl MapStore {
    /// Cone lookups the store served or missed so far: one per
    /// distinct cone of every netlist mapped through it, so a miss is
    /// one cone plan computed.
    #[must_use]
    pub fn lookups(&self) -> Lookups {
        self.plans.lookups()
    }
}

/// The canonical cones the on-chip mapper has already mapped, shared
/// across compiles: the model of its reuse.
///
/// It holds only keys. A cone it holds is charged nothing in
/// [`MapWork`]; the mapping itself comes from a [`MapStore`] either way.
/// Cones are compared in full, so two distinct cones never alias.
#[derive(Debug, Default)]
pub struct MapCache {
    cones: Mutex<HashSet<Cone>>,
}

impl MapCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cones held.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cones.lock().expect("map cache lock").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Mapping work the on-chip mapper performed (cones a [`MapCache`]
/// did not hold), for the on-chip CAD cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct MapWork {
    /// Unique root cones (LUT clusters) in this netlist.
    pub clusters: u64,
    /// Clusters the cache held.
    pub clusters_reused: u64,
    /// Gate bits in the fan-in of the clusters the cache did not hold:
    /// the cut enumeration the lean processor performed.
    pub gates_enumerated: u64,
}

/// The root bits of a netlist — every bit the mapped netlist must
/// materialize directly: output bits, flip-flop inputs, MAC operands.
fn root_bits(n: &GateNetlist) -> Vec<BitId> {
    let mut roots = Vec::new();
    for o in n.outputs() {
        roots.extend(o.bits);
    }
    for f in n.ffs() {
        roots.push(f.d);
    }
    for m in n.macs() {
        roots.extend(m.a);
        roots.extend(m.b);
        roots.extend(m.addend);
    }
    roots
}

/// The transitive fan-in of `root` (inclusive), ascending by id.
fn cone_tfi(n: &GateNetlist, root: BitId) -> Vec<BitId> {
    let mut seen: HashSet<BitId> = HashSet::new();
    let mut stack = vec![root];
    while let Some(b) = stack.pop() {
        if seen.insert(b) {
            stack.extend(n.def(b).args());
        }
    }
    let mut ids: Vec<BitId> = seen.into_iter().collect();
    ids.sort_unstable();
    ids
}

/// Canonicalizes a cone: each fan-in bit becomes its rank-renamed def.
fn canonicalize(n: &GateNetlist, tfi: &[BitId]) -> Cone {
    let rank: HashMap<BitId, u32> = tfi.iter().enumerate().map(|(k, &b)| (b, k as u32)).collect();
    tfi.iter()
        .map(|&b| match n.def(b) {
            BitDef::Const(v) => CanonBit::Const(v),
            BitDef::Input { .. } | BitDef::FfQ(_) => CanonBit::Leaf,
            BitDef::Not(a) => CanonBit::Not(rank[&a]),
            BitDef::And(a, c) => CanonBit::And(rank[&a], rank[&c]),
            BitDef::Or(a, c) => CanonBit::Or(rank[&a], rank[&c]),
            BitDef::Xor(a, c) => CanonBit::Xor(rank[&a], rank[&c]),
            BitDef::Mux { sel, t, f } => {
                CanonBit::Mux { sel: rank[&sel], t: rank[&t], f: rank[&f] }
            }
        })
        .collect()
}

/// Maps a gate netlist onto 3-input LUTs.
///
/// Every output bit, flip-flop input, and MAC operand is materialized;
/// interior gates are absorbed into LUT cones wherever a 3-feasible cut
/// exists.
#[must_use]
pub fn map_netlist(n: &GateNetlist) -> LutNetlist {
    map_netlist_cached(n, &MapStore::default(), None).0
}

/// Maps a gate netlist onto 3-input LUTs through the host `store`,
/// charging in [`MapWork`] only the root cones `cache` did not hold
/// (and adding them to it).
///
/// The produced netlist is **bit-identical** to [`map_netlist`]'s
/// whatever `store` and `cache` hold. The work depends on `cache` only.
#[must_use]
pub fn map_netlist_cached(
    n: &GateNetlist,
    store: &MapStore,
    cache: Option<&MapCache>,
) -> (LutNetlist, MapWork) {
    let defs_len = n.defs().len();
    let mut work = MapWork::default();

    // Unique root cones, in first-appearance order.
    let mut roots: Vec<BitId> = Vec::new();
    let mut is_root = vec![false; defs_len];
    for b in root_bits(n) {
        if !is_root[b as usize] {
            is_root[b as usize] = true;
            roots.push(b);
        }
    }
    work.clusters = roots.len() as u64;

    // Per-gate mapping plan: the chosen cut, plus the truth table when
    // replayed (fresh cones compute truths at materialization).
    let mut plan: Vec<Option<(Vec<BitId>, Option<u8>)>> = vec![None; defs_len];
    let mut needed = vec![false; defs_len];
    let mut charged = vec![false; defs_len];
    let mut tfis: Vec<Vec<BitId>> = Vec::with_capacity(roots.len());
    let mut cones: Vec<Cone> = Vec::with_capacity(roots.len());
    let mut fresh: Vec<usize> = Vec::new();
    // Whether the cache held each distinct cone, and its stored plan: a
    // cone that recurs in this netlist shares its first root's lookups.
    let mut looked_up: HashMap<Cone, (bool, Option<ConePlan>)> = HashMap::new();

    for (i, &r) in roots.iter().enumerate() {
        let tfi = cone_tfi(n, r);
        let cone = canonicalize(n, &tfi);
        let (held, planned) = looked_up
            .entry(Arc::clone(&cone))
            .or_insert_with(|| {
                let held = cache.map(|c| c.cones.lock().expect("map cache lock"));
                (held.is_some_and(|h| h.contains(&cone)), store.plans.get(&cone))
            })
            .clone();
        // The on-chip mapper enumerates the fan-in of every cone its
        // cache does not hold.
        if held {
            work.clusters_reused += 1;
        } else {
            for &id in &tfi {
                charged[id as usize] = true;
            }
        }
        match planned {
            Some(planned) => {
                // Replay: mark the cone's needed closure and record each
                // gate's cut and truth, translated back from ranks.
                for (rank, gate) in planned.iter() {
                    let id = tfi[*rank as usize];
                    needed[id as usize] = true;
                    if let (Some((cut_ranks, truth)), None) = (gate, &plan[id as usize]) {
                        let cut: Vec<BitId> =
                            cut_ranks.iter().map(|&cr| tfi[cr as usize]).collect();
                        plan[id as usize] = Some((cut, Some(*truth)));
                    }
                }
            }
            None => fresh.push(i),
        }
        tfis.push(tfi);
        cones.push(cone);
    }
    work.gates_enumerated =
        (0..defs_len).filter(|&id| charged[id] && n.def(id as BitId).is_gate()).count() as u64;

    // Cut enumeration over the union of the store-missed cones' fan-ins
    // only: every other cone replayed its plan.
    let mut in_scope = vec![false; defs_len];
    for &i in &fresh {
        for &id in &tfis[i] {
            in_scope[id as usize] = true;
        }
    }
    let own_cuts = enumerate_cuts(n, Some(&in_scope));
    for id in 0..defs_len as BitId {
        if in_scope[id as usize] && n.def(id).is_gate() && plan[id as usize].is_none() {
            plan[id as usize] = Some((choose_cut(&own_cuts[id as usize]), None));
        }
    }

    // Needed bits for fresh roots: the root plus, transitively, cut
    // members of needed gates. (Replayed cones marked theirs above.)
    for &i in &fresh {
        let mut stack = vec![roots[i]];
        while let Some(b) = stack.pop() {
            if needed[b as usize] {
                continue;
            }
            needed[b as usize] = true;
            if let Some((cut, _)) = &plan[b as usize] {
                stack.extend(cut.iter().copied());
            }
        }
    }

    // Materialize in topological order; identical whether a gate's plan
    // was replayed or freshly chosen.
    let mut out = LutNetlist::default();
    let mut map: Vec<Option<LutRef>> = vec![None; defs_len];
    let mut final_truth: Vec<Option<u8>> = vec![None; defs_len];
    for id in 0..defs_len as BitId {
        if !needed[id as usize] {
            continue;
        }
        let node = match n.def(id) {
            BitDef::Const(v) => LutNode::Const(v),
            BitDef::Input { word, bit } => LutNode::Input { word, bit },
            BitDef::FfQ(k) => LutNode::FfQ(k),
            _ => {
                let (cut, replayed) = plan[id as usize].clone().expect("needed gates have cuts");
                if cut.is_empty() {
                    // The cone folds to a constant.
                    let v = match replayed {
                        Some(t) => t & 1 == 1,
                        None => cone_value(n, id, &cut, 0),
                    };
                    final_truth[id as usize] = Some(u8::from(v));
                    LutNode::Const(v)
                } else {
                    let inputs: Vec<LutRef> = cut
                        .iter()
                        .map(|&c| map[c as usize].expect("cut member materialized"))
                        .collect();
                    let truth = replayed.unwrap_or_else(|| {
                        let mut t = 0u8;
                        for a in 0..(1u8 << cut.len()) {
                            if cone_value(n, id, &cut, a) {
                                t |= 1 << a;
                            }
                        }
                        t
                    });
                    final_truth[id as usize] = Some(truth);
                    LutNode::Lut { inputs, truth }
                }
            }
        };
        map[id as usize] = Some(out.nodes.len() as LutRef);
        out.nodes.push(node);
    }

    let remap = |b: BitId| map[b as usize].expect("root bit materialized");
    for o in n.outputs() {
        out.outputs.push(LutOutput { store: o.store, bits: o.bits.map(remap) });
    }
    for f in n.ffs() {
        out.ffs.push(LutFf { reg: f.reg, bit: f.bit, d: remap(f.d) });
    }
    for m in n.macs() {
        out.macs.push(LutMac {
            a: m.a.map(remap),
            b: m.b.map(remap),
            addend: m.addend.map(remap),
            mode: m.mode,
        });
    }

    // Store every freshly mapped cone's plan, once: its root-local
    // needed closure with the final cuts and truths, rank-renamed.
    for &i in &fresh {
        let (_, stored) = looked_up.get_mut(&cones[i]).expect("every cone was looked up");
        if stored.is_some() {
            continue;
        }
        let tfi = &tfis[i];
        let rank: HashMap<BitId, u32> =
            tfi.iter().enumerate().map(|(k, &b)| (b, k as u32)).collect();
        let mut local = vec![false; tfi.len()];
        let mut stack = vec![roots[i]];
        while let Some(b) = stack.pop() {
            let rk = rank[&b] as usize;
            if local[rk] {
                continue;
            }
            local[rk] = true;
            if let Some((cut, _)) = &plan[b as usize] {
                stack.extend(cut.iter().copied());
            }
        }
        let planned: ConePlan = tfi
            .iter()
            .enumerate()
            .filter(|&(k, _)| local[k])
            .map(|(k, &b)| {
                let gate = plan[b as usize].as_ref().map(|(cut, _)| {
                    let cut_ranks: Vec<u32> = cut.iter().map(|m| rank[m]).collect();
                    (cut_ranks, final_truth[b as usize].expect("needed gate materialized"))
                });
                (k as u32, gate)
            })
            .collect();
        store.plans.insert(Arc::clone(&cones[i]), Arc::clone(&planned));
        *stored = Some(planned);
    }
    if let Some(cache) = cache {
        cache.cones.lock().expect("map cache lock").extend(cones);
    }

    (out, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::GateNetlist;

    #[test]
    fn small_cone_packs_into_one_lut() {
        // f = (a & b) ^ c — 3 inputs, must become exactly one LUT.
        let mut n = GateNetlist::new();
        let a = n.input(InputWord::Load { stream: 0, offset: 0 }, 0);
        let b = n.input(InputWord::Load { stream: 0, offset: 0 }, 1);
        let c = n.input(InputWord::Load { stream: 0, offset: 0 }, 2);
        let ab = n.and(a, b);
        let f = n.xor(ab, c);
        let mut bits = [n.constant(false); 32];
        bits[0] = f;
        n.output(0, bits);
        let mapped = map_netlist(&n);
        assert_eq!(mapped.lut_count(), 1, "two gates must share one LUT");
        // Check the function on all 8 assignments.
        for x in 0..8u32 {
            let res = mapped.eval(|_| x, &[]);
            let want = ((x & 1 != 0) && (x & 2 != 0)) ^ (x & 4 != 0);
            assert_eq!(res.word(&mapped.outputs()[0].bits) & 1 == 1, want, "x={x}");
        }
    }

    #[test]
    fn wire_outputs_need_no_luts() {
        let mut n = GateNetlist::new();
        let w = n.input_word(InputWord::Load { stream: 0, offset: 0 });
        let sh = n.shl_word(w, 5);
        n.output(0, sh);
        let mapped = map_netlist(&n);
        assert_eq!(mapped.lut_count(), 0, "wiring must map to zero LUTs");
        let res = mapped.eval(|_| 0xFFFF_FFFF, &[]);
        assert_eq!(res.word(&mapped.outputs()[0].bits), 0xFFFF_FFFF << 5);
    }

    #[test]
    fn adder_maps_with_reasonable_density() {
        let mut n = GateNetlist::new();
        let a = n.input_word(InputWord::Load { stream: 0, offset: 0 });
        let b = n.input_word(InputWord::Load { stream: 1, offset: 0 });
        let s = n.add_word(a, b, false);
        n.output(0, s);
        let gates = n.stats().gates;
        let mapped = map_netlist(&n);
        let luts = mapped.lut_count() as u64;
        assert!(luts < gates, "mapping must compress ({luts} LUTs vs {gates} gates)");
        // A 32-bit carry-select adder: two ripples plus muxes over
        // three blocks, one plain ripple block.
        assert!(luts <= 240, "adder should need ≤240 LUTs, got {luts}");
        // Functional check.
        for (x, y) in [(1u32, 2u32), (u32::MAX, 1), (0xABCD, 0x1234)] {
            let res = mapped
                .eval(|w| if matches!(w, InputWord::Load { stream: 0, .. }) { x } else { y }, &[]);
            assert_eq!(res.word(&mapped.outputs()[0].bits), x.wrapping_add(y));
        }
    }

    #[test]
    fn ff_and_mac_survive_mapping() {
        let mut n = GateNetlist::new();
        let (ff, q) = n.ff(Reg::R22, 0);
        let a = n.input_word(InputWord::Load { stream: 0, offset: 0 });
        let c = n.const_word(3);
        let p = n.mac(a, c);
        let d = n.xor(q, p[0]);
        n.set_ff_d(ff, d);
        let mapped = map_netlist(&n);
        assert_eq!(mapped.ffs().len(), 1);
        assert_eq!(mapped.macs().len(), 1);
        // value 5*3 = 15, bit0 = 1; ff q=0 -> d = 1.
        let res = mapped.eval(|_| 5, &[false]);
        assert!(res.value(mapped.ffs()[0].d));
    }

    #[test]
    fn cached_mapping_is_bit_identical_and_charges_only_unheld_cones() {
        let adder = || {
            let mut n = GateNetlist::new();
            let a = n.input_word(InputWord::Load { stream: 0, offset: 0 });
            let b = n.input_word(InputWord::Load { stream: 1, offset: 0 });
            let s = n.add_word(a, b, false);
            n.output(0, s);
            n
        };
        let n = adder();
        let fresh = map_netlist(&n);

        let store = MapStore::default();
        let cache = MapCache::new();
        let (first, w1) = map_netlist_cached(&n, &store, Some(&cache));
        assert_eq!(first, fresh, "an empty cache must not change the mapping");
        assert_eq!(w1.clusters_reused, 0);
        assert!(w1.gates_enumerated > 0);
        assert!(!cache.is_empty());
        assert_eq!(store.lookups().hits, 0);

        // The same structure again (a fresh netlist, so ids could in
        // principle differ): every cone is held, zero enumeration, and
        // the result is still bit-identical.
        let (second, w2) = map_netlist_cached(&adder(), &store, Some(&cache));
        assert_eq!(second, fresh, "replayed mapping must be bit-identical");
        assert_eq!(w2.clusters_reused, w2.clusters, "every cone must hit");
        assert_eq!(w2.gates_enumerated, 0, "no cut enumeration on a full hit");

        // A warm store over an empty cache replays every plan, yet
        // charges exactly what the first compile did.
        let misses = store.lookups().misses;
        let (third, w3) = map_netlist_cached(&adder(), &store, Some(&MapCache::new()));
        assert_eq!(third, fresh);
        assert_eq!(w3, w1, "the store never changes the charged work");
        assert_eq!(store.lookups().misses, misses, "a warm store computes nothing");
    }

    #[test]
    fn similar_netlists_share_cones_across_the_cache() {
        // Two mixers with different shift distances: the interior cone
        // *shapes* coincide (xor-of-xor over opaque leaves), so mapping
        // the second after the first reuses nearly every cluster.
        let mixer = |l: u8, r: u8| {
            let mut n = GateNetlist::new();
            let x = n.input_word(InputWord::Load { stream: 0, offset: 0 });
            let m = n.input_word(InputWord::Load { stream: 1, offset: 0 });
            let sh = n.shl_word(x, l);
            let sr = n.shr_word(x, r);
            let t = n.xor_word(sh, sr);
            let y = n.xor_word(t, m);
            n.output(0, y);
            n
        };
        let store = MapStore::default();
        let cache = MapCache::new();
        let (_, w1) = map_netlist_cached(&mixer(3, 7), &store, Some(&cache));
        assert_eq!(w1.clusters_reused, 0);
        let n2 = mixer(5, 9);
        let (mapped, w2) = map_netlist_cached(&n2, &store, Some(&cache));
        assert_eq!(mapped, map_netlist(&n2), "reuse must not change the result");
        assert_eq!(w2.clusters_reused, w2.clusters, "all mixer cone shapes recur");
        assert_eq!(w2.gates_enumerated, 0);
    }

    #[test]
    fn stats_count_pins_and_depth() {
        let mut n = GateNetlist::new();
        let a = n.input_word(InputWord::Load { stream: 0, offset: 0 });
        let b = n.input_word(InputWord::Load { stream: 1, offset: 0 });
        let s = n.add_word(a, b, false);
        n.output(0, s);
        let mapped = map_netlist(&n);
        let st = mapped.stats();
        assert!(st.luts > 0);
        assert!(st.pins >= st.luts, "every LUT uses at least one pin");
        assert!(st.depth > 1, "carry chain spans levels");
        assert!(st.sop_literals > 0);
    }
}
