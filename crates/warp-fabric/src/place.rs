//! Levelized placement with greedy swap refinement.
//!
//! The on-chip placer is deliberately lean: LUTs are striped across the
//! columns by logic level (so data flows left to right), rows follow the
//! fan-in centroid, and a bounded greedy swap pass shortens the longest
//! nets. Flip-flops co-locate with the slot of the LUT driving their D
//! input where possible.
//!
//! The placer is a pure function of the netlist's *placement view* —
//! LUT-to-LUT connectivity, flip-flop D drivers, and grid geometry (the
//! swap pass is seeded deterministically) — so a [`PlaceCache`] can
//! memoize whole placements by content hash and restore them
//! bit-identically when a structurally identical netlist re-warps. The
//! same key serves a [`FabricMemo`], which keeps placements on the host
//! without changing the modeled work.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use warp_cdfg::fingerprint::Fnv1a;
use warp_synth::map::LutNode;
use warp_synth::LutNetlist;

use crate::arch::{FabricConfig, SlotId};
use crate::{CompileError, FabricMemo};

/// Where every netlist node landed.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    /// LUT node index → slot (only `LutNode::Lut` entries are placed).
    pub lut_slot: HashMap<u32, SlotId>,
    /// FF index → slot.
    pub ff_slot: HashMap<usize, SlotId>,
}

impl Placement {
    /// The slot of a LUT node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not placed (not a LUT).
    #[must_use]
    pub fn slot_of_lut(&self, node: u32) -> SlotId {
        self.lut_slot[&node]
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.lut_slot.len() + self.ff_slot.len()
    }
}

/// Half-perimeter wirelength of all LUT-to-LUT nets under a placement
/// (the placer's cost function).
fn wirelength(
    netlist: &LutNetlist,
    config: &FabricConfig,
    pos: &HashMap<u32, (usize, usize)>,
) -> u64 {
    let mut total = 0u64;
    for (i, node) in netlist.nodes().iter().enumerate() {
        if let LutNode::Lut { inputs, .. } = node {
            let Some(&(r0, c0)) = pos.get(&(i as u32)) else { continue };
            for &inp in inputs {
                if let Some(&(r1, c1)) = pos.get(&inp) {
                    total += r0.abs_diff(r1) as u64 + c0.abs_diff(c1) as u64;
                }
            }
        }
    }
    let _ = config;
    total
}

/// Everything the placer reads, canonicalized: LUT nodes renamed to
/// their rank in node order, inputs restricted to LUT-to-LUT edges
/// (non-LUT fan-ins are level-0 and invisible to the cost function),
/// flip-flops by their D-driver rank, plus the grid geometry.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct PlaceView {
    rows: usize,
    cols: usize,
    luts: Vec<Vec<u32>>,
    ffs: Vec<Option<u32>>,
}

fn placement_view(netlist: &LutNetlist, config: &FabricConfig) -> PlaceView {
    let mut rank: HashMap<u32, u32> = HashMap::new();
    for (i, node) in netlist.nodes().iter().enumerate() {
        if matches!(node, LutNode::Lut { .. }) {
            let r = rank.len() as u32;
            rank.insert(i as u32, r);
        }
    }
    let luts = netlist
        .nodes()
        .iter()
        .filter_map(|node| match node {
            LutNode::Lut { inputs, .. } => {
                Some(inputs.iter().filter_map(|r| rank.get(r).copied()).collect())
            }
            _ => None,
        })
        .collect();
    let ffs = netlist.ffs().iter().map(|ff| rank.get(&ff.d).copied()).collect();
    PlaceView { rows: config.rows, cols: config.cols, luts, ffs }
}

/// A memoized whole placement: slots by LUT rank and FF index.
#[derive(Clone, Debug)]
pub(crate) struct CachedPlacement {
    view: PlaceView,
    lut_slots: Vec<SlotId>,
    ff_slots: Vec<SlotId>,
}

impl CachedPlacement {
    fn of(view: PlaceView, lut_ids: &[u32], placement: &Placement) -> Self {
        let lut_slots = lut_ids.iter().map(|id| placement.lut_slot[id]).collect();
        let ff_slots = (0..view.ffs.len()).map(|k| placement.ff_slot[&k]).collect();
        CachedPlacement { view, lut_slots, ff_slots }
    }

    /// The placement for a netlist whose LUTs, in node order, are
    /// `lut_ids`.
    fn restore(&self, lut_ids: &[u32]) -> Placement {
        Placement {
            lut_slot: lut_ids.iter().copied().zip(self.lut_slots.iter().copied()).collect(),
            ff_slot: self.ff_slots.iter().copied().enumerate().collect(),
        }
    }
}

/// Memoized placements, shared across compiles: the model of the
/// on-chip placer's reuse, and the store behind a [`FabricMemo`]'s
/// placements.
///
/// [`place_cached`] restores the exact placement [`place`] would compute
/// (the placer is deterministic), so only the reported [`PlaceWork`]
/// changes: a restored placement is placer work the lean processor
/// skips, and the cost model charges only the work that ran. Entries
/// are verified structurally on hit; a hash collision degrades to a
/// miss.
#[derive(Debug, Default)]
pub struct PlaceCache {
    slots: Mutex<HashMap<u64, CachedPlacement>>,
}

impl PlaceCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized placements.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().expect("place cache lock").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn lookup(&self, key: u64, view: &PlaceView) -> Option<CachedPlacement> {
        let slots = self.slots.lock().expect("place cache lock");
        slots.get(&key).filter(|c| &c.view == view).cloned()
    }

    pub(crate) fn insert(&self, key: u64, cached: CachedPlacement) {
        self.slots.lock().expect("place cache lock").entry(key).or_insert(cached);
    }
}

/// Placement work actually performed (vs. restored from a
/// [`PlaceCache`]), for the on-chip CAD cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct PlaceWork {
    /// Greedy swap attempts the placer ran.
    pub attempts: u64,
    /// Whether the whole placement was restored from the cache.
    pub restored: bool,
}

/// Places a mapped netlist, restoring the whole placement from `cache`
/// when a structurally identical netlist was placed before (and
/// memoizing fresh placements).
///
/// On a `cache` miss, a `memo` that holds the placement supplies it in
/// place of the placer; the reported work is the placer's either way.
///
/// Bit-identical to [`place`] either way — only [`PlaceWork`] changes,
/// and only with the cache.
///
/// # Errors
///
/// Returns [`CompileError::FabricFull`] when the netlist needs more
/// slots than the fabric provides.
pub fn place_cached(
    netlist: &LutNetlist,
    config: &FabricConfig,
    cache: Option<&PlaceCache>,
    memo: Option<&FabricMemo>,
) -> Result<(Placement, PlaceWork), CompileError> {
    let lut_ids: Vec<u32> = netlist
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n, LutNode::Lut { .. }))
        .map(|(i, _)| i as u32)
        .collect();
    let needed = lut_ids.len().max(netlist.ffs().len());
    if needed > config.lut_slots() {
        return Err(CompileError::FabricFull { needed, available: config.lut_slots() });
    }

    let view = placement_view(netlist, config);
    let key = {
        let mut h = Fnv1a::new();
        view.hash(&mut h);
        h.finish()
    };
    if let Some(hit) = cache.and_then(|c| c.lookup(key, &view)) {
        return Ok((hit.restore(&lut_ids), PlaceWork { attempts: 0, restored: true }));
    }

    let (placement, cached) = match memo.and_then(|m| m.placement(key, &view)) {
        Some(hit) => (hit.restore(&lut_ids), hit),
        None => {
            let placement = place(netlist, config)?;
            let cached = CachedPlacement::of(view, &lut_ids, &placement);
            if let Some(m) = memo {
                m.keep_placement(key, cached.clone());
            }
            (placement, cached)
        }
    };
    let attempts = if lut_ids.len() >= 2 { (lut_ids.len() * 24).min(120_000) as u64 } else { 0 };
    if let Some(c) = cache {
        c.insert(key, cached);
    }
    Ok((placement, PlaceWork { attempts, restored: false }))
}

/// Places a mapped netlist.
///
/// # Errors
///
/// Returns [`CompileError::FabricFull`] when the netlist needs more
/// slots than the fabric provides.
pub fn place(netlist: &LutNetlist, config: &FabricConfig) -> Result<Placement, CompileError> {
    let lut_ids: Vec<u32> = netlist
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n, LutNode::Lut { .. }))
        .map(|(i, _)| i as u32)
        .collect();
    // Each slot provides one LUT and one independent flip-flop.
    let needed = lut_ids.len().max(netlist.ffs().len());
    if needed > config.lut_slots() {
        return Err(CompileError::FabricFull { needed, available: config.lut_slots() });
    }

    // Logic levels (inputs/FFs are level 0).
    let mut level: Vec<usize> = vec![0; netlist.nodes().len()];
    let mut max_level = 1usize;
    for (i, node) in netlist.nodes().iter().enumerate() {
        if let LutNode::Lut { inputs, .. } = node {
            level[i] = inputs.iter().map(|&r| level[r as usize]).max().unwrap_or(0) + 1;
            max_level = max_level.max(level[i]);
        }
    }

    // Initial striping: column band by level, row near the fan-in
    // centroid (keeps structured datapaths' bit slices together).
    let mut clb_of: HashMap<u32, (usize, usize)> = HashMap::new();
    let mut occupancy: HashMap<(usize, usize), usize> = HashMap::new();
    let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); max_level + 1];
    for &id in &lut_ids {
        by_level[level[id as usize]].push(id);
    }
    let mut cursor = 0usize; // linear CLB cursor as fallback
    let clbs = config.rows * config.cols;
    for (lvl, ids) in by_level.iter().enumerate() {
        for (ord, &id) in ids.iter().enumerate() {
            // Preferred column for this level.
            let pref_col = (lvl * config.cols) / (max_level + 1);
            // Preferred row: centroid of already-placed fan-ins, or an
            // even spread within the level band.
            let fanin_rows: Vec<usize> = match &netlist.nodes()[id as usize] {
                LutNode::Lut { inputs, .. } => {
                    inputs.iter().filter_map(|r| clb_of.get(r).map(|&(row, _)| row)).collect()
                }
                _ => Vec::new(),
            };
            let pref_row = if fanin_rows.is_empty() {
                (ord * config.rows) / ids.len().max(1)
            } else {
                fanin_rows.iter().sum::<usize>() / fanin_rows.len()
            };
            // Scan outward from the preferred CLB.
            let mut placed = false;
            'scan: for d in 0..(config.rows + config.cols) {
                for dr in 0..=d {
                    let dc = d - dr;
                    for (row, col) in [
                        (pref_row.saturating_sub(dr), pref_col.saturating_sub(dc)),
                        (pref_row.saturating_sub(dr), (pref_col + dc).min(config.cols - 1)),
                        ((pref_row + dr).min(config.rows - 1), pref_col.saturating_sub(dc)),
                        (
                            (pref_row + dr).min(config.rows - 1),
                            (pref_col + dc).min(config.cols - 1),
                        ),
                    ] {
                        let e = occupancy.entry((row, col)).or_insert(0);
                        if *e < 2 {
                            *e += 1;
                            clb_of.insert(id, (row, col));
                            placed = true;
                            break 'scan;
                        }
                    }
                }
            }
            if !placed {
                // Fallback linear scan (should not happen given the
                // capacity check above).
                while occupancy
                    .get(&(cursor / config.cols, cursor % config.cols))
                    .copied()
                    .unwrap_or(0)
                    >= 2
                {
                    cursor = (cursor + 1) % clbs;
                }
                let key = (cursor / config.cols, cursor % config.cols);
                *occupancy.entry(key).or_insert(0) += 1;
                clb_of.insert(id, key);
            }
        }
    }

    // Greedy refinement: random pairwise swaps that reduce wirelength,
    // evaluated incrementally over the two touched nodes' edges.
    let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
    for (i, node) in netlist.nodes().iter().enumerate() {
        if let LutNode::Lut { inputs, .. } = node {
            for &inp in inputs {
                if clb_of.contains_key(&inp) && clb_of.contains_key(&(i as u32)) {
                    adjacency.entry(i as u32).or_default().push(inp);
                    adjacency.entry(inp).or_default().push(i as u32);
                }
            }
        }
    }
    let local_cost = |id: u32, clb_of: &HashMap<u32, (usize, usize)>| -> u64 {
        let Some(&(r0, c0)) = clb_of.get(&id) else { return 0 };
        adjacency.get(&id).map_or(0, |ns| {
            ns.iter()
                .filter_map(|n| clb_of.get(n))
                .map(|&(r1, c1)| r0.abs_diff(r1) as u64 + c0.abs_diff(c1) as u64)
                .sum()
        })
    };
    let mut rng_state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    if lut_ids.len() >= 2 {
        let attempts = (lut_ids.len() * 24).min(120_000);
        for _ in 0..attempts {
            let a = lut_ids[(next() as usize) % lut_ids.len()];
            let b = lut_ids[(next() as usize) % lut_ids.len()];
            if a == b {
                continue;
            }
            let pa = clb_of[&a];
            let pb = clb_of[&b];
            let before = local_cost(a, &clb_of) + local_cost(b, &clb_of);
            clb_of.insert(a, pb);
            clb_of.insert(b, pa);
            let after = local_cost(a, &clb_of) + local_cost(b, &clb_of);
            if after > before {
                clb_of.insert(a, pa);
                clb_of.insert(b, pb);
            }
        }
    }
    debug_assert!(wirelength(netlist, config, &clb_of) < u64::MAX);

    // Assign slot indices within CLBs.
    let mut slot_use: HashMap<(usize, usize), usize> = HashMap::new();
    let mut placement = Placement::default();
    for &id in &lut_ids {
        let (r, c) = clb_of[&id];
        let s = slot_use.entry((r, c)).or_insert(0);
        placement.lut_slot.insert(id, SlotId::new(config, r, c, *s));
        *s += 1;
    }

    // FFs use the slots' independent flip-flop resources. Prefer the
    // exact slot of the LUT driving D — the D input then feeds the FF
    // internally with no routed net.
    let mut ff_used: std::collections::HashSet<SlotId> = std::collections::HashSet::new();
    for (k, ff) in netlist.ffs().iter().enumerate() {
        let mut assigned = None;
        if let Some(&driver_slot) = placement.lut_slot.get(&ff.d) {
            if ff_used.insert(driver_slot) {
                assigned = Some(driver_slot);
            }
        }
        if assigned.is_none() {
            'outer: for r in 0..config.rows {
                for c in 0..config.cols {
                    for s in 0..2 {
                        let id = SlotId::new(config, r, c, s);
                        if ff_used.insert(id) {
                            assigned = Some(id);
                            break 'outer;
                        }
                    }
                }
            }
        }
        placement.ff_slot.insert(k, assigned.expect("capacity checked"));
    }

    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_synth::bits::{GateNetlist, InputWord};
    use warp_synth::map::map_netlist;

    fn small_netlist() -> LutNetlist {
        let mut n = GateNetlist::new();
        let a = n.input_word(InputWord::Load { stream: 0, offset: 0 });
        let b = n.input_word(InputWord::Load { stream: 1, offset: 0 });
        let s = n.add_word(a, b, false);
        n.output(0, s);
        map_netlist(&n)
    }

    #[test]
    fn placement_assigns_unique_slots() {
        let nl = small_netlist();
        let cfg = FabricConfig::sized_for(nl.lut_count(), 0);
        let p = place(&nl, &cfg).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &s in p.lut_slot.values() {
            assert!(seen.insert(s), "slot {s:?} double-booked");
        }
        assert_eq!(p.lut_slot.len(), nl.lut_count());
    }

    #[test]
    fn fabric_too_small_is_reported() {
        let nl = small_netlist();
        let cfg = FabricConfig { rows: 2, cols: 2, tracks: 8, delays: Default::default() };
        match place(&nl, &cfg) {
            Err(CompileError::FabricFull { needed, available }) => {
                assert!(needed > available);
            }
            other => panic!("expected FabricFull, got {other:?}"),
        }
    }

    #[test]
    fn ffs_get_slots_too() {
        let mut n = GateNetlist::new();
        let (ff, q) = n.ff(mb_isa::Reg::R22, 0);
        let a = n.input(InputWord::Load { stream: 0, offset: 0 }, 0);
        let d = n.xor(q, a);
        n.set_ff_d(ff, d);
        let nl = map_netlist(&n);
        let cfg = FabricConfig::sized_for(nl.lut_count(), nl.ffs().len());
        let p = place(&nl, &cfg).unwrap();
        assert_eq!(p.ff_slot.len(), 1);
    }

    #[test]
    fn cached_placement_restores_bit_identically() {
        let nl = small_netlist();
        let cfg = FabricConfig::sized_for(nl.lut_count(), 0);
        let fresh = place(&nl, &cfg).unwrap();

        let cache = PlaceCache::new();
        let (first, w1) = place_cached(&nl, &cfg, Some(&cache), None).unwrap();
        assert!(!w1.restored);
        assert!(w1.attempts > 0, "the adder has enough LUTs for a swap pass");
        assert_eq!(first.lut_slot, fresh.lut_slot);
        assert_eq!(first.ff_slot, fresh.ff_slot);

        let (second, w2) = place_cached(&nl, &cfg, Some(&cache), None).unwrap();
        assert!(w2.restored, "an identical view must restore");
        assert_eq!(w2.attempts, 0);
        assert_eq!(second.lut_slot, fresh.lut_slot);
        assert_eq!(second.ff_slot, fresh.ff_slot);
    }

    #[test]
    fn levels_flow_left_to_right() {
        let nl = small_netlist();
        let cfg = FabricConfig { rows: 12, cols: 24, tracks: 8, delays: Default::default() };
        let p = place(&nl, &cfg).unwrap();
        // The adder's deepest LUT should not sit left of the shallowest.
        let mut level = vec![0usize; nl.nodes().len()];
        let mut max_l = 0;
        for (i, node) in nl.nodes().iter().enumerate() {
            if let LutNode::Lut { inputs, .. } = node {
                level[i] = inputs.iter().map(|&r| level[r as usize]).max().unwrap_or(0) + 1;
                max_l = max_l.max(level[i]);
            }
        }
        // On average the deepest logic should sit no further left than
        // the shallowest (data flows left to right).
        let avg_col = |want: usize| -> f64 {
            let cols: Vec<usize> = p
                .lut_slot
                .iter()
                .filter(|(id, _)| level[**id as usize] == want)
                .map(|(_, s)| s.pos(&cfg).1)
                .collect();
            cols.iter().sum::<usize>() as f64 / cols.len().max(1) as f64
        };
        assert!(
            avg_col(max_l) + 1.0 >= avg_col(1),
            "deep logic (avg col {:.1}) should not sit left of shallow logic (avg col {:.1})",
            avg_col(max_l),
            avg_col(1)
        );
    }
}
