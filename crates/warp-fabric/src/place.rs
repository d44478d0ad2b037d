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
//! swap pass is seeded deterministically) — so a [`FabricStore`] keeps
//! each whole placement by its view and restores it bit-identically,
//! while a [`PlaceCache`] models the views the on-chip placer has
//! already placed.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use warp_synth::map::LutNode;
use warp_synth::LutNetlist;

use crate::arch::{FabricConfig, SlotId};
use crate::{CompileError, FabricStore};

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

/// A stored whole placement: slots by LUT rank and FF index.
#[derive(Debug)]
pub(crate) struct StoredPlacement {
    lut_slots: Vec<SlotId>,
    ff_slots: Vec<SlotId>,
}

impl StoredPlacement {
    fn of(lut_ids: &[u32], placement: &Placement) -> Self {
        let lut_slots = lut_ids.iter().map(|id| placement.lut_slot[id]).collect();
        let ff_slots = (0..placement.ff_slot.len()).map(|k| placement.ff_slot[&k]).collect();
        StoredPlacement { lut_slots, ff_slots }
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

/// The placement views the on-chip placer has already placed, shared
/// across compiles: the model of its reuse.
///
/// It holds only keys. A view it holds is placer work the lean
/// processor skips, so [`place_cached`] charges it no [`PlaceWork`]; the
/// placement itself comes from a [`FabricStore`] either way. Views are
/// compared in full, so two distinct netlists never alias.
#[derive(Debug, Default)]
pub struct PlaceCache {
    views: Mutex<HashSet<Arc<PlaceView>>>,
}

impl PlaceCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of placement views held.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.views.lock().expect("place cache lock").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Placement work the on-chip placer performed (none when `cache` held
/// the view), for the on-chip CAD cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct PlaceWork {
    /// Greedy swap attempts the placer ran.
    pub attempts: u64,
    /// Whether the cache held the whole placement.
    pub restored: bool,
}

/// Places a mapped netlist through the host `store`, charging the
/// placer's swap attempts unless `cache` already held its view (and
/// adding the view to it).
///
/// Bit-identical to [`place`] whatever `store` and `cache` hold; only
/// [`PlaceWork`] changes, and only with the cache.
///
/// # Errors
///
/// Returns [`CompileError::FabricFull`] when the netlist needs more
/// slots than the fabric provides.
pub fn place_cached(
    netlist: &LutNetlist,
    config: &FabricConfig,
    store: &FabricStore,
    cache: Option<&PlaceCache>,
) -> Result<(Placement, PlaceWork), CompileError> {
    let lut_ids: Vec<u32> = netlist
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n, LutNode::Lut { .. }))
        .map(|(i, _)| i as u32)
        .collect();
    let view = Arc::new(placement_view(netlist, config));
    let placed = match store.places.get(&view) {
        Some(placed) => placed,
        None => {
            let placed = Arc::new(StoredPlacement::of(&lut_ids, &place(netlist, config)?));
            store.places.insert(Arc::clone(&view), Arc::clone(&placed));
            placed
        }
    };
    let restored = cache.is_some_and(|c| !c.views.lock().expect("place cache lock").insert(view));
    let luts = lut_ids.len();
    let attempts = if restored || luts < 2 { 0 } else { (luts * 24).min(120_000) as u64 };
    Ok((placed.restore(&lut_ids), PlaceWork { attempts, restored }))
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

        let store = FabricStore::default();
        let cache = PlaceCache::new();
        let (first, w1) = place_cached(&nl, &cfg, &store, Some(&cache)).unwrap();
        assert!(!w1.restored);
        assert!(w1.attempts > 0, "the adder has enough LUTs for a swap pass");
        assert_eq!(first.lut_slot, fresh.lut_slot);
        assert_eq!(first.ff_slot, fresh.ff_slot);

        let (second, w2) = place_cached(&nl, &cfg, &store, Some(&cache)).unwrap();
        assert!(w2.restored, "an identical view must restore");
        assert_eq!(w2.attempts, 0);
        assert_eq!(second.lut_slot, fresh.lut_slot);
        assert_eq!(second.ff_slot, fresh.ff_slot);

        // A warm store over an empty cache places nothing yet charges
        // the placer's attempts.
        let (third, w3) = place_cached(&nl, &cfg, &store, Some(&PlaceCache::new())).unwrap();
        assert_eq!(w3, w1);
        assert_eq!(third.lut_slot, fresh.lut_slot);
        assert_eq!(store.place_lookups().misses, 1);
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
