//! The seeded op generator: which kernel each op runs, and on what data.
//!
//! One SplitMix64 stream from the vendored `rand` shim, seeded with the
//! workload seed, shuffles the kernel deck and yields every op's data
//! seed, so a run's whole op sequence is a function of `--seed` alone.
//!
//! Kernels are dealt from a shuffled deck holding each kernel in
//! proportion to its weight, reshuffled whenever it runs out. Every
//! draw follows the mix, and every whole deck holds it exactly: a run's
//! kernel mix then does not move with the seed, only the order and the
//! data do.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::Workload;

/// The registry kernels every workload draws from: all but `idct`,
/// whose cold compile takes about 30 s and would hold the only CAD
/// thread for the whole measured window.
#[must_use]
pub fn kernels() -> Vec<Workload> {
    workloads::all().into_iter().filter(|w| w.name != "idct").collect()
}

/// How op kernels are drawn from the registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Zipf with exponent 1 over registry order: kernel `r` has weight
    /// `1 / (r + 1)`, so the first kernels recur and share images.
    Zipf,
    /// Every kernel equally likely.
    Uniform,
}

impl Mix {
    /// One deck: kernel indices, each repeated in proportion to its
    /// weight (Zipf weights scaled by the lcm of the ranks to integers).
    #[must_use]
    pub fn deck(self, kernels: usize) -> Vec<usize> {
        let lcm = (1..=kernels).fold(1, |l, r| l / gcd(l, r) * r);
        (0..kernels)
            .flat_map(|k| {
                let copies = match self {
                    Mix::Zipf => lcm / (k + 1),
                    Mix::Uniform => 1,
                };
                std::iter::repeat_n(k, copies)
            })
            .collect()
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One generated op: a tenant session of one kernel on seeded data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    /// Index into [`kernels`].
    pub kernel: usize,
    /// Input-data seed for [`Workload::build_seeded`].
    pub data_seed: u64,
}

/// The first `count` ops of the sequence for `seed`.
#[must_use]
pub fn generate(mix: Mix, kernels: usize, seed: u64, count: usize) -> Vec<Op> {
    assert!(kernels > 0, "a mix needs at least one kernel");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deck = Vec::new();
    (0..count)
        .map(|_| {
            if deck.is_empty() {
                deck = mix.deck(kernels);
                // Fisher-Yates.
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
                }
            }
            let kernel = deck.pop().expect("a refilled deck is not empty");
            Op { kernel, data_seed: rng.gen() }
        })
        .collect()
}

/// Data seeds for the set-up's warm-up tenants, one per kernel, from a
/// stream distinct from the measured ops'.
#[must_use]
pub fn warm_up_seeds(seed: u64, kernels: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5741_524D_5550_0000);
    (0..kernels).map(|_| rng.gen()).collect()
}

/// How many of `ops` run each kernel.
#[must_use]
pub fn counts(ops: impl IntoIterator<Item = usize>, kernels: usize) -> Vec<usize> {
    let mut counts = vec![0; kernels];
    for k in ops {
        counts[k] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        for mix in [Mix::Zipf, Mix::Uniform] {
            assert_eq!(generate(mix, 8, 7, 512), generate(mix, 8, 7, 512));
        }
    }

    #[test]
    fn a_different_seed_gives_a_different_sequence() {
        let kernels_of = |ops: &[Op]| ops.iter().map(|o| o.kernel).collect::<Vec<_>>();
        for mix in [Mix::Zipf, Mix::Uniform] {
            let (a, b) = (generate(mix, 8, 7, 64), generate(mix, 8, 8, 64));
            assert_ne!(kernels_of(&a), kernels_of(&b));
            assert!(a.iter().zip(&b).all(|(x, y)| x.data_seed != y.data_seed));
        }
    }

    #[test]
    fn whole_decks_hold_the_mix_exactly() {
        let zipf = Mix::Zipf.deck(8);
        assert_eq!(counts(zipf.iter().copied(), 8), [840, 420, 280, 210, 168, 140, 120, 105]);
        for (mix, decks) in [(Mix::Zipf, 2), (Mix::Uniform, 100)] {
            let n = mix.deck(8).len();
            for seed in [1, 2] {
                let ops = generate(mix, 8, seed, decks * n);
                let want: Vec<usize> = counts(mix.deck(8), 8).iter().map(|c| c * decks).collect();
                assert_eq!(counts(ops.iter().map(|o| o.kernel), 8), want);
            }
        }
    }

    #[test]
    fn idct_is_never_drawn() {
        let names: Vec<_> = kernels().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 8);
        assert!(!names.contains(&"idct"));
    }
}
