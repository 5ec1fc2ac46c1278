//! Everything a run's inputs derive from `--seed`: the same seed gives
//! the same data, query order and probes.

use crate::adapter::Collection;
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

/// `items` in seeded random order: the without-replacement query list.
pub fn shuffled(mut items: Vec<usize>, seed: u64) -> Vec<usize> {
    items.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5EED_0BDE));
    items
}

/// Probe queries with every component in `[1.5, 2.5)`: outside the
/// unit-cube module's domain, so a serving tier searches them as sent,
/// under the uniform metric.
pub fn out_of_domain(count: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0D0D_0D0D);
    (0..count)
        .map(|_| (0..dim).map(|_| 1.5 + rng.gen::<f64>()).collect())
        .collect()
}

/// FNV-1a digest of a run's inputs: every 97th row's bit patterns and
/// the query order. Printed with each run, so that two runs can be seen
/// to have had the same inputs.
pub fn digest(coll: &Collection, order: &[usize]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for row in (0..coll.len()).step_by(97) {
        coll.vector(row).iter().for_each(|x| word(x.to_bits()));
    }
    order.iter().for_each(|&i| word(i as u64));
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_and_probes_follow_the_seed() {
        let shuffled = |seed| shuffled((0..500).collect(), seed);
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut sorted = shuffled(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>(), "a permutation");
        assert_eq!(out_of_domain(4, 8, 1), out_of_domain(4, 8, 1));
        assert_ne!(out_of_domain(4, 8, 1), out_of_domain(4, 8, 2));
        assert!(out_of_domain(4, 8, 1).iter().flatten().all(|&x| x > 1.0));
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let inputs = |seed| {
            let coll = crate::adapter::clustered(2_000, 16, 8, seed);
            digest(&coll, &shuffled((0..coll.len()).collect(), seed))
        };
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
    }
}
