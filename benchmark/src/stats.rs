//! Seeded input generation and the order statistics every metric is
//! reported with.

use std::collections::BTreeMap;

/// SplitMix64: a tiny seeded generator for arrival times and flow picks.
/// The benchmark owns its input generator so the schedule a seed produces
/// never changes when the system under test changes its own RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in 0..n (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffle `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An input of the pool `0..k` (k > 0, ascending in cost) for each
/// request, where `classes[i]` is request i's class. Within each class the
/// inputs sit at evenly spaced ranks of the pool, from a seeded offset, in
/// seeded order, so every class draws the pool's cost mix whatever the
/// seed: a seed changes which request carries which input, not what a
/// class of requests costs.
pub fn spread<C: Ord + Copy>(rng: &mut Rng, classes: &[C], k: usize) -> Vec<usize> {
    let mut members: BTreeMap<C, Vec<usize>> = BTreeMap::new();
    for (i, &c) in classes.iter().enumerate() {
        members.entry(c).or_default().push(i);
    }
    let mut out = vec![0; classes.len()];
    for requests in members.values() {
        let n = requests.len();
        // Below k, so the last rank, ((n - 1) k + offset) / n, is below k.
        let offset = rng.below(k);
        let mut ranks: Vec<usize> = (0..n).map(|j| (j * k + offset) / n).collect();
        rng.shuffle(&mut ranks);
        for (&i, rank) in requests.iter().zip(ranks) {
            out[i] = rank;
        }
    }
    out
}

/// Due times (ns after the loop starts) of Poisson arrivals at
/// `rate_per_s` over `duration_ns`. The exponential gaps are stratified:
/// every seed gets the same gaps, one at each of the distribution's evenly
/// spaced quantiles, in its own order. A seed changes when requests bunch
/// up, not how many arrive or how long the gaps are.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let n = (rate_per_s * duration_ns as f64 / 1e9) as usize;
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut gaps: Vec<u64> =
        (0..n).map(|j| (-(1.0 - (j as f64 + 0.5) / n as f64).ln() * mean_gap_ns) as u64).collect();
    rng.shuffle(&mut gaps);
    gaps.into_iter()
        .scan(0, |t, gap| {
            *t += gap;
            Some(*t)
        })
        .collect()
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so spreads match the ones the
/// benchmark's acceptance rule is stated in. Needs at least two values;
/// one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 1500.0, 2_000_000_000);
        let b = poisson_schedule(7, 1500.0, 2_000_000_000);
        let c = poisson_schedule(8, 1500.0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!((a.len(), c.len()), (3000, 3000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // The same gaps in another order.
        let gaps = |s: &[u64]| {
            let mut g: Vec<u64> =
                s.iter().scan(0, |prev, &t| Some(t - std::mem::replace(prev, t))).collect();
            g.sort_unstable();
            g
        };
        assert_eq!(gaps(&a), gaps(&c));
    }

    #[test]
    fn spread_gives_every_class_evenly_spaced_inputs() {
        // Class 1 has 300 requests over a pool of 100, class 2 has 4.
        let classes: Vec<u8> = (0..304).map(|i| if i % 76 == 75 { 2 } else { 1 }).collect();
        let v = spread(&mut Rng::new(5), &classes, 100);
        assert_eq!(v, spread(&mut Rng::new(5), &classes, 100));
        assert_ne!(v, spread(&mut Rng::new(6), &classes, 100));
        let of = |class: u8| {
            let mut inputs: Vec<usize> =
                v.iter().zip(&classes).filter(|(_, &c)| c == class).map(|(&x, _)| x).collect();
            inputs.sort_unstable();
            inputs
        };
        // Every input three times; four inputs a quarter of the pool apart.
        assert_eq!(of(1), (0..100).flat_map(|x| [x; 3]).collect::<Vec<_>>());
        let quarter = of(2);
        assert!(quarter.windows(2).all(|w| w[1] - w[0] == 25), "{quarter:?}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
