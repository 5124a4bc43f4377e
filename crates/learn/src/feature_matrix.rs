//! Cached feature matrices — the learning-side half of the batched hot
//! path.
//!
//! Every iterative learner in this crate walks the same `m × d` feature
//! matrix many times (epochs, boosting rounds, CMA-ES population
//! members, k-fold splits). Before this module each walk either
//! re-derived features from the challenges or chased `Vec<Vec<f64>>`
//! pointers; a [`FeatureMatrix`] computes the features **once** per
//! `(LabeledSet, FeatureMap)` pair and stores them struct-of-arrays:
//!
//! * **Packed signs** — when the map is
//!   [sign-valued](crate::features::FeatureMap::is_sign_valued) (all
//!   three built-in maps are), each feature is one *bit* (set ⇔ the
//!   feature is `−1.0`), so a row of 65 Φ features costs 16 bytes
//!   instead of 520 and whole training sets fit in cache.
//! * **Dense values** — any other map falls back to a contiguous
//!   row-major `Vec<f64>`.
//!
//! Every kernel reproduces the scalar reduction **bit for bit**: a
//! sign-valued feature `f ∈ {+1, −1}` turns `w·f` into an IEEE-exact
//! sign-bit flip of `w`, and each kernel accumulates in the same index
//! order as the scalar `zip`-fold it replaces, so trained weights,
//! mistake counts, and accuracies are unchanged — the determinism
//! contract of `mlam-par` extends through the learners.

use crate::dataset::LabeledSet;
use crate::features::FeatureMap;
use mlam_boolean::bits::{signed_add, signed_dot, signed_dot4};
use mlam_boolean::to_pm;

/// Row-major feature storage: packed sign bits or dense values.
#[derive(Clone, Debug)]
enum Storage {
    /// One bit per feature, set ⇔ the feature is `−1.0`; each row is
    /// `words_per_row` consecutive `u64`s.
    Signs {
        words_per_row: usize,
        words: Vec<u64>,
    },
    /// Row-major `f64` values for maps that are not sign-valued.
    Dense { values: Vec<f64> },
}

/// A feature matrix cached once per `(LabeledSet, FeatureMap)` pair,
/// shared across training epochs, boosting rounds, and CMA-ES
/// population scoring.
///
/// # Example
///
/// ```
/// use mlam_boolean::LinearThreshold;
/// use mlam_learn::dataset::LabeledSet;
/// use mlam_learn::feature_matrix::FeatureMatrix;
/// use mlam_learn::features::PlusMinusFeatures;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let target = LinearThreshold::random(8, &mut rng);
/// let data = LabeledSet::sample(&target, 100, &mut rng);
/// let fm = FeatureMatrix::build(&PlusMinusFeatures::new(8), &data);
/// assert_eq!(fm.examples(), 100);
/// assert_eq!(fm.dimension(), 9);
/// let w = vec![0.25; fm.dimension()];
/// let _score = fm.dot(0, &w);
/// ```
#[derive(Clone, Debug)]
pub struct FeatureMatrix {
    examples: usize,
    dim: usize,
    /// ±1 labels, `to_pm` encoding (logic 1 ⇔ −1.0).
    labels: Vec<f64>,
    storage: Storage,
}

impl FeatureMatrix {
    /// Computes the features of every example in `data` under `map`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or the map's arity differs from the
    /// data's.
    pub fn build<M: FeatureMap + ?Sized>(map: &M, data: &LabeledSet) -> Self {
        assert!(!data.is_empty(), "cannot build from an empty set");
        assert_eq!(map.num_inputs(), data.num_inputs(), "feature map arity");
        let m = data.len();
        let d = map.dimension();
        let labels: Vec<f64> = data.pairs().iter().map(|(_, y)| to_pm(*y)).collect();
        let mut buf = Vec::with_capacity(d);
        let storage = if map.is_sign_valued() {
            let words_per_row = d.div_ceil(64);
            let mut words = vec![0u64; m * words_per_row];
            for (row, (x, _)) in data.pairs().iter().enumerate() {
                map.features_into(x, &mut buf);
                let base = row * words_per_row;
                for (j, &v) in buf.iter().enumerate() {
                    debug_assert!(v == 1.0 || v == -1.0, "sign-valued map produced {v}");
                    words[base + j / 64] |= (v.to_bits() >> 63) << (j % 64);
                }
            }
            Storage::Signs {
                words_per_row,
                words,
            }
        } else {
            let mut values = Vec::with_capacity(m * d);
            for (x, _) in data.pairs() {
                map.features_into(x, &mut buf);
                values.extend_from_slice(&buf);
            }
            Storage::Dense { values }
        };
        FeatureMatrix {
            examples: m,
            dim: d,
            labels,
            storage,
        }
    }

    /// Number of examples (rows).
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// Feature dimension (columns).
    pub fn dimension(&self) -> usize {
        self.dim
    }

    /// Whether the rows are stored as packed sign bits.
    pub fn is_packed(&self) -> bool {
        matches!(self.storage, Storage::Signs { .. })
    }

    /// The ±1 labels in example order.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The ±1 label of example `row`.
    #[inline]
    pub fn label(&self, row: usize) -> f64 {
        self.labels[row]
    }

    /// The dot product `w · φ(x_row)`, bit-identical to the scalar
    /// `features.iter().zip(w).map(|(f, w)| f * w).sum()`.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.dimension()` or `row` is out of range.
    #[inline]
    pub fn dot(&self, row: usize, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        match &self.storage {
            Storage::Signs {
                words_per_row,
                words,
            } => signed_dot(
                0.0,
                w,
                &words[row * words_per_row..(row + 1) * words_per_row],
            ),
            Storage::Dense { values } => {
                let f = &values[row * self.dim..(row + 1) * self.dim];
                let mut s = 0.0f64;
                for (&fj, &wj) in f.iter().zip(w) {
                    s += fj * wj;
                }
                s
            }
        }
    }

    /// The Perceptron update `w[j] += t * φ(x_row)[j]`, bit-identical to
    /// the scalar loop.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.dimension()` or `row` is out of range.
    #[inline]
    pub fn add_signed(&self, row: usize, t: f64, w: &mut [f64]) {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        match &self.storage {
            Storage::Signs {
                words_per_row,
                words,
            } => {
                signed_add(t, w, &words[row * words_per_row..(row + 1) * words_per_row]);
            }
            Storage::Dense { values } => {
                let f = &values[row * self.dim..(row + 1) * self.dim];
                for (wj, &fj) in w.iter_mut().zip(f) {
                    *wj += t * fj;
                }
            }
        }
    }

    /// The logistic-gradient update `g[j] -= t * φ(x_row)[j] * sigma`,
    /// bit-identical to the scalar loop (for a sign-valued feature the
    /// scalar product `(t * ±1) * sigma` is exactly `±(t * sigma)`).
    ///
    /// # Panics
    ///
    /// Panics if `g.len() != self.dimension()` or `row` is out of range.
    #[inline]
    pub fn grad_sub(&self, row: usize, t: f64, sigma: f64, g: &mut [f64]) {
        assert_eq!(g.len(), self.dim, "gradient dimension mismatch");
        match &self.storage {
            Storage::Signs {
                words_per_row,
                words,
            } => {
                // `g - v` is IEEE `g + (-v)`, so subtracting `±c` is
                // adding `±(-c)` bit for bit.
                let signs = &words[row * words_per_row..(row + 1) * words_per_row];
                signed_add(-(t * sigma), g, signs);
            }
            Storage::Dense { values } => {
                let f = &values[row * self.dim..(row + 1) * self.dim];
                for (gj, &fj) in g.iter_mut().zip(f) {
                    *gj -= t * fj * sigma;
                }
            }
        }
    }

    /// Number of examples `w` misclassifies (`score · label ≤ 0`), the
    /// Perceptron's pocket criterion. Packed rows are scored four at a
    /// time ([`signed_dot4`]), each bit-identical to [`FeatureMatrix::dot`].
    pub fn error_count(&self, w: &[f64]) -> usize {
        let wrong = |row: usize, s: f64| usize::from(s * self.labels[row] <= 0.0);
        match &self.storage {
            Storage::Signs {
                words_per_row,
                words,
            } => {
                assert_eq!(w.len(), self.dim, "weight dimension mismatch");
                let wpr = *words_per_row;
                let quads = self.examples / 4;
                let mut count = 0;
                for q in 0..quads {
                    let rows = [0, 1, 2, 3].map(|k| {
                        let row = 4 * q + k;
                        &words[row * wpr..(row + 1) * wpr]
                    });
                    let s = signed_dot4(0.0, w, rows);
                    count += (0..4).map(|k| wrong(4 * q + k, s[k])).sum::<usize>();
                }
                count
                    + (4 * quads..self.examples)
                        .map(|row| wrong(row, self.dot(row, w)))
                        .sum::<usize>()
            }
            Storage::Dense { .. } => (0..self.examples)
                .map(|row| wrong(row, self.dot(row, w)))
                .sum(),
        }
    }
}

/// Packs a sequence of sign bits (`true` ⇔ the value is `−1.0`) into
/// little-endian 64-bit words — the layout [`FeatureMatrix`] and the
/// boosting round cache share.
pub fn pack_sign_bits(bits: impl Iterator<Item = bool>) -> Vec<u64> {
    let mut words = Vec::new();
    for (i, b) in bits.enumerate() {
        if i % 64 == 0 {
            words.push(0u64);
        }
        if b {
            *words.last_mut().expect("pushed above") |= 1u64 << (i % 64);
        }
    }
    words
}

/// Calls `f(index)` for every set bit in `words[..]`, restricted to the
/// first `len` bits, in ascending index order — so reductions over the
/// selected examples keep the scalar accumulation order.
pub fn for_each_set_bit(words: &[u64], len: usize, mut f: impl FnMut(usize)) {
    for (g, &word) in words.iter().enumerate() {
        let base = g * 64;
        let mut w = if base + 64 <= len {
            word
        } else if base >= len {
            0
        } else {
            word & ((1u64 << (len - base)) - 1)
        };
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            f(base + bit);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{ArbiterPhiFeatures, LowDegreeFeatures, PlusMinusFeatures};
    use mlam_boolean::{BitVec, LinearThreshold};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A deliberately non-sign-valued map to exercise the dense path.
    struct ScaledBits {
        n: usize,
    }

    impl FeatureMap for ScaledBits {
        fn num_inputs(&self) -> usize {
            self.n
        }
        fn dimension(&self) -> usize {
            self.n + 1
        }
        fn features(&self, x: &BitVec) -> Vec<f64> {
            let mut v: Vec<f64> = (0..self.n).map(|i| 0.5 * x.pm(i)).collect();
            v.push(0.25);
            v
        }
    }

    fn sample_set(n: usize, m: usize, seed: u64) -> LabeledSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = LinearThreshold::random(n, &mut rng);
        LabeledSet::sample(&target, m, &mut rng)
    }

    fn random_weights(d: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn packed_dot_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [5usize, 13, 63, 64] {
            let data = sample_set(n.min(40), 80, n as u64);
            let n = data.num_inputs();
            let maps: Vec<Box<dyn FeatureMap>> = vec![
                Box::new(PlusMinusFeatures::new(n)),
                Box::new(ArbiterPhiFeatures::new(n)),
                Box::new(LowDegreeFeatures::new(n, 2)),
            ];
            for map in &maps {
                let fm = FeatureMatrix::build(map.as_ref(), &data);
                assert!(fm.is_packed());
                let w = random_weights(fm.dimension(), &mut rng);
                for (row, (x, y)) in data.pairs().iter().enumerate() {
                    let scalar: f64 = map.features(x).iter().zip(&w).map(|(f, w)| f * w).sum();
                    assert_eq!(fm.dot(row, &w).to_bits(), scalar.to_bits(), "row {row}");
                    assert_eq!(fm.label(row), to_pm(*y));
                }
            }
        }
    }

    #[test]
    fn dense_fallback_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = sample_set(10, 60, 3);
        let map = ScaledBits { n: 10 };
        let fm = FeatureMatrix::build(&map, &data);
        assert!(!fm.is_packed());
        let w = random_weights(fm.dimension(), &mut rng);
        for (row, (x, _)) in data.pairs().iter().enumerate() {
            let scalar: f64 = map.features(x).iter().zip(&w).map(|(f, w)| f * w).sum();
            assert_eq!(fm.dot(row, &w).to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn add_signed_matches_scalar_update() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = sample_set(17, 50, 4);
        let map = ArbiterPhiFeatures::new(17);
        let fm = FeatureMatrix::build(&map, &data);
        let mut w_fast = random_weights(fm.dimension(), &mut rng);
        let mut w_ref = w_fast.clone();
        for (row, (x, y)) in data.pairs().iter().enumerate() {
            let t = to_pm(*y);
            fm.add_signed(row, t, &mut w_fast);
            for (wi, fi) in w_ref.iter_mut().zip(map.features(x)) {
                *wi += t * fi;
            }
        }
        for (a, b) in w_fast.iter().zip(&w_ref) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn grad_sub_matches_scalar_update() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = sample_set(9, 40, 5);
        let map = PlusMinusFeatures::new(9);
        let fm = FeatureMatrix::build(&map, &data);
        let mut g_fast = vec![0.0; fm.dimension()];
        let mut g_ref = g_fast.clone();
        for (row, (x, y)) in data.pairs().iter().enumerate() {
            let t = to_pm(*y);
            let sigma: f64 = rng.gen_range(0.0..1.0);
            fm.grad_sub(row, t, sigma, &mut g_fast);
            for (gi, fi) in g_ref.iter_mut().zip(map.features(x)) {
                *gi -= t * fi * sigma;
            }
        }
        for (a, b) in g_fast.iter().zip(&g_ref) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn error_count_matches_scalar_filter() {
        let mut rng = StdRng::seed_from_u64(5);
        // Example counts off a multiple of 4 exercise the remainder rows
        // after the 4-row kernel; 63/64 inputs put the bias feature on
        // either side of a word boundary; integer weights make exact-zero
        // scores, which count as errors.
        for (n, m) in [(12usize, 70usize), (12, 71), (12, 3), (63, 69), (64, 67)] {
            let data = sample_set(n, m, 6 + n as u64);
            let map = PlusMinusFeatures::new(n);
            let fm = FeatureMatrix::build(&map, &data);
            let real = random_weights(fm.dimension(), &mut rng);
            let ints: Vec<f64> = (0..fm.dimension())
                .map(|_| rng.gen_range(-1..=1) as f64)
                .collect();
            for w in [real, ints, vec![0.0; fm.dimension()]] {
                let scalar = data
                    .pairs()
                    .iter()
                    .filter(|(x, y)| {
                        let s: f64 = map.features(x).iter().zip(&w).map(|(f, w)| f * w).sum();
                        s * to_pm(*y) <= 0.0
                    })
                    .count();
                assert_eq!(fm.error_count(&w), scalar, "n {n} m {m}");
            }
        }
    }

    #[test]
    fn pack_and_iterate_round_trip() {
        let mut rng = StdRng::seed_from_u64(6);
        for len in [0usize, 1, 63, 64, 65, 130] {
            let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.4)).collect();
            let words = pack_sign_bits(bits.iter().copied());
            assert_eq!(words.len(), len.div_ceil(64));
            let mut seen = Vec::new();
            for_each_set_bit(&words, len, |i| seen.push(i));
            let expected: Vec<usize> = (0..len).filter(|&i| bits[i]).collect();
            assert_eq!(seen, expected, "len {len}");
        }
    }

    #[test]
    fn for_each_set_bit_respects_len_cap() {
        // All-ones words, but only the first 70 bits are in range.
        let words = vec![u64::MAX, u64::MAX];
        let mut count = 0usize;
        for_each_set_bit(&words, 70, |_| count += 1);
        assert_eq!(count, 70);
    }
}
