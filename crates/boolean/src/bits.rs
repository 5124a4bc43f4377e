//! Arbitrary-length bit vectors used as challenges and circuit inputs.
//!
//! [`BitVec`] is a compact, fixed-length vector of bits backed by `u64`
//! words. It is the universal input type of the workspace: PUF challenges,
//! netlist input assignments and learning examples are all `BitVec`s.

use rand::Rng;
use std::fmt;

/// A fixed-length vector of bits backed by `u64` words.
///
/// The length is fixed at construction; out-of-range accesses panic.
/// Bit `i` of the vector corresponds to challenge bit `c_i` in the paper.
///
/// # Example
///
/// ```
/// use mlam_boolean::BitVec;
///
/// let mut v = BitVec::zeros(70);
/// v.set(3, true);
/// v.set(69, true);
/// assert!(v.get(3) && v.get(69) && !v.get(0));
/// assert_eq!(v.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Builds a vector from a slice of Booleans.
    ///
    /// ```
    /// use mlam_boolean::BitVec;
    /// let v = BitVec::from_bools(&[true, false, true]);
    /// assert_eq!(v.len(), 3);
    /// assert!(v.get(0) && !v.get(1) && v.get(2));
    /// ```
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds an `len`-bit vector from the low bits of `value`
    /// (bit `i` of the vector = bit `i` of `value`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        let mut v = Self::zeros(len);
        if len > 0 {
            v.words[0] = if len == 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            };
        }
        v
    }

    /// Returns the low 64 bits as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the vector is longer than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(
            self.len <= 64,
            "to_u64 requires len <= 64, got {}",
            self.len
        );
        self.words.first().copied().unwrap_or(0)
    }

    /// Samples a uniformly random vector of `len` bits.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = rng.gen();
        }
        v.mask_tail();
        v
    }

    /// Samples a vector whose bits are independently 1 with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn random_biased<R: Rng + ?Sized>(len: usize, p: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&p), "bias must be in [0,1], got {p}");
        let mut v = Self::zeros(len);
        for i in 0..len {
            if rng.gen_bool(p) {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, b: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        let w = &mut self.words[i / 64];
        if b {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Flips bit `i`, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        self.words[i / 64] ^= 1 << (i % 64);
        self.get(i)
    }

    /// Returns bit `i` in the ±1 encoding of the paper (`0 → +1`, `1 → -1`).
    #[inline]
    pub fn pm(&self, i: usize) -> f64 {
        crate::to_pm(self.get(i))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to another vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, other: &BitVec) -> u32 {
        assert_eq!(self.len, other.len, "hamming distance needs equal lengths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Parity (XOR) of the bits selected by `mask` over the low 64 bits.
    ///
    /// This evaluates the character `χ_S` with `S` given as a mask, in the
    /// `{0,1}` world: the result is `true` iff an odd number of selected
    /// bits are 1.
    ///
    /// # Panics
    ///
    /// Panics if the vector is longer than 64 bits.
    #[inline]
    pub fn parity_masked(&self, mask: u64) -> bool {
        assert!(self.len <= 64, "parity_masked requires len <= 64");
        (self.words.first().copied().unwrap_or(0) & mask).count_ones() % 2 == 1
    }

    /// Iterator over the bits, in index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { v: self, i: 0 }
    }

    /// Returns the vector as a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Returns a copy with bit `i` flipped.
    pub fn with_flipped(&self, i: usize) -> BitVec {
        let mut c = self.clone();
        c.flip(i);
        c
    }

    /// XORs `other` into `self` bitwise.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor_assign needs equal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// The backing `u64` words, least-significant first: bit `i` of the
    /// vector is bit `i % 64` of word `i / 64`. Bits past `len()` in
    /// the last word are always zero.
    ///
    /// This is the raw layout consumed by word-parallel kernels such as
    /// the bit-sliced PUF evaluators.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Packed suffix parities: bit `i` of the result (same word layout
    /// as [`BitVec::words`]) is the XOR of bits `i..len()`.
    ///
    /// This is the sign pattern of the arbiter Φ transform — `Φ_i` is
    /// negative exactly when the suffix parity at `i` is odd. Each word
    /// is resolved with a log-shift XOR scan plus a parity carry from
    /// the higher words, so the cost is O(len/64) word operations
    /// instead of O(len) bit reads. Bits past `len()` in the last word
    /// are zero, matching the [`BitVec::words`] invariant.
    pub fn suffix_parity_words(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.words.len()];
        // All-ones while the combined parity of the higher words is odd.
        let mut carry = 0u64;
        for g in (0..self.words.len()).rev() {
            let mut p = self.words[g];
            p ^= p >> 1;
            p ^= p >> 2;
            p ^= p >> 4;
            p ^= p >> 8;
            p ^= p >> 16;
            p ^= p >> 32;
            let v = p ^ carry;
            out[g] = v;
            carry = if v & 1 == 1 { u64::MAX } else { 0 };
        }
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        out
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

/// Flips the sign of `w` when `bit` is 1 — the IEEE-exact equivalent of
/// `w * (if bit == 1 { -1.0 } else { 1.0 })`, i.e. of `w * x.pm(j)`.
#[inline(always)]
fn sign_select(w: f64, bit: u64) -> f64 {
    f64::from_bits(w.to_bits() ^ (bit << 63))
}

/// Packed ±1 dot product: `init + Σ_j w_j·χ_j`, where `χ_j = −1` iff bit
/// `j` of `signs` is set (the [`BitVec::words`] layout).
///
/// The terms are added one at a time in index order `0..w.len()`
/// starting from `init`, so the result is bit-identical to the scalar
/// fold `w.iter().enumerate().fold(init, |s, (j, w)| s + w * x.pm(j))`:
/// each product with `±1.0` is an exact sign flip. Bits at positions
/// `≥ w.len()` are ignored.
///
/// # Panics
///
/// Panics if `signs` holds fewer than `w.len()` bits.
///
/// # Example
///
/// ```
/// use mlam_boolean::bits::signed_dot;
/// use mlam_boolean::BitVec;
///
/// let x = BitVec::from_bools(&[false, true, true]);
/// // -0.5 + 1.0·(+1) + 2.0·(−1) + 4.0·(−1)
/// assert_eq!(signed_dot(-0.5, &[1.0, 2.0, 4.0], x.words()), -5.5);
/// ```
#[inline]
pub fn signed_dot(init: f64, w: &[f64], signs: &[u64]) -> f64 {
    assert!(signs.len() * 64 >= w.len(), "sign row shorter than weights");
    let mut s = init;
    for (chunk, &word) in w.chunks(64).zip(signs) {
        let mut bits = word;
        for &wj in chunk {
            s += sign_select(wj, bits & 1);
            bits >>= 1;
        }
    }
    s
}

/// [`signed_dot`] over four sign rows at once, with the same `w`.
///
/// Each row keeps its own accumulator and receives its terms in the
/// same order as a lone [`signed_dot`], so every lane is bit-identical
/// to the one-row kernel; the four independent add chains only hide
/// the floating-point add latency.
///
/// # Panics
///
/// Panics if any row holds fewer than `w.len()` bits.
#[inline]
pub fn signed_dot4(init: f64, w: &[f64], rows: [&[u64]; 4]) -> [f64; 4] {
    for r in rows {
        assert!(r.len() * 64 >= w.len(), "sign row shorter than weights");
    }
    let mut s = [init; 4];
    for (g, chunk) in w.chunks(64).enumerate() {
        let mut bits = rows.map(|r| r[g]);
        for &wj in chunk {
            for (acc, b) in s.iter_mut().zip(&mut bits) {
                *acc += sign_select(wj, *b & 1);
                *b >>= 1;
            }
        }
    }
    s
}

/// Packed ±1 update: `w_j += t·χ_j` for every `j < w.len()`, with `χ_j`
/// read from `signs` as in [`signed_dot`] — bit-identical to the scalar
/// `w_j += t * x.pm(j)`.
///
/// # Panics
///
/// Panics if `signs` holds fewer than `w.len()` bits.
#[inline]
pub fn signed_add(t: f64, w: &mut [f64], signs: &[u64]) {
    assert!(signs.len() * 64 >= w.len(), "sign row shorter than weights");
    for (chunk, &word) in w.chunks_mut(64).zip(signs) {
        let mut bits = word;
        for wj in chunk {
            *wj += sign_select(t, bits & 1);
            bits >>= 1;
        }
    }
}

/// Iterator over the bits of a [`BitVec`].
pub struct Iter<'a> {
    v: &'a BitVec,
    i: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.i < self.v.len {
            let b = self.v.get(self.i);
            self.i += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.v.len - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl From<&[bool]> for BitVec {
    fn from(bits: &[bool]) -> Self {
        BitVec::from_bools(bits)
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(130);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert_eq!(o.len(), 130);
    }

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(100);
        v.set(64, true);
        assert!(v.get(64));
        assert!(!v.flip(64));
        assert!(v.flip(99));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn u64_round_trip() {
        let v = BitVec::from_u64(0b1011, 4);
        assert_eq!(v.to_u64(), 0b1011);
        assert_eq!(v.len(), 4);
        assert!(v.get(0) && v.get(1) && !v.get(2) && v.get(3));
        let full = BitVec::from_u64(u64::MAX, 64);
        assert_eq!(full.to_u64(), u64::MAX);
    }

    #[test]
    fn from_u64_masks_high_bits() {
        let v = BitVec::from_u64(0xFF, 4);
        assert_eq!(v.to_u64(), 0xF);
    }

    #[test]
    fn hamming_distance() {
        let a = BitVec::from_bools(&[true, false, true, true]);
        let b = BitVec::from_bools(&[true, true, true, false]);
        assert_eq!(a.hamming(&b), 2);
    }

    #[test]
    fn parity_masked_examples() {
        // value 0b1101 -> bit0=1, bit1=0, bit2=1, bit3=1
        let v = BitVec::from_u64(0b1101, 4);
        assert!(!v.parity_masked(0b0101)); // bits 0,2 = 1,1 -> even
        assert!(v.parity_masked(0b0001)); // bit 0 = 1
        assert!(!v.parity_masked(0b1110)); // bits 1,2,3 = 0,1,1 -> even
        assert!(v.parity_masked(0b1000)); // bit 3 = 1
    }

    #[test]
    fn random_has_expected_density() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = BitVec::random(10_000, &mut rng);
        let ones = v.count_ones() as f64 / 10_000.0;
        assert!((ones - 0.5).abs() < 0.03, "density {ones}");
        let b = BitVec::random_biased(10_000, 0.2, &mut rng);
        let ones = b.count_ones() as f64 / 10_000.0;
        assert!((ones - 0.2).abs() < 0.03, "biased density {ones}");
    }

    #[test]
    fn random_tail_is_masked() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let v = BitVec::random(70, &mut rng);
            // All bits beyond len must be zero in the backing store:
            assert_eq!(v.words[1] >> 6, 0);
        }
    }

    #[test]
    fn xor_assign_is_involutive() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = BitVec::random(90, &mut rng);
        let b = BitVec::random(90, &mut rng);
        let mut c = a.clone();
        c.xor_assign(&b);
        c.xor_assign(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn iterator_and_collect() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_bools(), vec![true, false, true]);
        assert_eq!(v.iter().len(), 3);
    }

    #[test]
    fn display_format() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert_eq!(format!("{v:?}"), "BitVec[101]");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(4).get(4);
    }

    #[test]
    fn with_flipped_differs_in_one_bit() {
        let v = BitVec::zeros(9);
        let w = v.with_flipped(8);
        assert_eq!(v.hamming(&w), 1);
        assert!(w.get(8));
    }

    #[test]
    fn words_expose_the_backing_layout() {
        let mut v = BitVec::zeros(70);
        v.set(3, true);
        v.set(69, true);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[0], 1 << 3);
        assert_eq!(v.words()[1], 1 << 5);
    }

    #[test]
    fn suffix_parity_matches_scalar_definition() {
        let mut rng = StdRng::seed_from_u64(17);
        for len in [0usize, 1, 2, 63, 64, 65, 100, 127, 128, 129, 200] {
            for _ in 0..8 {
                let v = BitVec::random(len, &mut rng);
                let sp = v.suffix_parity_words();
                assert_eq!(sp.len(), len.div_ceil(64));
                for i in 0..len {
                    let scalar = (i..len).fold(false, |acc, j| acc ^ v.get(j));
                    assert_eq!(
                        (sp[i / 64] >> (i % 64)) & 1 == 1,
                        scalar,
                        "len {len} bit {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn signed_kernels_match_scalar_pm_loops() {
        let mut rng = StdRng::seed_from_u64(23);
        for len in [0usize, 1, 5, 63, 64, 65, 130] {
            let rows: Vec<BitVec> = (0..4).map(|_| BitVec::random(len, &mut rng)).collect();
            let real: Vec<f64> = (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let ints: Vec<f64> = (0..len).map(|_| rng.gen_range(-1..=1) as f64).collect();
            for (w, init) in [(&real, 0.25), (&ints, 0.0), (&ints, -0.0)] {
                let scalar = |x: &BitVec| (0..len).fold(init, |s, j| s + w[j] * x.pm(j));
                let quad = signed_dot4(init, w, [0, 1, 2, 3].map(|k| rows[k].words()));
                for (x, q) in rows.iter().zip(quad) {
                    let one = signed_dot(init, w, x.words());
                    assert_eq!(one.to_bits(), scalar(x).to_bits(), "len {len}");
                    assert_eq!(q.to_bits(), one.to_bits(), "len {len}");
                }
                let mut fast = w.clone();
                let mut slow = w.clone();
                signed_add(-0.5, &mut fast, rows[0].words());
                for (j, v) in slow.iter_mut().enumerate() {
                    *v += -0.5 * rows[0].pm(j);
                }
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "len {len}");
            }
        }
    }

    #[test]
    fn signed_dot_reads_only_the_weighted_prefix() {
        // Bits 3.. of the row are set but carry no weight.
        let x = BitVec::ones(70);
        assert_eq!(signed_dot(0.0, &[1.0, 2.0, 4.0], x.words()), -7.0);
    }

    #[test]
    #[should_panic(expected = "sign row shorter")]
    fn signed_dot_rejects_short_rows() {
        signed_dot(0.0, &[1.0; 65], BitVec::zeros(64).words());
    }

    #[test]
    fn suffix_parity_tail_is_masked() {
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..10 {
            let v = BitVec::random(70, &mut rng);
            let sp = v.suffix_parity_words();
            assert_eq!(sp[1] >> 6, 0, "bits past len must stay zero");
        }
    }
}
