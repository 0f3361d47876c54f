//! Exact sums of `f64`s, rounded once.
//!
//! A float SUM folded cell by cell in `f64` depends on the order of its
//! additions, so a per-zone sum, a parallel scan's shards and a row loop
//! would each round differently. [`ExactSum`] keeps the sum exactly — a
//! fixed-point superaccumulator over the whole range of `f64`, 32-bit
//! digits in `i64` limbs whose carries are propagated lazily — and rounds
//! it to the nearest `f64` (ties to even) only when read. The order of
//! additions and merges then cannot change a bit of the result.

/// The weight of bit 0 of the accumulator: 2^-1074, the least bit a
/// finite `f64` has.
const BIAS: i32 = 1074;
/// `f64` spans bits 0..2098 of the accumulator; 64 bits more hold the
/// carries of 2^64 additions, and the top limb's sign the sum's.
const LIMBS: usize = 68;
/// Additions between carry propagations. Each adds less than 2^33 to a
/// limb, so a limb stays far inside `i64`.
const LAZY: u32 = 1 << 20;
const DIGIT: i64 = 0xffff_ffff;
/// The largest `m·2^e` [`ExactSum::add_scaled`] takes: 2^1100, past what
/// any 2^64 finite `f64`s can sum to and inside the accumulator.
const SCALED_BITS: i32 = 1100;

/// An exact sum of `f64`s (see the module docs). A NaN, or infinities of
/// both signs, make it NaN; one infinity makes it that infinity.
#[derive(Clone, Debug)]
pub struct ExactSum {
    /// The finite terms' sum: Σ limbs[i]·2^(32i − 1074).
    limbs: [i64; LIMBS],
    /// Additions since the carries were last propagated.
    pending: u32,
    /// NaN, +inf and −inf seen.
    special: [bool; 3],
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            pending: 0,
            special: [false; 3],
        }
    }
}

impl ExactSum {
    /// Adds one `f64`.
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.special[if v.is_nan() {
                0
            } else {
                1 + (v < 0.0) as usize
            }] = true;
            return;
        }
        // m·2^(exp − 1075), or of a subnormal m·2^-1074: bit `exp − 1` up.
        let (bits, exp) = (v.to_bits(), (v.to_bits() >> 52) as i32 & 0x7ff);
        let m = bits & ((1 << 52) - 1) | ((exp > 0) as u64) << 52;
        self.put(m, exp.max(1) - 1, v < 0.0);
        self.settle(1);
    }

    /// Adds `mantissa·2^exp2` — a sum [`ExactSum::to_scaled`] gave. A
    /// term with `exp2` below −1074 or past 2^1100 in magnitude is no sum
    /// of `f64`s, and makes this one NaN.
    pub fn add_scaled(&mut self, mantissa: i128, exp2: i32) {
        let m = mantissa.unsigned_abs();
        let top = exp2.saturating_add(128 - m.leading_zeros() as i32);
        if m != 0 && (exp2 < -BIAS || top > SCALED_BITS) {
            self.special[0] = true;
            return;
        }
        self.put(m as u64, exp2 + BIAS, mantissa < 0);
        self.put((m >> 64) as u64, exp2 + BIAS + 64, mantissa < 0);
        self.settle(2);
    }

    /// Adds another sum into this one.
    pub fn merge(&mut self, other: &ExactSum) {
        (0..3).for_each(|k| self.special[k] |= other.special[k]);
        let mut digits = other.limbs;
        carry(&mut digits);
        self.normalize();
        (self.limbs.iter_mut().zip(digits)).for_each(|(l, d)| *l += d);
        self.settle(2);
    }

    /// The sum rounded to the nearest `f64`, ties to even: ±inf past
    /// `f64::MAX`, and `+0.0` when it is exactly zero.
    pub fn round(&self) -> f64 {
        match self.special {
            [true, ..] | [_, true, true] => return f64::NAN,
            [_, true, _] => return f64::INFINITY,
            [_, _, true] => return f64::NEG_INFINITY,
            _ => {}
        }
        let (negative, digits) = self.magnitude();
        let bits = match highest_bit(&digits) {
            None => 0,
            // Below 2^-1021 every bit is an `f64`'s: m·2^-1074 is the
            // `f64` whose bits are m.
            Some(high) if high < 53 => window(&digits, 0) as u64,
            // The top 53 bits, rounded: a carry out of them moves the
            // exponent, and one past the largest makes it infinite.
            Some(high) => {
                let half = high - 53;
                let m = window(&digits, half + 1) as u64 & ((1 << 53) - 1);
                let up = bit(&digits, half) && (any_below(&digits, half) || m & 1 == 1);
                (((high - 52) as u64) << 52) + m + up as u64
            }
        };
        f64::from_bits(bits.min(0x7ff << 52) | (negative as u64) << 63)
    }

    /// The sum as `mantissa·2^exp2` with the mantissa odd (`(0, 0)` for
    /// zero), if no term was NaN or infinite and the sum's bits span 127
    /// or fewer.
    pub fn to_scaled(&self) -> Option<(i128, i32)> {
        if self.special != [false; 3] {
            return None;
        }
        let (negative, digits) = self.magnitude();
        let Some(high) = highest_bit(&digits) else {
            return Some((0, 0));
        };
        let low = digits.iter().position(|&d| d != 0)?;
        let low = low * 32 + digits[low].trailing_zeros() as usize;
        let m = (high - low < 127).then(|| window(&digits, low) as i128)?;
        Some((if negative { -m } else { m }, low as i32 - BIAS))
    }

    /// Adds the 64-bit `m` at bit `at` of the accumulator, or subtracts
    /// it: its digits go to three limbs.
    fn put(&mut self, m: u64, at: i32, negative: bool) {
        if m == 0 {
            return;
        }
        let (i, wide) = (at as usize / 32, (m as u128) << (at % 32));
        let sign = if negative { -1 } else { 1 };
        for (k, l) in self.limbs[i..i + 3].iter_mut().enumerate() {
            *l += sign * ((wide >> (32 * k)) as i64 & DIGIT);
        }
    }

    /// Counts `adds` additions, and propagates the carries every
    /// [`LAZY`].
    fn settle(&mut self, adds: u32) {
        self.pending += adds;
        if self.pending >= LAZY {
            self.normalize();
        }
    }

    fn normalize(&mut self) {
        carry(&mut self.limbs);
        self.pending = 0;
    }

    /// The sign, and the magnitude's digits.
    fn magnitude(&self) -> (bool, [i64; LIMBS]) {
        let mut digits = self.limbs;
        carry(&mut digits);
        let negative = digits[LIMBS - 1] < 0;
        if negative {
            digits.iter_mut().for_each(|d| *d = -*d);
            carry(&mut digits);
        }
        (negative, digits)
    }
}

/// Propagates the carries: every limb but the top one becomes a digit in
/// 0..2^32, and the top one holds the sign.
fn carry(limbs: &mut [i64; LIMBS]) {
    let mut carry = 0;
    for l in &mut limbs[..LIMBS - 1] {
        let v = *l + carry;
        carry = v >> 32;
        *l = v & DIGIT;
    }
    limbs[LIMBS - 1] += carry;
}

/// The highest set bit of normalized, non-negative digits.
fn highest_bit(digits: &[i64; LIMBS]) -> Option<usize> {
    let i = digits.iter().rposition(|&d| d != 0)?;
    Some(i * 32 + 63 - digits[i].leading_zeros() as usize)
}

/// The 128 bits of `digits` from bit `at` up.
fn window(digits: &[i64; LIMBS], at: usize) -> u128 {
    let digit = |i: usize| digits.get(i).map_or(0, |&d| d as u128);
    let (i, shift) = (at / 32, at % 32);
    let low = (0..4).fold(0, |w, k| w | digit(i + k) << (32 * k));
    match shift {
        0 => low,
        _ => low >> shift | digit(i + 4) << (128 - shift),
    }
}

/// Bit `at` of `digits`.
fn bit(digits: &[i64; LIMBS], at: usize) -> bool {
    digits[at / 32] >> (at % 32) & 1 == 1
}

/// Whether any bit of `digits` below bit `at` is set.
fn any_below(digits: &[i64; LIMBS], at: usize) -> bool {
    let (i, shift) = (at / 32, at % 32);
    digits[..i].iter().any(|&d| d != 0) || digits[i] & ((1 << shift) - 1) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::xorshift_star;

    /// `math.fsum`: Shewchuk's partials, each pair summed exactly, then
    /// the partials added from the largest with the half-even correction
    /// across them. Finite terms only, and no partial may overflow.
    fn msum(xs: &[f64]) -> f64 {
        let mut partials: Vec<f64> = Vec::new();
        for &x in xs {
            let (mut x, mut i) = (x, 0);
            for k in 0..partials.len() {
                let mut y = partials[k];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    partials[i] = lo;
                    i += 1;
                }
                x = hi;
            }
            partials.truncate(i);
            partials.push(x);
        }
        let mut n = partials.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let (mut hi, mut lo) = (partials[n], 0.0);
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = partials[n];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }

    /// The correctly rounded sum: NaN and infinities by their rule; the
    /// finite terms by [`msum`] — scaled by 2^-64 first when every one is
    /// at least 2^-958, which is exact and keeps a partial from
    /// overflowing, and the result scaled back (to ±inf past `f64::MAX`).
    fn oracle(xs: &[f64]) -> f64 {
        let (pos, neg) = (xs.contains(&f64::INFINITY), xs.contains(&f64::NEG_INFINITY));
        if xs.iter().any(|x| x.is_nan()) || (pos && neg) {
            return f64::NAN;
        }
        if pos || neg {
            return if pos {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        let scale = 2f64.powi(64);
        if xs.iter().all(|&x| x == 0.0 || x.abs() >= 2f64.powi(-958)) {
            let scaled: Vec<f64> = xs.iter().map(|&x| x / scale).collect();
            return msum(&scaled) * scale + 0.0;
        }
        assert!(xs.iter().all(|x| x.abs() < 2f64.powi(1000)), "{xs:?}");
        msum(xs) + 0.0
    }

    fn exact(xs: &[f64]) -> ExactSum {
        let mut sum = ExactSum::default();
        xs.iter().for_each(|&x| sum.add(x));
        sum
    }

    fn same(got: f64, want: f64, xs: &[f64]) {
        let ok = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
        assert!(ok, "{got:e} != {want:e} for {xs:?}");
    }

    /// Random `f64`s with the biased exponent drawn from `exps`.
    fn floats(rng: &mut u64, n: usize, exps: std::ops::Range<u64>) -> Vec<f64> {
        let mut next = || {
            let (state, out) = xorshift_star(*rng);
            *rng = state;
            out
        };
        let span = exps.end - exps.start;
        let mut draw = || {
            let (sign, frac) = (next() & 1 << 63, next() >> 12);
            f64::from_bits(sign | (exps.start + next() % span) << 52 | frac)
        };
        (0..n).map(|_| draw()).collect()
    }

    /// The exact sum is the correctly rounded one — over random finite
    /// floats, subnormals among them, 1e308-scale magnitudes that overflow
    /// or cancel, ties and cancellations, NaN, ±inf and −0.0 — whatever
    /// the order of its additions, and when split into sums that are
    /// merged, or carried as `to_scaled` terms.
    #[test]
    fn the_exact_sum_is_the_correctly_rounded_one() {
        let (max, tiny) = (f64::MAX, f64::from_bits(1));
        let half_ulp = 2f64.powi(-53);
        let mut sets: Vec<Vec<f64>> = vec![
            vec![],
            vec![1e16, 1.0, -1e16],
            vec![-0.0],
            vec![-0.0, -0.0],
            vec![0.1; 10],
            vec![1.0, half_ulp],
            vec![1.0 + 2.0 * half_ulp, half_ulp],
            vec![1.0, half_ulp, 2f64.powi(-106)],
            vec![1.0, half_ulp, -(2f64.powi(-106))],
            vec![max, max, -max],
            vec![max, max],
            vec![-max, -max],
            vec![max, 2f64.powi(970)],
            vec![max, 2f64.powi(969)],
            vec![tiny, tiny, -tiny, 3.0 * tiny],
            vec![2f64.powi(-1022), -tiny],
            vec![1.0, f64::NAN],
            vec![f64::INFINITY, 1.0, -max],
            vec![f64::NEG_INFINITY, max],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ];
        let mut rng = 57u64;
        for n in [1, 2, 3, 10, 100, 1000] {
            // Ordinary magnitudes, subnormals among them.
            let mut xs = floats(&mut rng, n, 900..1150);
            xs.extend(floats(&mut rng, n / 10 + 1, 0..1));
            sets.push(xs);
            // Every exponent below 2^1000; and 1e308-scale ones.
            sets.push(floats(&mut rng, n, 1..2000));
            sets.push(floats(&mut rng, n, 2030..2047));
            // Cancellation down to what the small terms leave.
            let big = floats(&mut rng, n, 1100..1200);
            let mut xs: Vec<f64> = big.iter().flat_map(|&x| [x, -x]).collect();
            xs.extend(floats(&mut rng, n, 1000..1010));
            sets.push(xs);
        }
        for xs in &sets {
            let want = oracle(xs);
            same(exact(xs).round(), want, xs);
            let mut back: Vec<f64> = xs.iter().rev().copied().collect();
            same(exact(&back).round(), want, xs);
            back.sort_by(f64::total_cmp);
            same(exact(&back).round(), want, xs);
            for cut in [0, xs.len() / 3, xs.len()] {
                let (a, b) = xs.split_at(cut);
                let mut merged = exact(a);
                merged.merge(&exact(b));
                same(merged.round(), want, xs);
                // A part carried as its scaled form, where it has one.
                let Some((m, e)) = exact(a).to_scaled() else {
                    continue;
                };
                let mut carried = exact(b);
                carried.add_scaled(m, e);
                same(carried.round(), want, xs);
                assert!(m % 2 != 0 || (m, e) == (0, 0), "{m} at {e}");
            }
        }
        // What fits one mantissa, and what does not.
        assert_eq!(exact(&[0.75, 2.5]).to_scaled(), Some((13, -2)));
        assert_eq!(exact(&[-0.0, 0.0]).to_scaled(), Some((0, 0)));
        assert_eq!(exact(&[1.0, f64::NAN]).to_scaled(), None);
        assert_eq!(
            exact(&[1.0, 2f64.powi(-126)]).to_scaled(),
            Some((1 << 126 | 1, -126))
        );
        assert_eq!(exact(&[1.0, 2f64.powi(-127)]).to_scaled(), None);
        assert_eq!(exact(&[-tiny]).to_scaled(), Some((-1, -1074)));
        // A term no `f64`s sum to reads NaN.
        let mut sum = exact(&[1.0]);
        sum.add_scaled(1, -1075);
        assert!(sum.round().is_nan());
        let mut sum = exact(&[1.0]);
        sum.add_scaled(i128::MAX, 1000);
        assert!(sum.round().is_nan());
    }

    /// Past [`LAZY`] additions the carries are propagated, and the sum
    /// stays exact; so do merges of such sums.
    #[test]
    fn carries_survive_many_additions() {
        let (n, x) = (2 * LAZY as i128 + 3, (1i128 << 53) - 1);
        let mut sum = ExactSum::default();
        (0..n).for_each(|_| sum.add(-x as f64));
        let mut doubled = sum.clone();
        (0..6).for_each(|_| doubled.merge(&doubled.clone()));
        assert_eq!(sum.round(), (-n * x) as f64);
        assert_eq!(doubled.round(), (-64 * n * x) as f64);
    }
}
