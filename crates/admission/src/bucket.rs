//! Token buckets over virtual time — the quota primitive.
//!
//! All arithmetic is integer (micro-tokens), all time is virtual
//! microseconds, and refill is *monotone*: a stale `now` (TrueTime hands
//! out intervals, and concurrent callers race their reads) never refills,
//! never drains, and never moves the bucket's clock backwards. That is
//! what makes quota accounting deterministic under a seeded soak.

/// A token bucket refilled continuously at `rate_per_sec` tokens per
/// virtual second, holding at most `burst` tokens, starting full.
///
/// Beyond the classic admit/deny surface ([`TokenBucket::try_take`]) the
/// bucket supports *future debt* ([`TokenBucket::take`] after probing
/// with [`TokenBucket::required_wait_us`]): the admission queue model.
/// Committing a take the bucket cannot cover yet drives the balance
/// negative; the caller owes that many micro-tokens of virtual queueing
/// delay before its work notionally starts. Bounding the debt per
/// priority class is exactly a bounded admission queue — a class whose
/// bound is zero is shed the instant the bucket empties.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate, tokens per virtual second. `0` = unlimited (the
    /// bucket admits everything and never waits).
    rate_per_sec: u64,
    /// Capacity in tokens (also the initial balance).
    burst: u64,
    /// Current balance in micro-tokens; negative = future debt.
    tokens_e6: i128,
    /// High-water mark of observed virtual time, microseconds. Refill
    /// only happens when `now` advances past this.
    last_us: u64,
}

const E6: i128 = 1_000_000;

impl TokenBucket {
    /// A full bucket. `rate_per_sec == 0` means unlimited.
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        TokenBucket {
            rate_per_sec,
            burst,
            tokens_e6: burst as i128 * E6,
            last_us: 0,
        }
    }

    /// Monotone refill: credits `rate × dt` for the time the running
    /// maximum of observed `now` advanced, capped at `burst`. Stale or
    /// repeated `now` values are no-ops.
    fn refill(&mut self, now_us: u64) {
        if now_us <= self.last_us {
            return;
        }
        let dt = (now_us - self.last_us) as i128;
        self.last_us = now_us;
        if self.rate_per_sec == 0 {
            return;
        }
        // tokens/s == micro-tokens/µs, so the refill is just rate × dt.
        self.tokens_e6 =
            (self.tokens_e6 + dt * self.rate_per_sec as i128).min(self.burst as i128 * E6);
    }

    /// Virtual µs a take of `amount` would have to queue for right now
    /// (0 = covered by the current balance). Refills as a side effect;
    /// does not commit the take.
    pub fn required_wait_us(&mut self, now_us: u64, amount: u64) -> u64 {
        if self.rate_per_sec == 0 {
            return 0;
        }
        self.refill(now_us);
        let need = amount as i128 * E6;
        if self.tokens_e6 >= need {
            return 0;
        }
        // deficit > 0 here; ceil(deficit / rate) µs until refill covers it.
        let deficit = (need - self.tokens_e6) as u128;
        deficit
            .div_ceil(self.rate_per_sec as u128)
            .try_into()
            .unwrap_or(u64::MAX)
    }

    /// Commits a take unconditionally, possibly driving the balance
    /// negative (future debt — the caller pairs this with a probed
    /// [`TokenBucket::required_wait_us`] queueing delay).
    pub fn take(&mut self, now_us: u64, amount: u64) {
        if self.rate_per_sec == 0 {
            return;
        }
        self.refill(now_us);
        self.tokens_e6 -= amount as i128 * E6;
    }

    /// Classic strict admit: takes `amount` iff the balance covers it,
    /// otherwise returns the wait (µs, ≥ 1) until it would.
    pub fn try_take(&mut self, now_us: u64, amount: u64) -> Result<(), u64> {
        let wait = self.required_wait_us(now_us, amount);
        if wait == 0 {
            self.take(now_us, amount);
            Ok(())
        } else {
            Err(wait.max(1))
        }
    }

    /// Current debt expressed as virtual µs of refill needed to get back
    /// to a zero balance (0 when the balance is non-negative) — the
    /// "queue depth in time" gauge.
    pub fn debt_us(&self) -> u64 {
        if self.rate_per_sec == 0 || self.tokens_e6 >= 0 {
            return 0;
        }
        ((-self.tokens_e6) as u128)
            .div_ceil(self.rate_per_sec as u128)
            .try_into()
            .unwrap_or(u64::MAX)
    }

    /// Current balance in whole tokens (floor; negative while in debt).
    pub fn tokens(&self) -> i64 {
        (self.tokens_e6.div_euclid(E6)).clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_admits_burst() {
        let mut b = TokenBucket::new(100, 10);
        for _ in 0..10 {
            b.try_take(0, 1).unwrap();
        }
        let wait = b.try_take(0, 1).unwrap_err();
        // 1 token at 100/s refills in 10,000µs.
        assert_eq!(wait, 10_000);
    }

    #[test]
    fn refills_at_rate_and_caps_at_burst() {
        let mut b = TokenBucket::new(1_000, 50);
        b.take(0, 50);
        assert_eq!(b.tokens(), 0);
        // 10ms at 1000 tokens/s = 10 tokens.
        assert_eq!(b.required_wait_us(10_000, 10), 0);
        // A huge idle gap caps at burst, not beyond.
        b.refill(100_000_000);
        assert_eq!(b.tokens(), 50);
        assert!(b.try_take(100_000_000, 51).is_err());
    }

    #[test]
    fn stale_now_is_a_no_op() {
        let mut b = TokenBucket::new(1_000, 10);
        b.take(50_000, 10);
        let before = b.tokens();
        // Regressing reads (TrueTime earliest vs latest races) must not
        // refill or drain.
        assert!(b.try_take(10_000, 5).is_err());
        assert_eq!(b.tokens(), before);
        assert_eq!(b.required_wait_us(0, 0), 0);
    }

    #[test]
    fn future_debt_and_debt_us() {
        let mut b = TokenBucket::new(1_000, 10);
        let wait = b.required_wait_us(0, 15);
        assert_eq!(wait, 5_000, "5 tokens short at 1000/s");
        b.take(0, 15);
        assert_eq!(b.tokens(), -5);
        assert_eq!(b.debt_us(), 5_000);
        // Debt pays down as time advances.
        assert_eq!(b.required_wait_us(5_000, 0), 0);
        assert_eq!(b.debt_us(), 0);
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let mut b = TokenBucket::new(0, 0);
        for t in 0..100 {
            b.try_take(t, u64::MAX / 128).unwrap();
        }
        assert_eq!(b.debt_us(), 0);
    }
}
