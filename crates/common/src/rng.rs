//! The one seeded generator behind every injected fault, jitter and
//! pool miss, and the one token counter behind every "fail the next N".
//!
//! xorshift64*: a pure step function, so a user keeps whatever state
//! suits it — a plain `u64` behind `&mut self`
//! ([`crate::transport::AdaptiveTransport`]) or an `AtomicU64` shared by
//! racing callers (the RPC fault plan, crash points, Colossus torn
//! appends). Each user's first draws per seed are pinned by its
//! `seeded_rolls_are_pinned` test: a seeded soak replays bit for bit.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One xorshift64* step from `state`: the next state and the draw made
/// from it. Zero is the generator's fixed point; seed with a non-zero
/// state.
pub fn xorshift_star(state: u64) -> (u64, u64) {
    let mut x = state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    (x, x.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Draws from shared state; concurrent callers each consume one step.
pub fn draw(state: &AtomicU64) -> u64 {
    let mut cur = state.load(Ordering::Relaxed);
    loop {
        let (next, out) = xorshift_star(cur);
        match state.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return out,
            Err(now) => cur = now,
        }
    }
}

/// A draw reduced to `0..1000`, for per-mille probabilities.
pub fn permille(draw: u64) -> u64 {
    (draw >> 33) % 1000
}

/// Takes one token from `counter` if any remain; racing callers take
/// exactly as many as were put in.
pub fn take_token(counter: &AtomicU32) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_and_owned_state_draw_the_same_sequence() {
        let shared = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
        let mut owned = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            let (next, out) = xorshift_star(owned);
            owned = next;
            assert_eq!(draw(&shared), out);
            assert!(permille(out) < 1000);
        }
    }

    #[test]
    fn tokens_run_out() {
        let tokens = AtomicU32::new(2);
        assert!(take_token(&tokens));
        assert!(take_token(&tokens));
        assert!(!take_token(&tokens));
        assert_eq!(tokens.load(Ordering::SeqCst), 0);
    }
}
