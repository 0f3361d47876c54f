//! Encryption at rest and in flight: a from-scratch ChaCha20 stream cipher.
//!
//! "After compressing the data, the Stream Server encrypts the data before
//! writing to Fragments, using either the system's encryption key or a
//! customer supplied encryption key. Data is therefore in encrypted form
//! while being sent over RPC to Colossus, while at rest, and while being
//! read back." (§5.4.5)
//!
//! ChaCha20 (RFC 8439) is implemented here directly — no external crypto
//! crates are on the approved list. Every fragment block gets a distinct
//! `(key, nonce)` pair: the nonce is derived from the fragment id and block
//! ordinal, so key+nonce reuse cannot happen within a table.
//!
//! This module provides confidentiality only; integrity comes from the
//! end-to-end CRC32C that travels with the data (§5.4.5), which is how the
//! paper describes the production system as well.

/// A 256-bit encryption key.
///
/// System keys and customer-supplied keys (CMEK) are both this type; the
/// engine treats them identically, matching §5.4.5.
#[derive(Clone, PartialEq, Eq)]
pub struct Key(pub [u8; 32]);

impl Key {
    /// Derives a key from a human-readable passphrase (test/dev helper).
    ///
    /// Uses iterated ChaCha-based mixing, not a real KDF; production
    /// deployments would inject key material from a KMS.
    pub fn derive_from_passphrase(pass: &str) -> Self {
        let mut key = [0u8; 32];
        let bytes = pass.as_bytes();
        for (i, b) in bytes.iter().enumerate() {
            key[i % 32] ^= b.wrapping_mul(31).wrapping_add(i as u8);
        }
        // One block of ChaCha as a mixer.
        let block = chacha20_block(&key, &[0u8; 12], 0xDEC0DE);
        key.copy_from_slice(&block[..32]);
        Key(key)
    }

    /// The all-zero key used when encryption is disabled in tests.
    pub fn zero() -> Self {
        Key([0u8; 32])
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Key(****)")
    }
}

/// A 96-bit nonce. Must be unique per (key, message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nonce(pub [u8; 12]);

impl Nonce {
    /// Builds a nonce from a fragment id and block ordinal; unique within a
    /// key as long as fragment ids are unique (they are: see `IdGen`).
    pub fn for_block(fragment_raw: u64, block_ordinal: u32) -> Self {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&fragment_raw.to_le_bytes());
        n[8..].copy_from_slice(&block_ordinal.to_le_bytes());
        Nonce(n)
    }
}

/// One double round — the four columns, then the four diagonals — of
/// `$x` by `$quarter_round` (RFC 8439 §2.3).
macro_rules! double_round {
    ($quarter_round:ident, $x:expr) => {
        $quarter_round($x, 0, 4, 8, 12);
        $quarter_round($x, 1, 5, 9, 13);
        $quarter_round($x, 2, 6, 10, 14);
        $quarter_round($x, 3, 7, 11, 15);
        $quarter_round($x, 0, 5, 10, 15);
        $quarter_round($x, 1, 6, 11, 12);
        $quarter_round($x, 2, 7, 8, 13);
        $quarter_round($x, 3, 4, 9, 14);
    };
}

#[inline(always)]
fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// Keystream blocks [`xor_wide`] computes side by side.
const LANES: usize = 16;

/// The ChaCha20 state of `LANES` consecutive blocks, word × lane: lane `l`
/// is the block `l` past the first.
type Wide = [[u32; LANES]; 16];

/// [`quarter_round`] in every lane at once. All eight steps sit in one
/// loop over the lanes: that is the form the loop vectoriser takes (a loop
/// per step, 4 or 8 lanes, or one function generic over the lane count all
/// run slower than one block at a time on the baseline target).
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` indexes four rows of `x` at once
fn quarter_round_wide(x: &mut Wide, a: usize, b: usize, c: usize, d: usize) {
    for l in 0..LANES {
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(16);
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(12);
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(8);
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(7);
    }
}

/// The state a block starts from (RFC 8439 §2.3): the constants, the key,
/// the block counter, the nonce.
fn initial_state(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> [u32; 16] {
    // "expand 32-byte k"
    let mut state = [
        0x61707865, 0x3320646e, 0x79622d32, 0x6b206574, 0, 0, 0, 0, 0, 0, 0, 0, counter, 0, 0, 0,
    ];
    let words = key.chunks_exact(4).chain(nonce.chunks_exact(4));
    for (i, word) in (4..12).chain(13..16).zip(words) {
        state[i] = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
    }
    state
}

/// XORs into `data` — `LANES` blocks of it — the keystream block that
/// starts from `state` and the `LANES - 1` after it.
fn xor_wide(state: &[u32; 16], data: &mut [u8]) {
    let mut start: Wide = state.map(|word| [word; LANES]);
    for (l, counter) in start[12].iter_mut().enumerate() {
        *counter = counter.wrapping_add(l as u32);
    }
    let mut x = start;
    for _ in 0..10 {
        double_round!(quarter_round_wide, &mut x);
    }
    for (l, block) in data.chunks_exact_mut(64).enumerate() {
        for (i, word) in block.chunks_exact_mut(4).enumerate() {
            let ks = x[i][l].wrapping_add(start[i][l]).to_le_bytes();
            (word.iter_mut().zip(ks)).for_each(|(b, k)| *b ^= k);
        }
    }
}

/// Computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3).
fn chacha20_block(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> [u8; 64] {
    block(&initial_state(key, nonce, counter))
}

/// The keystream block that starts from `state`.
fn block(state: &[u32; 16]) -> [u8; 64] {
    let mut x = *state;
    for _ in 0..10 {
        double_round!(quarter_round, &mut x);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let v = x[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place (XOR stream cipher: the operation
/// is its own inverse). Counter starts at 1 per RFC 8439 message usage.
pub fn apply_keystream(key: &Key, nonce: &Nonce, data: &mut [u8]) {
    apply_keystream_at(key, nonce, 0, data)
}

/// [`apply_keystream`] for a piece of a message: `data` is the bytes at
/// `offset` of it. The keystream is seekable — block `1 + offset / 64`,
/// from byte `offset % 64` of that block — so a range of a file decrypts
/// without the bytes before it. Runs of `LANES` whole blocks go through
/// [`xor_wide`]; the head up to a block boundary and the tail go one block
/// at a time.
pub fn apply_keystream_at(key: &Key, nonce: &Nonce, offset: u64, mut data: &mut [u8]) {
    // The counter wraps as it does when the whole message is walked.
    let mut state = initial_state(&key.0, &nonce.0, 1u32.wrapping_add((offset / 64) as u32));
    let skip = (offset % 64) as usize;
    if skip > 0 {
        let (head, rest) = data.split_at_mut((64 - skip).min(data.len()));
        let ks = block(&state);
        for (b, k) in head.iter_mut().zip(&ks[skip..]) {
            *b ^= k;
        }
        state[12] = state[12].wrapping_add(1);
        data = rest;
    }
    let mut runs = data.chunks_exact_mut(64 * LANES);
    for run in &mut runs {
        xor_wide(&state, run);
        state[12] = state[12].wrapping_add(LANES as u32);
    }
    for chunk in runs.into_remainder().chunks_mut(64) {
        let ks = block(&state);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

/// Convenience: returns an encrypted copy of `data`.
pub fn encrypt(key: &Key, nonce: &Nonce, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    apply_keystream(key, nonce, &mut out);
    out
}

/// Convenience: returns a decrypted copy of `data`.
pub fn decrypt(key: &Key, nonce: &Nonce, data: &[u8]) -> Vec<u8> {
    encrypt(key, nonce, data) // XOR is symmetric
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 test vector for the block function.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let block = chacha20_block(&key, &nonce, 1);
        let expected_first16: [u8; 16] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&block[..16], &expected_first16);
    }

    /// RFC 8439 §2.4.2 full-message encryption vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&Key(key), &Nonce(nonce), plaintext);
        assert_eq!(
            &ct[..16],
            &[
                0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
                0x69, 0x81
            ]
        );
        assert_eq!(decrypt(&Key(key), &Nonce(nonce), &ct), plaintext);
    }

    #[test]
    fn roundtrip_various_sizes() {
        let key = Key::derive_from_passphrase("table-key");
        for n in [
            0usize, 1, 63, 64, 65, 1000, 1023, 1024, 1025, 4096, 4097, 100_000,
        ] {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 % 256) as u8).collect();
            let nonce = Nonce::for_block(42, n as u32);
            let ct = encrypt(&key, &nonce, &data);
            if n > 8 {
                assert_ne!(ct, data, "ciphertext must differ from plaintext");
            }
            assert_eq!(decrypt(&key, &nonce, &ct), data);
        }
    }

    #[test]
    fn keystream_seeks_to_any_offset() {
        let key = Key::derive_from_passphrase("seek");
        let nonce = Nonce::for_block(7, u32::MAX);
        let whole = encrypt(&key, &nonce, &[0u8; 300]);
        for offset in [0usize, 1, 63, 64, 65, 127, 128, 299, 300] {
            let mut tail = vec![0u8; 300 - offset];
            apply_keystream_at(&key, &nonce, offset as u64, &mut tail);
            assert_eq!(tail, whole[offset..], "offset {offset}");
        }
        // Block 2^32 - 1 of the message is keystream block 0: the counter
        // wraps where walking the whole message would wrap it.
        let mut far = [0u8; 64];
        apply_keystream_at(&key, &nonce, (u32::MAX as u64) * 64, &mut far);
        assert_eq!(far, chacha20_block(&key.0, &nonce.0, 0));
        // Runs of sixteen blocks are computed side by side: each block of
        // them is the block computed alone, from any offset, and where the
        // counter wraps inside a run.
        let wraps = (u32::MAX as u64 - 5) * 64;
        for (at, len) in [
            (0, 1023),
            (0, 1024),
            (1, 1025),
            (63, 4097),
            (wraps + 13, 2048),
        ] {
            let mut got = vec![0u8; len];
            apply_keystream_at(&key, &nonce, at, &mut got);
            let block = |b: u64| chacha20_block(&key.0, &nonce.0, (b as u32).wrapping_add(1));
            let stream = (at / 64..).flat_map(block).skip((at % 64) as usize);
            assert_eq!(got, stream.take(len).collect::<Vec<u8>>(), "{len} at {at}");
        }
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let key = Key::derive_from_passphrase("k");
        let data = vec![0u8; 256];
        let a = encrypt(&key, &Nonce::for_block(1, 0), &data);
        let b = encrypt(&key, &Nonce::for_block(1, 1), &data);
        let c = encrypt(&key, &Nonce::for_block(2, 0), &data);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn wrong_key_does_not_decrypt() {
        let k1 = Key::derive_from_passphrase("right");
        let k2 = Key::derive_from_passphrase("wrong");
        let nonce = Nonce::for_block(5, 0);
        let data = b"sensitive rows".to_vec();
        let ct = encrypt(&k1, &nonce, &data);
        assert_ne!(decrypt(&k2, &nonce, &ct), data);
    }

    #[test]
    fn key_debug_never_leaks() {
        let k = Key::derive_from_passphrase("secret");
        assert_eq!(format!("{k:?}"), "Key(****)");
    }
}
