//! The length + CRC record frame shared by the durable logs.
//!
//! `uvarint(len) + body + crc32c(body)` (little-endian CRC). The Stream
//! Server's metadata WAL and checkpoints (§5.3) and the metastore's
//! commit WAL, checkpoint files and pointer chain all write this frame
//! to append-only Colossus files; a torn append leaves a tail that fails
//! the length or CRC check, and every reader truncates there.
//!
//! The WOS record format (typed 48-byte header, `vortex-wos`) is a
//! different format and does not use this module.

use crate::codec::{get_uvarint, put_uvarint};
use crate::crc::crc32c;

/// Appends one frame around `body` to `out`. Appends into the caller's
/// buffer so a hot path can reuse one arena across records.
pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) {
    put_uvarint(out, body.len() as u64);
    // lint:allow(L010, appends into the caller's buffer; the group-commit caller passes a reused arena)
    out.extend_from_slice(body);
    // lint:allow(L010, four-byte CRC trailer into the caller's buffer)
    out.extend_from_slice(&crc32c(body).to_le_bytes());
}

/// One frame around `body` in a fresh buffer.
pub fn framed(body: &[u8]) -> Vec<u8> {
    // lint:allow(L010, metadata-rate framing allocates its output by design)
    let mut out = Vec::with_capacity(body.len() + 9);
    put_frame(&mut out, body);
    out
}

/// Splits `data` into the bodies of its intact frames, stopping at the
/// first frame whose length or CRC does not check out (a torn tail).
/// Returns the bodies plus the number of trailing bytes dropped. A
/// declared length is checked against the remaining input before any
/// slice is taken, so corrupt input can neither panic nor allocate.
pub fn read_frames(data: &[u8]) -> (Vec<&[u8]>, usize) {
    // lint:allow(L010, recovery-only frame parsing; cold-start path)
    let mut bodies = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        let Some((body, len)) = read_frame(&data[pos..]) else {
            return (bodies, data.len() - pos);
        };
        bodies.push(body); // lint:allow(L010, recovery-only frame parsing; cold-start path)
        pos += len;
    }
    (bodies, 0)
}

/// The body and total length of the intact frame at the start of `data`.
fn read_frame(data: &[u8]) -> Option<(&[u8], usize)> {
    let mut pos = 0usize;
    let n = usize::try_from(get_uvarint(data, &mut pos).ok()?).ok()?;
    let end = pos.checked_add(n)?.checked_add(4)?;
    let (body, crc) = data.get(pos..end)?.split_at(n);
    (crc32c(body).to_le_bytes() == crc).then_some((body, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn frames_roundtrip_and_append_in_place() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"alpha");
        put_frame(&mut buf, b"");
        put_frame(&mut buf, &[7u8; 300]);
        let (bodies, torn) = read_frames(&buf);
        assert_eq!(torn, 0);
        assert_eq!(bodies, vec![&b"alpha"[..], &b""[..], &[7u8; 300][..]]);
        assert_eq!(framed(b"alpha"), buf[..framed(b"alpha").len()]);
    }

    #[test]
    fn torn_tail_is_dropped_and_counted() {
        let mut buf = framed(b"first");
        let whole = buf.len();
        let second = framed(b"second record");
        for keep in 0..second.len() {
            buf.truncate(whole);
            buf.extend_from_slice(&second[..keep]);
            let (bodies, torn) = read_frames(&buf);
            assert_eq!(bodies, vec![&b"first"[..]], "keep {keep}");
            assert_eq!(torn, keep, "keep {keep}");
        }
        // A flipped body bit fails the CRC: that frame and everything
        // after it are the torn tail.
        buf.truncate(whole);
        buf.extend_from_slice(&second);
        buf.extend_from_slice(&framed(b"third"));
        buf[whole + 3] ^= 0x10;
        let (bodies, torn) = read_frames(&buf);
        assert_eq!(bodies.len(), 1);
        assert_eq!(torn, buf.len() - whole);
    }

    /// A length varint near `u64::MAX` used to overflow `pos + n + 4` in
    /// the server WAL's replay loop and panic on the slice that followed.
    #[test]
    fn maximal_length_varint_is_a_torn_tail() {
        for len in [u64::MAX, u64::MAX - 3, usize::MAX as u64, 1 << 63] {
            let mut buf = framed(b"ok");
            let good = buf.len();
            put_uvarint(&mut buf, len);
            buf.extend_from_slice(&[0xAB; 16]);
            let (bodies, torn) = read_frames(&buf);
            assert_eq!(bodies, vec![&b"ok"[..]], "len {len:#x}");
            assert_eq!(torn, buf.len() - good, "len {len:#x}");
        }
    }

    /// Arbitrary bytes never panic, and what comes back borrows from the
    /// input (no allocation can exceed it): bodies + dropped tail +
    /// framing overhead account for every input byte.
    #[test]
    fn fuzz_arbitrary_bytes_never_panic_or_over_allocate() {
        let mut rng = StdRng::seed_from_u64(0xF4A3E);
        for case in 0..20_000u32 {
            let mut data = Vec::new();
            // Mix intact frames, raw noise and hostile length prefixes.
            for _ in 0..rng.gen_range(0..5) {
                match rng.gen_range(0..4) {
                    0 => {
                        let n = rng.gen_range(0..40);
                        let body: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=255u8)).collect();
                        put_frame(&mut data, &body);
                    }
                    1 => {
                        let n = rng.gen_range(0..24);
                        data.extend((0..n).map(|_| rng.gen_range(0..=255u8)));
                    }
                    2 => data.extend_from_slice(&[0xFF; 9]),
                    _ => put_uvarint(&mut data, u64::MAX - rng.gen_range(0..8u64)),
                }
            }
            if !data.is_empty() && case % 3 == 0 {
                let i = rng.gen_range(0..data.len());
                data[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
            let (bodies, torn) = read_frames(&data);
            assert!(torn <= data.len());
            let framed_len: usize = bodies.iter().map(|b| framed(b).len()).sum();
            assert_eq!(framed_len + torn, data.len(), "case {case}");
        }
    }
}
