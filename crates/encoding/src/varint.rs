//! LEB128 unsigned varints for container headers and run lengths.

/// Append `v` as a LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_uvarint`] writes for `v`.
pub fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Decode a LEB128 varint starting at `buf[*pos]`, advancing `pos`.
///
/// Returns `None` on truncation or overlong (> 10 byte) encodings.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_len_matches_the_writer() {
        let mut out = Vec::new();
        for shift in 0..64 {
            for v in [(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1, u64::MAX >> shift] {
                out.clear();
                put_uvarint(&mut out, v);
                assert_eq!(uvarint_len(v), out.len(), "{v}");
            }
        }
    }

    #[test]
    fn roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_returns_none() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf[..buf.len() - 1], &mut pos), None);
    }

    #[test]
    fn sequence_decoding() {
        let mut buf = Vec::new();
        for v in 0..300u64 {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for v in 0..300u64 {
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn overflow_rejected() {
        // 11 continuation bytes cannot encode a u64.
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf, &mut pos), None);
    }
}
