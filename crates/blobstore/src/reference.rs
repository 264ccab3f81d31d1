//! The byte-at-a-time codec the word-wise kernels in `codec` replaced,
//! kept as an executable reference model: `compress` defines the stream
//! every golden's `stored_len` depends on, `decompress` defines which
//! streams are valid. Compiled into test targets only — the crate's unit
//! tests declare it in `lib.rs`, `tests/proptests.rs` includes this file by
//! path — and deliberately shares no code with `codec`.

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 15;

fn hash4(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn write_varlen(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_varlen(inp: &[u8], pos: &mut usize) -> Option<usize> {
    let mut total = 0usize;
    loop {
        let b = *inp.get(*pos)?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Some(total);
        }
    }
}

/// The parent's compressor: single-entry hash table, greedy, byte-wise
/// match extension.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    if data.is_empty() {
        return out;
    }
    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut lit_start = 0usize;

    while pos + MIN_MATCH <= data.len() {
        let h = hash4(&data[pos..]);
        let candidate = head[h];
        head[h] = pos as u32;
        let mut match_len = 0usize;
        let mut match_off = 0usize;
        if candidate != u32::MAX {
            let cand = candidate as usize;
            let off = pos - cand;
            if off <= MAX_OFFSET && data[cand..cand + MIN_MATCH] == data[pos..pos + MIN_MATCH] {
                let mut len = MIN_MATCH;
                while pos + len < data.len() && data[cand + len] == data[pos + len] {
                    len += 1;
                }
                match_len = len;
                match_off = off;
            }
        }
        if match_len >= MIN_MATCH {
            emit_token(
                &mut out,
                &data[lit_start..pos],
                Some((match_off, match_len)),
            );
            let end = pos + match_len;
            let mut p = pos + 1;
            while p + MIN_MATCH <= data.len() && p < end {
                head[hash4(&data[p..])] = p as u32;
                p += 2;
            }
            pos = end;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    if lit_start < data.len() {
        emit_token(&mut out, &data[lit_start..], None);
    }
    out
}

fn emit_token(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15);
    let (match_nibble, match_extra) = match m {
        Some((_, len)) => {
            let stored = len - MIN_MATCH;
            (stored.min(14) + 1, stored.saturating_sub(14))
        }
        None => (0, 0),
    };
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        write_varlen(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((off, _)) = m {
        out.extend_from_slice(&(off as u16).to_le_bytes());
        if match_nibble == 15 {
            write_varlen(out, match_extra);
        }
    }
}

/// The parent's decoder, `push` per byte. `None` is any decode error. The
/// one departure from the parent: the output grows as it is written
/// instead of being reserved from the header, so a hostile header cannot
/// make the *model* ask for 4 GiB.
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    if input.len() < 4 {
        return None;
    }
    let expected = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
    let mut out = Vec::new();
    let mut pos = 4usize;
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        let mut lit = (tag >> 4) as usize;
        if lit == 15 {
            lit += read_varlen(input, &mut pos)?;
        }
        if pos + lit > input.len() {
            return None;
        }
        out.extend_from_slice(&input[pos..pos + lit]);
        pos += lit;
        let mnib = (tag & 0x0f) as usize;
        if mnib == 0 {
            continue;
        }
        if pos + 2 > input.len() {
            return None;
        }
        let off = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        let mut len = MIN_MATCH + (mnib - 1);
        if mnib == 15 {
            len += read_varlen(input, &mut pos)?;
        }
        if off == 0 || off > out.len() {
            return None;
        }
        let start = out.len() - off;
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    }
    (out.len() == expected).then_some(out)
}
