//! An LZ77-family compression codec.
//!
//! Blobs are stored compressed (the paper's measured CPU peak includes
//! "decompressing the file from the database"). The format is a simple
//! byte-oriented LZ with hash-chain matching — think "mini LZ4": a stream
//! of tokens, each a literal run and/or a back-reference.
//!
//! ## Format
//!
//! ```text
//! stream  := header token*
//! header  := u32_le original_len
//! token   := tag lit_ext? literals (off_lo off_hi len_ext?)?
//! tag     := high nibble = literal count (15 = extended),
//!            low  nibble = match length - MIN_MATCH (15 = extended, 0b1111
//!            only valid when a match follows; a tag low nibble of 0 with
//!            no trailing bytes ends the stream after its literals)
//! ```
//!
//! Extended lengths use LEB-style 255-continuation bytes (as in LZ4).
//! Matches are 4..=64 KiB offsets, minimum length 4.

use std::fmt;

/// Decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside a token.
    Truncated,
    /// A back-reference points before the start of the output.
    BadOffset,
    /// The header promises more than its stream could ever decode to
    /// (rejected before anything is allocated).
    HeaderTooLarge {
        /// Length promised by the header.
        expected: usize,
        /// The most the bytes after the header can stand for.
        limit: usize,
    },
    /// Decompressed size disagrees with the header.
    LengthMismatch {
        /// Length promised by the header.
        expected: usize,
        /// Length actually produced — or, when a token would write past
        /// the header's length, the length that token would have reached.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::BadOffset => write!(f, "back-reference before stream start"),
            CodecError::HeaderTooLarge { expected, limit } => {
                write!(f, "header {expected} exceeds the stream's bound {limit}")
            }
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: header {expected}, decoded {actual}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 15;
/// Empty slot of the compressor's hash table.
const NO_CANDIDATE: u32 = u32::MAX;
/// The most output one stream byte can stand for: a `255` continuation
/// byte of an extended length.
const MAX_EXPANSION: usize = 255;
/// Width of the decoder's fixed-size copies.
const CHUNK: usize = 16;

#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b`, eight bytes per step: the
/// lowest set bit of the xor of two little-endian words sits in the first
/// byte that differs.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    let tail = a.len().min(b.len());
    n + a[n..tail]
        .iter()
        .zip(&b[n..tail])
        .take_while(|(x, y)| x == y)
        .count()
}

fn write_varlen(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_varlen(inp: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let mut total = 0usize;
    loop {
        let b = *inp.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        total = total.saturating_add(b as usize);
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Compress `data`. Always succeeds; incompressible input grows by a few
/// bytes per 15-literal run plus the 4-byte header.
///
/// Greedy, with a single-entry hash table over 4-byte windows. The stream
/// it produces is pinned: `stored_len`, and through it every simulated
/// disk time in the goldens, depends on each parse decision made here.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    // one past the last position a 4-byte window fits at
    let windows = data.len().saturating_sub(MIN_MATCH - 1);
    let mut head = vec![NO_CANDIDATE; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut lit_start = 0usize;

    while pos < windows {
        let window = load32(data, pos);
        let slot = &mut head[hash4(window)];
        let candidate = *slot;
        *slot = pos as u32;
        let cand = candidate as usize;
        if candidate == NO_CANDIDATE || pos - cand > MAX_OFFSET || load32(data, cand) != window {
            pos += 1;
            continue;
        }
        let len = MIN_MATCH + common_prefix(&data[cand + MIN_MATCH..], &data[pos + MIN_MATCH..]);
        emit_token(&mut out, &data[lit_start..pos], Some((pos - cand, len)));
        // index the skipped region sparsely (every other byte) to keep
        // compression fast while still finding later overlaps
        let end = pos + len;
        for p in (pos + 1..end.min(windows)).step_by(2) {
            head[hash4(load32(data, p))] = p as u32;
        }
        pos = end;
        lit_start = end;
    }
    // trailing literals (omitted when the last match consumed the tail, so
    // no stream has a redundant empty final token)
    if lit_start < data.len() {
        emit_token(&mut out, &data[lit_start..], None);
    }
    out
}

fn emit_token(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    // Long literal runs are split: every token carries ≤ its encodable
    // amount, only the final carries the match.
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

/// Copy the `len`-byte match that starts at `src` to `dst` (`src < dst`),
/// byte-exact. When the match overlaps its own output (`dst - src < len`)
/// it is a periodic run: every pass copies all of the run known so far,
/// so source and destination never overlap and the copied span doubles.
fn copy_match(out: &mut [u8], src: usize, dst: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let n = (dst - src + done).min(len - done);
        out.copy_within(src..src + n, dst + done);
        done += n;
    }
}

/// Decompress a stream produced by [`compress`].
///
/// Safe on hostile input: the output is allocated once, at the header's
/// length, only after that length is known to be within what the stream
/// could decode to ([`CodecError::HeaderTooLarge`]); every token is checked
/// against the room left before it is copied, so nothing is ever written
/// past the header's length; and every byte of that length is written by
/// its own token before the final length check lets the buffer out.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let header = input.get(..4).ok_or(CodecError::Truncated)?;
    let expected = u32::from_le_bytes(header.try_into().expect("4-byte slice")) as usize;
    let limit = (input.len() - 4).saturating_mul(MAX_EXPANSION);
    if expected > limit {
        return Err(CodecError::HeaderTooLarge { expected, limit });
    }
    let overrun = |actual| CodecError::LengthMismatch { expected, actual };
    let mut out = vec![0u8; expected];
    let mut o = 0usize; // bytes of `out` decoded so far
    let mut pos = 4usize;
    // Whole-chunk copies may write up to CHUNK - 1 bytes past a token's
    // end, but never past `expected`: they run only where a whole chunk
    // fits. The tokens that follow overwrite the excess, and a stream
    // that stops short of `expected` is an error.
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        let mut lit = (tag >> 4) as usize;
        if lit == 15 {
            lit = lit.saturating_add(read_varlen(input, &mut pos)?);
        }
        if lit <= CHUNK && input.len() - pos >= CHUNK && expected - o >= CHUNK {
            out[o..o + CHUNK].copy_from_slice(&input[pos..pos + CHUNK]);
        } else if lit > input.len() - pos {
            return Err(CodecError::Truncated);
        } else if lit > expected - o {
            return Err(overrun(o + lit));
        } else {
            out[o..o + lit].copy_from_slice(&input[pos..pos + lit]);
        }
        pos += lit;
        o += lit;
        let mnib = (tag & 0x0f) as usize;
        if mnib == 0 {
            continue; // literal-only token (end or long-run split)
        }
        let off = input.get(pos..pos + 2).ok_or(CodecError::Truncated)?;
        let off = u16::from_le_bytes(off.try_into().expect("2-byte slice")) as usize;
        pos += 2;
        let mut len = MIN_MATCH + (mnib - 1);
        if mnib == 15 {
            len = len.saturating_add(read_varlen(input, &mut pos)?);
        }
        if off == 0 || off > o {
            return Err(CodecError::BadOffset);
        }
        let src = o - off;
        // When the offset spans a chunk, the chunk read at `src + k` sees
        // only bytes below `o + k`, all decoded. A shorter offset is still
        // safe when the match stops short of its own output (`len <= off`):
        // it is one chunk, and what that reads at or past `o` lands past
        // the match's end.
        if (off >= CHUNK || off >= len) && len.div_ceil(CHUNK) <= (expected - o) / CHUNK {
            let mut k = 0;
            while k < len {
                out.copy_within(src + k..src + k + CHUNK, o + k);
                k += CHUNK;
            }
        } else if len > expected - o {
            return Err(overrun(o.saturating_add(len)));
        } else {
            copy_match(&mut out, src, o, len);
        }
        o += len;
    }
    if o != expected {
        return Err(overrun(o));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_compresses_well() {
        let data: Vec<u8> = b"hello world! ".iter().copied().cycle().take(100_000).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "ratio: {}/{}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn zeros_compress_extremely() {
        let data = vec![0u8; 1_000_000];
        let c = compress(&data);
        assert!(c.len() < 10_000, "{} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_grows_bounded() {
        // pseudo-random bytes
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 10 + 64);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_run() {
        // 'aaaa...' forces overlapping copies (offset 1)
        roundtrip(&vec![b'a'; 5000]);
        // period-3 pattern, offset 3 overlap
        let data: Vec<u8> = b"xyz".iter().copied().cycle().take(10_001).collect();
        roundtrip(&data);
    }

    #[test]
    fn structured_text_roundtrip() {
        let text = include_str!("codec.rs");
        roundtrip(text.as_bytes());
        let c = compress(text.as_bytes());
        assert!(c.len() < text.len(), "source code should compress");
    }

    #[test]
    fn long_literal_runs_split_correctly() {
        // all-distinct bytes > 15 forces extended literal encoding
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let c = compress(b"hello hello hello hello");
        for cut in 0..c.len() {
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_offset_errors() {
        // token claiming a match at offset 999 with no prior output
        let mut bad = Vec::new();
        bad.extend_from_slice(&10u32.to_le_bytes());
        bad.push(0x01); // 0 literals, match nibble 1 (len 4)
        bad.extend_from_slice(&999u16.to_le_bytes());
        assert_eq!(decompress(&bad), Err(CodecError::BadOffset));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut c = compress(b"abcdefgh");
        // lie about the original length
        c[0] = 99;
        assert!(matches!(
            decompress(&c),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn hostile_header_is_rejected_before_allocating() {
        // 4 GiB promised by a bare header, and by a header plus one byte
        let bare = u32::MAX.to_le_bytes().to_vec();
        assert_eq!(
            decompress(&bare),
            Err(CodecError::HeaderTooLarge {
                expected: u32::MAX as usize,
                limit: 0
            })
        );
        let mut one = bare.clone();
        one.push(0xff);
        assert_eq!(
            decompress(&one),
            Err(CodecError::HeaderTooLarge {
                expected: u32::MAX as usize,
                limit: 255
            })
        );
        // the bound is tight: 255 is what one continuation byte can stand
        // for, so 255 passes the header check and fails on the token
        let mut edge = 255u32.to_le_bytes().to_vec();
        edge.push(0xff);
        assert_eq!(decompress(&edge), Err(CodecError::Truncated));
        assert_eq!(crate::reference::decompress(&one), None);
    }

    #[test]
    fn token_past_the_header_length_is_rejected() {
        // header 6; "abcd" then a 4-byte match at offset 4 would reach 8
        let mut bad = 6u32.to_le_bytes().to_vec();
        bad.push(0x41);
        bad.extend_from_slice(b"abcd");
        bad.extend_from_slice(&4u16.to_le_bytes());
        let overrun = CodecError::LengthMismatch {
            expected: 6,
            actual: 8,
        };
        assert_eq!(decompress(&bad), Err(overrun.clone()));
        // same for a literal run: header 6, 8 literals
        let mut bad = 6u32.to_le_bytes().to_vec();
        bad.push(0x80);
        bad.extend_from_slice(b"abcdefgh");
        assert_eq!(decompress(&bad), Err(overrun));
    }

    #[test]
    fn every_offset_and_length_near_the_end_decodes_like_the_reference() {
        // hand-built streams: `off` literals, one match of `len` at
        // offset `off`, then `slack` literals — every path of the match
        // copy (chunked, short, periodic) with and without room for a
        // whole chunk after it
        for off in 1..=40usize {
            for len in MIN_MATCH..=50 {
                for slack in [0usize, 1, 15, 16, 17] {
                    let mut stream = ((off + len + slack) as u32).to_le_bytes().to_vec();
                    let seed: Vec<u8> = (0..off).map(|i| (i * 7 + off) as u8).collect();
                    emit_token(&mut stream, &seed, Some((off, len)));
                    if slack > 0 {
                        emit_token(&mut stream, &vec![0xa5; slack], None);
                    }
                    let want = crate::reference::decompress(&stream).expect("valid stream");
                    let got = decompress(&stream);
                    assert_eq!(got.as_ref(), Ok(&want), "off {off} len {len}");
                }
            }
        }
    }

    #[test]
    fn compress_is_byte_identical_to_the_reference() {
        let mut corpus: Vec<Vec<u8>> = vec![
            include_bytes!("codec.rs").to_vec(),
            vec![0u8; 100_000],
            b"xyz".iter().copied().cycle().take(10_001).collect(),
            (0..70_000u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect(),
        ];
        // every tail length around the word-wise extension's 8-byte step
        for n in 0..64 {
            corpus.push(b"abcdefgh".iter().copied().cycle().take(n).collect());
        }
        for data in corpus {
            let packed = compress(&data);
            let n = data.len();
            assert_eq!(packed, crate::reference::compress(&data), "{n} bytes");
            assert_eq!(decompress(&packed).as_ref(), Ok(&data));
        }
    }

    #[test]
    fn large_mixed_payload() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("record-{i}: value={} ", i * 7 % 13).as_bytes());
            if i % 5 == 0 {
                data.extend_from_slice(&i.to_le_bytes());
            }
        }
        roundtrip(&data);
    }
}
