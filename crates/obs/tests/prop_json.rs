//! Property tests of the one JSON path every exporter and reader shares:
//! `parse(to_string(v)) == v` on generated value trees, and `parse` returns
//! (never panics) on arbitrary text.
//!
//! The vendored proptest has no recursive strategies, so a tree is read off
//! a flat vector of random words by a depth-capped builder: the same words
//! always build the same tree.

use omega_obs::json::{parse, to_string};
use proptest::prelude::*;
use serde::Value;

/// Characters a string is drawn from: JSON's escapes, raw control
/// characters, and one- to four-byte UTF-8.
const PALETTE: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', ' ', 'a', 'Z',
    '0', 'u', 'é', '€', '中', '😀',
];

fn build_string(words: &mut impl Iterator<Item = u64>) -> String {
    let len = words.next().unwrap_or(0) % 8;
    (0..len)
        .map(|_| {
            let w = words.next().unwrap_or(0);
            // Every fourth char is any scalar value, the rest from PALETTE.
            if w & 3 == 0 {
                char::from_u32((w >> 2) as u32 % 0x11_0000).unwrap_or('?')
            } else {
                PALETTE[(w >> 2) as usize % PALETTE.len()]
            }
        })
        .collect()
}

/// Build a value tree, in the form the encoder's output reads back as: a
/// non-negative integer is a `U64`, never an `I64`.
fn build(words: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let w = words.next().unwrap_or(0);
    let kinds = if depth >= 4 { 6 } else { 8 };
    // The bits above the kind pick a bool, a magnitude (shift) or a length.
    let (bit, shift, n) = (w & 8 != 0, (w >> 3) % 64, (w >> 9) % 5);
    match w % kinds {
        0 => Value::Null,
        1 => Value::Bool(bit),
        2 => Value::U64(words.next().unwrap_or(0) >> shift),
        3 => match words.next().unwrap_or(0) as i64 >> shift {
            n if n >= 0 => Value::U64(n as u64),
            n => Value::I64(n),
        },
        // Raw bits reach every exponent and the subnormals.
        4 => Value::F64(
            Some(f64::from_bits(words.next().unwrap_or(0)))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        ),
        5 => Value::Str(build_string(words)),
        6 => Value::Seq((0..n).map(|_| build(words, depth + 1)).collect()),
        _ => Value::Map(
            (0..n)
                .map(|_| (build_string(words), build(words, depth + 1)))
                .collect(),
        ),
    }
}

fn tree(words: &[u64]) -> Value {
    build(&mut words.iter().copied(), 0)
}

/// Characters that steer random ASCII into the parser's deeper paths.
const JSONISH: &[u8] = b"[]{}\",:\\/ubfnrt0123456789.eE+-alsu \n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encoded_trees_parse_back_equal(
        words in proptest::collection::vec(any::<u64>(), 1..96),
    ) {
        let v = tree(&words);
        let text = to_string(&v);
        match parse(&text) {
            Ok(back) => prop_assert_eq!(back, v, "via {}", text),
            Err(e) => prop_assert!(false, "{} on {}", e, text),
        }
    }

    #[test]
    fn parse_never_panics(
        ascii in proptest::collection::vec(any::<u8>(), 0..64),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        words in proptest::collection::vec(any::<u64>(), 1..48),
        cut in any::<u64>(),
    ) {
        // JSON-flavoured ASCII, and any byte string read lossily.
        let ascii: String = ascii
            .iter()
            .map(|&b| {
                if b & 1 == 0 {
                    JSONISH[(b >> 1) as usize % JSONISH.len()] as char
                } else {
                    (b >> 1) as char
                }
            })
            .collect();
        let _ = parse(&ascii);
        let _ = parse(&String::from_utf8_lossy(&bytes));
        // A valid document, truncated and with one ASCII byte overwritten.
        let mut doc = to_string(&tree(&words)).into_bytes();
        let at = (cut % doc.len() as u64) as usize;
        if doc[at].is_ascii() {
            doc[at] = JSONISH[(cut >> 32) as usize % JSONISH.len()];
        }
        let _ = parse(&String::from_utf8_lossy(&doc));
        let _ = parse(&String::from_utf8_lossy(&doc[..at]));
    }
}
