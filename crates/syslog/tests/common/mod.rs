//! The corruptions a collector actually sees, shared by the line-parser
//! fuzz corpus (`fuzz_parse.rs`) and the timestamp differential
//! (`props.rs`): truncation, one character replaced by a separator,
//! control byte or non-ASCII, and two texts spliced together.

use proptest::prelude::*;

pub const DAY_MS: u64 = 86_400_000;

/// Replacement characters a corrupted feed plausibly produces: grammar
/// separators, control bytes, and non-ASCII.
pub const CORRUPT: &[char] = &[
    '<', '>', '%', ':', '#', ' ', '-', '\0', '\t', '\u{7f}', 'ÿ', '\u{fffd}',
];

/// Timestamps biased toward calendar trouble spots: the simulated
/// archive's first year boundary (Dec 31 → Jan 1) and the leap day of
/// the following year, plus a broad background range.
pub fn arb_at_ms() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Year boundary: one minute each side of midnight.
        (72 * DAY_MS - 60_000)..(73 * DAY_MS + 60_000),
        // Leap day, full span plus a minute each side.
        (497 * DAY_MS - 60_000)..(498 * DAY_MS + 60_000),
        0u64..(500 * DAY_MS),
    ]
}

/// One corruption applied to a rendered text. Indices are taken modulo
/// the char count so every drawn value is meaningful.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Keep only the first `n mod len` characters.
    Truncate(usize),
    /// Replace the character at `i mod len` with a corrupt character.
    Substitute(usize, usize),
    /// Splice: prefix of this text + suffix of a second rendered text.
    Splice(usize),
    /// Leave the text untouched (the round-trip control arm).
    Identity,
}

pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..256).prop_map(Mutation::Truncate),
        ((0usize..256), (0usize..CORRUPT.len())).prop_map(|(i, c)| Mutation::Substitute(i, c)),
        (0usize..256).prop_map(Mutation::Splice),
        Just(Mutation::Identity),
    ]
}

pub fn apply(line: &str, other: &str, m: &Mutation) -> String {
    let chars: Vec<char> = line.chars().collect();
    match *m {
        Mutation::Truncate(n) => chars[..n % (chars.len() + 1)].iter().collect(),
        Mutation::Substitute(i, c) => {
            let mut out = chars;
            let i = i % out.len();
            out[i] = CORRUPT[c];
            out.into_iter().collect()
        }
        Mutation::Splice(cut) => {
            let head: String = chars[..cut % (chars.len() + 1)].iter().collect();
            let tail_chars: Vec<char> = other.chars().collect();
            let tail: String = tail_chars[cut % (tail_chars.len() + 1)..].iter().collect();
            head + &tail
        }
        Mutation::Identity => line.to_string(),
    }
}
