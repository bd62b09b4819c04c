//! The positional stamp reader is the walk it sits in front of.
//!
//! `caltime::parse_bytes` reads a stamp in `render`'s own shape (`Mmm D
//! YYYY HH:MM:SS.mmm`, one- or two-digit day) by position and hands any
//! other text to the general walk. Here the whole reader is held to the
//! walk as it stood before the positional read existed, kept verbatim in
//! `mod reference`: over rendered stamps, and over every one-byte edit
//! of them that could fool a reader counting positions — a digit made a
//! non-digit, a space made a tab or U+2003, a `+` or a leading zero put
//! in front of a field, a byte dropped or doubled.

use faultline_syslog::caltime;
use faultline_topology::time::Timestamp;
use proptest::prelude::*;

/// The reader before the positional read: its code verbatim, its doc
/// comments dropped.
mod reference {
    use faultline_syslog::caltime::{from_calendar, CalTime};
    use faultline_topology::time::Timestamp;

    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];

    pub fn parse_bytes(text: &[u8]) -> Option<Timestamp> {
        let (month, text) = skip_whitespace(text).split_first_chunk::<3>()?;
        let (day, text) = leading_uint(gap(text)?)?;
        let (year, text) = leading_uint(gap(text)?)?;
        let (hour, text) = leading_uint(gap(text)?)?;
        let (minute, text) = leading_uint(text.strip_prefix(b":")?)?;
        let (second, text) = leading_uint(text.strip_prefix(b":")?)?;
        let (millis, text) = text.strip_prefix(b".")?.split_first_chunk::<3>()?;
        if !skip_whitespace(text).is_empty() {
            return None;
        }
        from_calendar(&CalTime {
            year: year.try_into().ok()?,
            month: MONTHS.iter().position(|m| m.as_bytes() == month)? as u8 + 1,
            day: day.try_into().ok()?,
            hour: hour.try_into().ok()?,
            minute: minute.try_into().ok()?,
            second: second.try_into().ok()?,
            millis: parse_uint(millis)? as u16,
        })
    }

    fn parse_uint(text: &[u8]) -> Option<u64> {
        match leading_uint(text)? {
            (n, []) => Some(n),
            _ => None,
        }
    }

    fn leading_uint(text: &[u8]) -> Option<(u64, &[u8])> {
        let digits = text.strip_prefix(b"+").unwrap_or(text);
        let mut n = 0u64;
        let mut len = 0;
        while let Some(d) = digits.get(len).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            n = n.checked_mul(10)?.checked_add(d as u64)?;
            len += 1;
        }
        (len > 0).then_some((n, &digits[len..]))
    }

    fn whitespace_len(text: &[u8]) -> usize {
        match text {
            [0x09..=0x0D | b' ', ..] => 1,
            // U+0085, U+00A0
            [0xC2, 0x85 | 0xA0, ..] => 2,
            // U+1680; U+2000–200A, U+2028, U+2029, U+202F; U+205F; U+3000
            [0xE1, 0x9A, 0x80, ..]
            | [0xE2, 0x80, 0x80..=0x8A | 0xA8 | 0xA9 | 0xAF, ..]
            | [0xE2, 0x81, 0x9F, ..]
            | [0xE3, 0x80, 0x80, ..] => 3,
            _ => 0,
        }
    }

    fn skip_whitespace(mut text: &[u8]) -> &[u8] {
        // Every encoding in the table starts at or below b' ' or at a
        // multi-byte lead, so a stamp's own letters and digits skip it.
        while let Some(&first) = text.first() {
            if first > b' ' && first < 0xC2 {
                break;
            }
            match whitespace_len(text) {
                0 => break,
                n => text = &text[n..],
            }
        }
        text
    }

    fn gap(text: &[u8]) -> Option<&[u8]> {
        let rest = skip_whitespace(text);
        (rest.len() < text.len()).then_some(rest)
    }
}

/// Every edit of one kind the sweep makes, at byte `at` of `stamp`.
fn edits(stamp: &[u8], at: usize) -> Vec<Vec<u8>> {
    let with = |replacement: &[u8], keep: bool| {
        let mut out = stamp[..at].to_vec();
        out.extend_from_slice(replacement);
        out.extend_from_slice(&stamp[at + usize::from(!keep)..]);
        out
    };
    let b = stamp[at];
    let mut out = vec![
        // Width: the byte dropped, the byte doubled.
        with(b"", false),
        with(&[b], true),
        // A sign or a leading zero in front of whatever starts here.
        with(b"+", true),
        with(b"0", true),
    ];
    if b.is_ascii_digit() {
        for other in [b'/', b':', b'a', b' ', 0x80] {
            out.push(with(&[other], false));
        }
    }
    if b == b' ' {
        out.push(with(b"\t", false));
        out.push(with("\u{2003}".as_bytes(), false));
    }
    out
}

fn check(text: &[u8]) {
    assert_eq!(
        caltime::parse_bytes(text),
        reference::parse_bytes(text),
        "{:?}",
        String::from_utf8_lossy(text)
    );
}

/// Stamps with one- and two-digit days, at month, year and leap-day
/// edges, at the first and last millisecond of a day.
fn stamps() -> Vec<Timestamp> {
    const DAY: u64 = 86_400_000;
    let mut out = Vec::new();
    for days in [0u64, 11, 12, 20, 72, 73, 131, 497, 498, 36_500, 177_000] {
        for ms in [0, 1, 9_999, 43_210_987, DAY - 1] {
            out.push(Timestamp::from_millis(days * DAY + ms));
        }
    }
    out
}

#[test]
fn every_one_byte_edit_of_a_rendered_stamp_reads_as_the_walk_does() {
    let mut cases = 0;
    for t in stamps() {
        let stamp = caltime::render(t);
        assert_eq!(caltime::parse_bytes(stamp.as_bytes()), Some(t));
        check(stamp.as_bytes());
        for at in 0..stamp.len() {
            for edited in edits(stamp.as_bytes(), at) {
                check(&edited);
                cases += 1;
            }
        }
    }
    assert!(cases > 5_000, "{cases} edited stamps");
}

#[test]
fn out_of_range_fields_in_the_rendered_shape_read_as_the_walk_does() {
    for text in [
        "Oct 00 2010 00:00:00.000",
        "Oct 32 2010 00:00:00.000",
        "Feb 29 2011 00:00:00.000",
        "Feb 29 2012 00:00:00.000",
        "Oct 19 2010 23:59:59.999",
        "Oct 20 2010 24:00:00.000",
        "Oct 20 2010 00:60:00.000",
        "Oct 20 2010 00:00:60.000",
        "Oct 20 0000 00:00:00.000",
        "Oct 20 9999 23:59:59.999",
        "oct 20 2010 00:00:00.000",
        "Oct 5 2010 00:00:00.000",
        "Oct 05 2010 00:00:00.000",
        "Oct  5 2010 00:00:00.000",
    ] {
        check(text.as_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Any stamp, one edit anywhere.
    #[test]
    fn a_random_stamp_and_edit_reads_as_the_walk_does(
        ms in 0u64..(600 * 365 * 86_400_000),
        at in 0usize..24,
        which in 0usize..16,
    ) {
        let stamp = caltime::render(Timestamp::from_millis(ms));
        let at = at % stamp.len();
        let edits = edits(stamp.as_bytes(), at);
        let edited = &edits[which % edits.len()];
        prop_assert_eq!(
            caltime::parse_bytes(edited),
            reference::parse_bytes(edited)
        );
    }
}
