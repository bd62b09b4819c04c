//! Calendar rendering of simulation time in Cisco syslog format.
//!
//! The scenario epoch is fixed at **Oct 20 2010 00:00:00 UTC**, the start
//! of the paper's measurement period. Routers are configured with
//! `service timestamps log datetime msec year` (so the textual format is
//! `Oct 20 2010 04:12:33.123`), which keeps parsing unambiguous — classic
//! year-less RFC 3164 timestamps would be ambiguous across the 13-month
//! window.
//!
//! # What the reader accepts
//!
//! [`parse_bytes`] is the only reader ([`parse`] hands it the string's
//! bytes). It reads the one shape [`render`] writes, `Mmm D YYYY
//! HH:MM:SS.mmm` with a one- or two-digit day, by position: each byte is
//! checked where that shape puts it, with no search for a separator.
//! Anything else goes to a general left-to-right walk, which gives a
//! rendered stamp the same reading and accepts more than [`render`]
//! writes. The set is pinned by the differential tests in
//! `tests/props.rs` (the calendar and the walk) and
//! `tests/stamp_by_position.rs` (the positional read against the walk
//! alone, over rendered stamps and their one-byte edits):
//!
//! * exactly four fields — month, day, year, `H:M:S.mmm` — separated by
//!   runs of Unicode `White_Space` (tab and U+2003 count), with leading
//!   and trailing runs ignored; any other byte outside the fields' own
//!   alphabets, so all text that is not valid UTF-8, is rejected;
//! * the month is one of `Jan` … `Dec`, case-sensitive;
//! * every number is an optional `+` and one or more ASCII digits, as
//!   `str::parse` reads them: any digit count (`+05` and `0005` are both
//!   5), a `u32` for the year and a `u8` for day, hour, minute and second;
//! * the time field splits at its first two `:` and the first `.` after
//!   them; the millisecond part is exactly three *bytes*, read the same
//!   way (`+12` is 12, `12` is rejected);
//! * hour ≤ 23, minute ≤ 59, second ≤ 59, 1 ≤ day ≤ the month's length
//!   in that year, and the instant is not before the epoch and fits a
//!   millisecond count in `u64`.

use faultline_topology::time::{Duration, Timestamp};

/// Month abbreviations in Cisco/RFC 3164 style.
const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Days in `month` (1–12) of `year`.
fn days_in_month(year: u32, month: u8) -> u8 {
    const D: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    if month == 2 && is_leap(year) {
        29
    } else {
        D[month as usize - 1]
    }
}

fn is_leap(year: u32) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

/// The calendar date of the scenario epoch.
const EPOCH_YEAR: u32 = 2010;
const EPOCH_MONTH: u8 = 10;
const EPOCH_DAY: u8 = 20;

const DAY_MS: u64 = Duration::DAY.as_millis();
/// Days in 400 Gregorian years, the calendar's period.
const DAYS_PER_ERA: u64 = 146_097;
/// The epoch on the day count [`civil_day`] uses.
const EPOCH_CIVIL_DAY: u64 = civil_day(EPOCH_YEAR, EPOCH_MONTH, EPOCH_DAY);

/// Days from 0000-03-01 to the given proleptic-Gregorian date, for
/// `year >= 1`. Counting years from March puts the leap day last, so a
/// month's offset is linear in its index: `(153 * m + 2) / 5` is the
/// number of days before month `m` (March = 0).
const fn civil_day(year: u32, month: u8, day: u8) -> u64 {
    let y = year as u64 - (month <= 2) as u64;
    let year_of_era = y % 400;
    let m = (month as u64 + 9) % 12;
    let day_of_year = (153 * m + 2) / 5 + day as u64 - 1;
    y / 400 * DAYS_PER_ERA + year_of_era * 365 + year_of_era / 4 - year_of_era / 100 + day_of_year
}

/// A broken-down calendar instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalTime {
    /// Full year, e.g. 2010.
    pub year: u32,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59.
    pub second: u8,
    /// Millisecond 0–999.
    pub millis: u16,
}

/// Convert a simulation timestamp to calendar form. Constant time for
/// every `Timestamp`: closed-form civil-date arithmetic (the inverse of
/// the private `civil_day`), not a month walk.
pub fn to_calendar(ts: Timestamp) -> CalTime {
    let rem_ms = ts.as_millis() % DAY_MS;
    let z = ts.as_millis() / DAY_MS + EPOCH_CIVIL_DAY;
    let day_of_era = z % DAYS_PER_ERA;
    let year_of_era =
        (day_of_era - day_of_era / 1_460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
    let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
    let m = (5 * day_of_year + 2) / 153;
    let month = if m < 10 { m + 3 } else { m - 9 };
    // `u64::MAX` ms is in year 584,556,060: inside `u32`.
    let year = z / DAYS_PER_ERA * 400 + year_of_era + (month <= 2) as u64;
    CalTime {
        year: year as u32,
        month: month as u8,
        day: (day_of_year - (153 * m + 2) / 5 + 1) as u8,
        hour: (rem_ms / 3_600_000) as u8,
        minute: (rem_ms / 60_000 % 60) as u8,
        second: (rem_ms / 1_000 % 60) as u8,
        millis: (rem_ms % 1_000) as u16,
    }
}

/// Convert a calendar instant back to a simulation timestamp.
///
/// Returns `None` for a field outside its range (month 1–12, day 1 to the
/// month's length in that year, 23:59:59.999 at most), for dates before
/// the epoch, and for instants whose millisecond count does not fit `u64`
/// (the year is a `u32` off the wire). Constant time for every input.
pub fn from_calendar(c: &CalTime) -> Option<Timestamp> {
    let in_range = (1..=12).contains(&c.month)
        && (1..=days_in_month(c.year, c.month)).contains(&c.day)
        && c.hour <= 23
        && c.minute <= 59
        && c.second <= 59
        && c.millis <= 999;
    if !in_range || (c.year, c.month, c.day) < (EPOCH_YEAR, EPOCH_MONTH, EPOCH_DAY) {
        return None;
    }
    let days = civil_day(c.year, c.month, c.day) - EPOCH_CIVIL_DAY;
    let in_day = c.hour as u64 * 3_600_000
        + c.minute as u64 * 60_000
        + c.second as u64 * 1_000
        + c.millis as u64;
    days.checked_mul(DAY_MS)?
        .checked_add(in_day)
        .map(Timestamp::from_millis)
}

/// Render in Cisco `datetime msec year` style: `Oct 20 2010 04:12:33.123`.
pub fn render(ts: Timestamp) -> String {
    let c = to_calendar(ts);
    format!(
        "{} {} {} {:02}:{:02}:{:02}.{:03}",
        MONTHS[c.month as usize - 1],
        c.day,
        c.year,
        c.hour,
        c.minute,
        c.second,
        c.millis
    )
}

/// Parse the output of [`render`]. Returns `None` on any malformation;
/// the module docs list exactly what is accepted.
pub fn parse(text: &str) -> Option<Timestamp> {
    parse_bytes(text.as_bytes())
}

/// [`parse`] over wire bytes: the line parser's timestamp field goes
/// through here without a UTF-8 check or a `&str` in between.
///
/// A stamp in [`render`]'s shape is read by position; any other text
/// goes to the walk (the module docs list what it accepts). A collector
/// archive holds nothing but rendered stamps, so the walk is the path of
/// damaged and hand-written lines only. On a 2-vCPU machine the
/// positional read took 33–35 ns a stamp and the walk 86–90 over the
/// same 200,000 rendered stamps (PERFORMANCE.md, "The archive parse owns
/// its events where it classifies them").
pub fn parse_bytes(text: &[u8]) -> Option<Timestamp> {
    match by_position(text) {
        Some(read) => read,
        None => walk(text),
    }
}

/// A stamp in [`render`]'s exact shape, read by position: `None` if
/// `text` is not in that shape, else the reading, which is the walk's
/// (the same fields, so [`from_calendar`] rejects the same ranges).
fn by_position(text: &[u8]) -> Option<Option<Timestamp>> {
    let digit = |b: u8| b.is_ascii_digit().then(|| b - b'0');
    let (day, rest) = match *text {
        [_, _, _, b' ', d, ref rest @ ..] if rest.len() == 18 => (digit(d)?, rest),
        [_, _, _, b' ', d1, d0, ref rest @ ..] if rest.len() == 18 => {
            (digit(d1)? * 10 + digit(d0)?, rest)
        }
        _ => return None,
    };
    let [b' ', y3, y2, y1, y0, b' ', h1, h0, b':', m1, m0, b':', s1, s0, b'.', ms2, ms1, ms0] =
        *rest
    else {
        return None;
    };
    let two = |hi, lo| Some(digit(hi)? * 10 + digit(lo)?);
    let year = [y3, y2, y1, y0]
        .into_iter()
        .try_fold(0u32, |n, b| Some(n * 10 + u32::from(digit(b)?)))?;
    let millis = [ms2, ms1, ms0]
        .into_iter()
        .try_fold(0u16, |n, b| Some(n * 10 + u16::from(digit(b)?)))?;
    let month = match [text[0], text[1], text[2]] {
        [b'J', b'a', b'n'] => 1,
        [b'F', b'e', b'b'] => 2,
        [b'M', b'a', b'r'] => 3,
        [b'A', b'p', b'r'] => 4,
        [b'M', b'a', b'y'] => 5,
        [b'J', b'u', b'n'] => 6,
        [b'J', b'u', b'l'] => 7,
        [b'A', b'u', b'g'] => 8,
        [b'S', b'e', b'p'] => 9,
        [b'O', b'c', b't'] => 10,
        [b'N', b'o', b'v'] => 11,
        [b'D', b'e', b'c'] => 12,
        _ => return None,
    };
    Some(from_calendar(&CalTime {
        year,
        month,
        day,
        hour: two(h1, h0)?,
        minute: two(m1, m0)?,
        second: two(s1, s0)?,
        millis,
    }))
}

/// The general reader: one pass, left to right; each step names the only
/// byte that may follow it, which is what makes the field splits of the
/// module docs implicit.
fn walk(text: &[u8]) -> Option<Timestamp> {
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

/// Decode an unsigned decimal exactly as `str::parse::<u64>` would: an
/// optional leading `+`, then one or more ASCII digits and nothing else;
/// `None` on overflow. Narrower integer types are this plus a range check
/// at the caller.
pub(crate) fn parse_uint(text: &[u8]) -> Option<u64> {
    match leading_uint(text)? {
        (n, []) => Some(n),
        _ => None,
    }
}

/// The number `text` starts with, as [`parse_uint`] reads one, and what
/// follows its last digit.
pub(crate) fn leading_uint(text: &[u8]) -> Option<(u64, &[u8])> {
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

/// Byte length of the `White_Space` character `text` starts with, 0 if it
/// starts with anything else. Matching whole encodings means a match is
/// always a well-formed character, and the lead bytes here are never
/// continuation bytes, so on valid UTF-8 this is `char::is_whitespace`.
/// Every other byte ≥ 0x80 is left for a field decoder to reject, which
/// is also what rejects text that is not UTF-8.
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

/// The separator between two fields: at least one whitespace character.
fn gap(text: &[u8]) -> Option<&[u8]> {
    let rest = skip_whitespace(text);
    (rest.len() < text.len()).then_some(rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_topology::time::Duration;

    #[test]
    fn epoch_renders_as_study_start() {
        assert_eq!(render(Timestamp::EPOCH), "Oct 20 2010 00:00:00.000");
    }

    #[test]
    fn crosses_month_and_year_boundaries() {
        // 12 days later: Nov 1 2010.
        let t = Timestamp::EPOCH + Duration::from_days(12);
        assert_eq!(render(t), "Nov 1 2010 00:00:00.000");
        // 73 days later: Jan 1 2011 (12 + 30 + 31 = 73).
        let t = Timestamp::EPOCH + Duration::from_days(73);
        assert_eq!(render(t), "Jan 1 2011 00:00:00.000");
    }

    #[test]
    fn end_of_study_period() {
        // Paper's period ends Nov 11 2011: Oct 20 2010 + 387 days.
        let t = Timestamp::EPOCH + Duration::from_days(387);
        assert_eq!(render(t), "Nov 11 2011 00:00:00.000");
    }

    #[test]
    fn round_trip_across_two_years() {
        for days in [0u64, 1, 11, 12, 45, 72, 73, 100, 200, 365, 366, 389, 500] {
            for extra_ms in [0u64, 1, 59_999, 86_399_999] {
                let t =
                    Timestamp::EPOCH + Duration::from_days(days) + Duration::from_millis(extra_ms);
                let text = render(t);
                assert_eq!(parse(&text), Some(t), "failed for {text}");
            }
        }
    }

    #[test]
    fn leap_year_2012_handled() {
        // 2012 is a leap year; Feb 29 2012 exists (day 497 from epoch).
        // Oct 20 2010 -> Feb 29 2012: 73 (to Jan 1 2011) + 365 (to Jan 1 2012) + 31 + 28 = 497.
        let t = Timestamp::EPOCH + Duration::from_days(497);
        assert_eq!(render(t), "Feb 29 2012 00:00:00.000");
        assert_eq!(parse("Feb 29 2012 00:00:00.000"), Some(t));
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("Oct 20 2010"), None);
        assert_eq!(parse("Foo 20 2010 00:00:00.000"), None);
        assert_eq!(parse("Oct 32 2010 00:00:00.000"), None);
        assert_eq!(parse("Oct 20 2010 25:00:00.000"), None);
        assert_eq!(parse("Oct 20 2010 00:00:00.00"), None);
        assert_eq!(parse("Oct 19 2010 00:00:00.000"), None, "before epoch");
        assert_eq!(parse("Feb 29 2011 00:00:00.000"), None, "not a leap year");
    }
}
