//! Parser recovering structured [`LinkEvent`]s from raw syslog lines.
//!
//! The paper's pipeline receives *"the subset of these messages that
//! pertain to the link, link protocol, and IS-IS routing protocol"*
//! (§3.3). Production logs contain plenty of other mnemonics, so the
//! parser distinguishes three outcomes: a structured link-state event, a
//! recognizable-but-irrelevant message, and garbage.
//!
//! # The walk
//!
//! A line is `<PRI>SEQ: HOST: TIMESTAMP: %BODY`, read left to right, and
//! a malformed one is counted under the *first* field that fails
//! ([`ParseError`]) — so a line nobody would study still reads as
//! `BadTimestamp` if its stamp is bad, and the chaos goldens count on it.
//! There are two implementations of the one grammar: [`classify_line`]
//! over `&str`, written with `str::split_once` and `str::parse` and kept
//! as the reference, and [`parse_bytes`] over `&[u8]`, which is what the
//! collector runs ([`parse_archive_stats_bytes`]): plain byte searches,
//! one integer reader, no allocation, no `&str` built for a field that is
//! only ever checked. `tests/fuzz_parse.rs` holds them equal.
//!
//! Field by field, both accept exactly:
//!
//! * `PRI` — the text between `<` and the first `>`, a `u8` as
//!   `str::parse` reads one (optional `+`, ASCII digits, any number of
//!   leading zeros);
//! * `SEQ` — up to the first `": "`, a `u64` read the same way;
//! * `HOST` — up to the next `": "`, any text (valid UTF-8);
//! * `TIMESTAMP` — up to the first `": %"`, whatever
//!   [`caltime::parse_bytes`] accepts: month name, day, year and
//!   `H:M:S.mmm` separated by runs of Unicode whitespace, leading and
//!   trailing runs allowed; `Jan`…`Dec` case-sensitive; each number an
//!   optional `+` and any count of ASCII digits; the millisecond part
//!   exactly three bytes; a real calendar instant at or after Oct 20
//!   2010 whose millisecond count fits a `u64` (the [`caltime`] module
//!   docs give the full list);
//! * `BODY` — one of the four studied mnemonics with its exact payload
//!   grammar, else anything whose text before the first `:` looks like
//!   `FACILITY-SEVERITY-NAME` with a `u8` severity ([`Parsed::Irrelevant`]).

use crate::caltime::{self, leading_uint, parse_uint};
use crate::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
use faultline_topology::interface::InterfaceName;
use faultline_topology::router::RouterOs;
use faultline_topology::time::Timestamp;
use serde::{Deserialize, Serialize};

/// Outcome of parsing one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A link-state message the study uses.
    Event(SyslogMessage),
    /// Well-formed syslog, but not one of the studied mnemonics.
    Irrelevant,
    /// Not parseable as a syslog line.
    Garbage,
}

/// Why a line could not be parsed. Real collection paths truncate,
/// corrupt, and interleave lines; the taxonomy makes each failure mode
/// countable instead of collapsing everything into one "garbage" bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParseError {
    /// No `<PRI>` prefix (or the closing `>` is missing).
    MissingPri,
    /// The `<PRI>` field is present but not a valid priority octet.
    BadPri,
    /// The per-router sequence number is missing or not numeric.
    BadSeq,
    /// The `HOST: ` field separator never appears.
    MissingHost,
    /// The line ends before the `": %"` timestamp/body separator —
    /// the signature of mid-line truncation.
    MissingBody,
    /// The timestamp text does not parse as a calendar stamp.
    BadTimestamp,
    /// A studied mnemonic whose payload structure is mangled.
    MalformedBody,
    /// A body with no plausible `FAC-SEV-MNEMONIC` shape at all.
    UnrecognizedBody,
}

/// Typed outcome of parsing one line: total over all inputs, never
/// panicking. [`Parsed`] is the coarse legacy view of this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// A link-state message the study uses.
    Event(SyslogMessage),
    /// Well-formed syslog, but not one of the studied mnemonics.
    Irrelevant,
    /// Not parseable; the error says which part failed first.
    Malformed(ParseError),
}

/// Borrowed view of [`LinkEventKind`]: the neighbor hostname points into
/// the input buffer instead of owning a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEventKindRef<'a> {
    /// IS-IS adjacency change.
    IsisAdjacency {
        /// Hostname of the adjacent router, borrowed from the input.
        neighbor: &'a str,
        /// Why the adjacency changed.
        detail: AdjChangeDetail,
    },
    /// Physical interface state (`%LINK-3-UPDOWN`).
    Link,
    /// Line protocol state (`%LINEPROTO-5-UPDOWN`).
    LineProtocol,
}

impl LinkEventKindRef<'_> {
    /// Convert to the owning [`LinkEventKind`], allocating the neighbor
    /// hostname once, as its shared `Arc<str>`.
    pub fn to_owned(&self) -> LinkEventKind {
        match *self {
            LinkEventKindRef::IsisAdjacency { neighbor, detail } => LinkEventKind::IsisAdjacency {
                neighbor: neighbor.into(),
                detail,
            },
            LinkEventKindRef::Link => LinkEventKind::Link,
            LinkEventKindRef::LineProtocol => LinkEventKind::LineProtocol,
        }
    }
}

/// Borrowed view of [`SyslogMessage`], produced by [`parse_bytes`]: every
/// textual field is a `&str` slice of the input buffer, so parsing a line
/// performs **zero heap allocations**.
///
/// The interface field holds the text exactly as it appeared on the wire
/// (possibly in short form like `Te0/0/0/5`); [`SyslogMessageRef::to_owned`]
/// applies [`InterfaceName::expand`] so the owned form matches what
/// [`classify_line`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyslogMessageRef<'a> {
    /// Per-router sequence number.
    pub seq: u64,
    /// Router-local timestamp.
    pub at: Timestamp,
    /// Reporting router's hostname, borrowed from the input.
    pub host: &'a str,
    /// Local interface text as written on the wire (not yet expanded).
    pub interface: &'a str,
    /// Which message family.
    pub kind: LinkEventKindRef<'a>,
    /// New state: `true` = Up.
    pub up: bool,
    /// OS family of the reporting router.
    pub os: RouterOs,
}

impl SyslogMessageRef<'_> {
    /// Convert to the owning [`SyslogMessage`]. The result is identical to
    /// what [`classify_line`] produces for the same line (interface short
    /// forms are expanded here).
    ///
    /// Each string is built straight from the borrowed bytes into its
    /// `Arc<str>`: one allocation for the host, one for the interface
    /// (expansion included, see [`InterfaceName::expand`]) and one for an
    /// adjacency's neighbor, with no intermediate `String`.
    pub fn to_owned(&self) -> SyslogMessage {
        SyslogMessage {
            seq: self.seq,
            event: LinkEvent {
                at: self.at,
                host: self.host.into(),
                interface: InterfaceName::expand(self.interface),
                kind: self.kind.to_owned(),
                up: self.up,
            },
            os: self.os,
        }
    }
}

/// Borrowed analogue of [`ParseOutcome`], returned by [`parse_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseOutcomeRef<'a> {
    /// A link-state message the study uses, borrowing from the input.
    Event(SyslogMessageRef<'a>),
    /// Well-formed syslog, but not one of the studied mnemonics.
    Irrelevant,
    /// Not parseable; the error says which part failed first.
    Malformed(ParseError),
}

impl ParseOutcomeRef<'_> {
    /// Convert to the owning [`ParseOutcome`]. For any valid-UTF-8 input,
    /// `parse_bytes(line).to_owned() == classify_line(line)` — the
    /// differential tests in `tests/fuzz_parse.rs` enforce this.
    pub fn to_owned(&self) -> ParseOutcome {
        match self {
            ParseOutcomeRef::Event(m) => ParseOutcome::Event(m.to_owned()),
            ParseOutcomeRef::Irrelevant => ParseOutcome::Irrelevant,
            ParseOutcomeRef::Malformed(e) => ParseOutcome::Malformed(*e),
        }
    }
}

/// Per-category parse accounting over an archive. The invariant
/// [`ParseStats::is_balanced`] checks — every line lands in exactly one
/// bucket — is what the chaos harness asserts to prove no input is
/// silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseStats {
    /// Lines offered to the parser.
    pub lines: u64,
    /// Lines parsed into studied link-state events.
    pub events: u64,
    /// Well-formed lines with non-studied mnemonics.
    pub irrelevant: u64,
    /// Lines rejected; the fields below break this down by cause.
    pub malformed: u64,
    /// [`ParseError::MissingPri`] count.
    pub missing_pri: u64,
    /// [`ParseError::BadPri`] count.
    pub bad_pri: u64,
    /// [`ParseError::BadSeq`] count.
    pub bad_seq: u64,
    /// [`ParseError::MissingHost`] count.
    pub missing_host: u64,
    /// [`ParseError::MissingBody`] count.
    pub missing_body: u64,
    /// [`ParseError::BadTimestamp`] count.
    pub bad_timestamp: u64,
    /// [`ParseError::MalformedBody`] count.
    pub malformed_body: u64,
    /// [`ParseError::UnrecognizedBody`] count.
    pub unrecognized_body: u64,
}

impl ParseStats {
    /// Account for one classification.
    pub fn note(&mut self, outcome: &ParseOutcome) {
        match outcome {
            ParseOutcome::Event(_) => self.tally(Ok(true)),
            ParseOutcome::Irrelevant => self.tally(Ok(false)),
            ParseOutcome::Malformed(e) => self.tally(Err(*e)),
        }
    }

    /// Account for one classification straight from [`parse_bytes`]'s
    /// borrowed outcome: the same counts as [`ParseStats::note`] on its
    /// owned form, without building one.
    pub fn note_ref(&mut self, outcome: &ParseOutcomeRef<'_>) {
        match outcome {
            ParseOutcomeRef::Event(_) => self.tally(Ok(true)),
            ParseOutcomeRef::Irrelevant => self.tally(Ok(false)),
            ParseOutcomeRef::Malformed(e) => self.tally(Err(*e)),
        }
    }

    /// One line: `Ok(is_event)` for a well-formed one, else the cause.
    fn tally(&mut self, line: Result<bool, ParseError>) {
        self.lines += 1;
        match line {
            Ok(true) => self.events += 1,
            Ok(false) => self.irrelevant += 1,
            Err(e) => {
                self.malformed += 1;
                match e {
                    ParseError::MissingPri => self.missing_pri += 1,
                    ParseError::BadPri => self.bad_pri += 1,
                    ParseError::BadSeq => self.bad_seq += 1,
                    ParseError::MissingHost => self.missing_host += 1,
                    ParseError::MissingBody => self.missing_body += 1,
                    ParseError::BadTimestamp => self.bad_timestamp += 1,
                    ParseError::MalformedBody => self.malformed_body += 1,
                    ParseError::UnrecognizedBody => self.unrecognized_body += 1,
                }
            }
        }
    }

    /// Fold another archive's counts into these: the stats of two
    /// chunks, added, are the stats of the two parsed as one archive.
    pub fn add(&mut self, other: &ParseStats) {
        self.lines += other.lines;
        self.events += other.events;
        self.irrelevant += other.irrelevant;
        self.malformed += other.malformed;
        self.missing_pri += other.missing_pri;
        self.bad_pri += other.bad_pri;
        self.bad_seq += other.bad_seq;
        self.missing_host += other.missing_host;
        self.missing_body += other.missing_body;
        self.bad_timestamp += other.bad_timestamp;
        self.malformed_body += other.malformed_body;
        self.unrecognized_body += other.unrecognized_body;
    }

    /// True when every line is accounted for exactly once: the three
    /// coarse buckets sum to `lines`, and the per-error counters sum to
    /// `malformed`.
    pub fn is_balanced(&self) -> bool {
        self.events + self.irrelevant + self.malformed == self.lines
            && self.missing_pri
                + self.bad_pri
                + self.bad_seq
                + self.missing_host
                + self.missing_body
                + self.bad_timestamp
                + self.malformed_body
                + self.unrecognized_body
                == self.malformed
    }
}

/// Parse one raw line as produced by [`SyslogMessage::render`].
///
/// # Examples
///
/// A rendered message survives the round-trip back through the parser:
///
/// ```
/// use faultline_syslog::message::{AdjChangeDetail, LinkEvent, LinkEventKind, SyslogMessage};
/// use faultline_syslog::parse::{parse_line, Parsed};
/// use faultline_topology::interface::InterfaceName;
/// use faultline_topology::router::RouterOs;
/// use faultline_topology::time::Timestamp;
///
/// let msg = SyslogMessage {
///     seq: 7,
///     event: LinkEvent {
///         at: Timestamp::from_secs(86_400 + 3_723),
///         host: "lax-agg-01".into(),
///         interface: InterfaceName::ten_gig(3),
///         kind: LinkEventKind::IsisAdjacency {
///             neighbor: "sac-agg-01".into(),
///             detail: AdjChangeDetail::HoldTimeExpired,
///         },
///         up: false,
///     },
///     os: RouterOs::Ios,
/// };
///
/// match parse_line(&msg.render()) {
///     Parsed::Event(back) => assert_eq!(back, msg),
///     other => panic!("expected an event, got {other:?}"),
/// }
/// ```
pub fn parse_line(line: &str) -> Parsed {
    match classify_line(line) {
        ParseOutcome::Event(m) => Parsed::Event(m),
        ParseOutcome::Irrelevant => Parsed::Irrelevant,
        ParseOutcome::Malformed(_) => Parsed::Garbage,
    }
}

/// Parse one raw line into the typed [`ParseOutcome`] taxonomy. Total
/// over arbitrary input: every `&str` classifies as exactly one of
/// event / irrelevant / malformed-with-cause, and nothing panics.
pub fn classify_line(line: &str) -> ParseOutcome {
    // <PRI>SEQ: HOST: TIMESTAMP: %BODY
    let Some(rest) = line.strip_prefix('<') else {
        return ParseOutcome::Malformed(ParseError::MissingPri);
    };
    let Some((pri, rest)) = rest.split_once('>') else {
        return ParseOutcome::Malformed(ParseError::MissingPri);
    };
    if pri.parse::<u8>().is_err() {
        return ParseOutcome::Malformed(ParseError::BadPri);
    }
    let Some((seq, rest)) = rest.split_once(": ") else {
        return ParseOutcome::Malformed(ParseError::BadSeq);
    };
    let Ok(seq) = seq.parse::<u64>() else {
        return ParseOutcome::Malformed(ParseError::BadSeq);
    };
    let Some((host, rest)) = rest.split_once(": ") else {
        return ParseOutcome::Malformed(ParseError::MissingHost);
    };
    // ": %" separates the timestamp from the body in every rendered
    // message (the HH:MM:SS colons are never followed by " %").
    let (ts_text, body) = match rest.split_once(": %") {
        Some((t, b)) => (t, b),
        None => return ParseOutcome::Malformed(ParseError::MissingBody),
    };
    let Some(at) = caltime::parse(ts_text) else {
        return ParseOutcome::Malformed(ParseError::BadTimestamp);
    };

    parse_body(at, host, body, seq)
}

fn parse_body(
    at: faultline_topology::time::Timestamp,
    host: &str,
    body: &str,
    seq: u64,
) -> ParseOutcome {
    if let Some(rest) = body.strip_prefix("CLNS-5-ADJCHANGE: ISIS: Adjacency to ") {
        return parse_adjchange(at, host, rest, seq, RouterOs::Ios);
    }
    if let Some(rest) = body.strip_prefix("ROUTING-ISIS-4-ADJCHANGE: Adjacency to ") {
        return parse_adjchange(at, host, rest, seq, RouterOs::IosXr);
    }
    if let Some(rest) = body.strip_prefix("LINK-3-UPDOWN: Interface ") {
        // "IFACE, changed state to Down"
        let Some((iface, state)) = rest.split_once(", changed state to ") else {
            return ParseOutcome::Malformed(ParseError::MalformedBody);
        };
        let up = match state {
            "Up" | "up" => true,
            "Down" | "down" => false,
            _ => return ParseOutcome::Malformed(ParseError::MalformedBody),
        };
        return ParseOutcome::Event(SyslogMessage {
            seq,
            event: LinkEvent {
                at,
                host: host.into(),
                interface: InterfaceName::expand(iface),
                kind: LinkEventKind::Link,
                up,
            },
            os: RouterOs::Ios,
        });
    }
    if let Some(rest) = body.strip_prefix("LINEPROTO-5-UPDOWN: Line protocol on Interface ") {
        let Some((iface, state)) = rest.split_once(", changed state to ") else {
            return ParseOutcome::Malformed(ParseError::MalformedBody);
        };
        let up = match state {
            "Up" | "up" => true,
            "Down" | "down" => false,
            _ => return ParseOutcome::Malformed(ParseError::MalformedBody),
        };
        return ParseOutcome::Event(SyslogMessage {
            seq,
            event: LinkEvent {
                at,
                host: host.into(),
                interface: InterfaceName::expand(iface),
                kind: LinkEventKind::LineProtocol,
                up,
            },
            os: RouterOs::Ios,
        });
    }
    // Anything else with a plausible mnemonic shape is irrelevant, not
    // garbage.
    if body.split(':').next().is_some_and(|m| {
        let mut parts = m.split('-');
        matches!(
            (parts.next(), parts.next(), parts.next()),
            (Some(f), Some(s), Some(_)) if !f.is_empty() && s.parse::<u8>().is_ok()
        )
    }) {
        return ParseOutcome::Irrelevant;
    }
    ParseOutcome::Malformed(ParseError::UnrecognizedBody)
}

fn parse_adjchange(
    at: faultline_topology::time::Timestamp,
    host: &str,
    rest: &str,
    seq: u64,
    os: RouterOs,
) -> ParseOutcome {
    // IOS:    "NEIGHBOR (IFACE) Up, detail"
    // IOS XR: "NEIGHBOR (IFACE) (L2) Up, detail"
    let Some((neighbor, rest)) = rest.split_once(" (") else {
        return ParseOutcome::Malformed(ParseError::MalformedBody);
    };
    let Some((iface, rest)) = rest.split_once(") ") else {
        return ParseOutcome::Malformed(ParseError::MalformedBody);
    };
    let rest = match os {
        RouterOs::IosXr => match rest.strip_prefix("(L2) ") {
            Some(r) => r,
            None => return ParseOutcome::Malformed(ParseError::MalformedBody),
        },
        RouterOs::Ios => rest,
    };
    let Some((state, detail)) = rest.split_once(", ") else {
        return ParseOutcome::Malformed(ParseError::MalformedBody);
    };
    let up = match state {
        "Up" => true,
        "Down" => false,
        _ => return ParseOutcome::Malformed(ParseError::MalformedBody),
    };
    ParseOutcome::Event(SyslogMessage {
        seq,
        event: LinkEvent {
            at,
            host: host.into(),
            interface: InterfaceName::expand(iface),
            kind: LinkEventKind::IsisAdjacency {
                neighbor: neighbor.into(),
                detail: AdjChangeDetail::from_text(detail),
            },
            up,
        },
        os,
    })
}

/// Parse one raw line from its wire bytes without allocating.
///
/// This is the zero-copy twin of [`classify_line`]: it walks the same
/// `<PRI>SEQ: HOST: TIMESTAMP: %BODY` grammar over `&[u8]` and returns a
/// [`ParseOutcomeRef`] whose string fields borrow from `line`. Because
/// every grammar separator is ASCII, byte-wise splitting agrees exactly
/// with the `&str` splitting in [`classify_line`]; for any input that is
/// valid UTF-8, `parse_bytes(line).to_owned() == classify_line(line)`.
/// Numbers and the timestamp are decoded from the bytes directly; only
/// the fields an event hands back as `&str` are ever UTF-8-checked.
///
/// Inputs that are *not* valid UTF-8 are still classified totally: a field
/// whose bytes cannot be decoded reports the same [`ParseError`] that an
/// unparseable value of that field would (a non-UTF-8 sequence number is
/// [`ParseError::BadSeq`], a non-UTF-8 timestamp is
/// [`ParseError::BadTimestamp`], and so on). Nothing panics.
///
/// # Examples
///
/// ```
/// use faultline_syslog::parse::{classify_line, parse_bytes, ParseOutcomeRef};
///
/// let line = "<189>1: lax-agg-01: Oct 21 2010 00:00:00.000: \
///             %LINK-3-UPDOWN: Interface Te0/0/0/5, changed state to Down";
/// let ParseOutcomeRef::Event(m) = parse_bytes(line.as_bytes()) else {
///     panic!("expected an event");
/// };
/// assert_eq!(m.host, "lax-agg-01");
/// assert_eq!(m.interface, "Te0/0/0/5"); // borrowed: still in wire form
/// assert!(!m.up);
/// // The owned conversion matches the string-path parser exactly.
/// assert_eq!(
///     parse_bytes(line.as_bytes()).to_owned(),
///     classify_line(line),
/// );
/// ```
pub fn parse_bytes(line: &[u8]) -> ParseOutcomeRef<'_> {
    // <PRI>SEQ: HOST: TIMESTAMP: %BODY
    let Some(rest) = line.strip_prefix(b"<") else {
        return ParseOutcomeRef::Malformed(ParseError::MissingPri);
    };
    let rest = match leading_uint(rest) {
        Some((0..=255, [b'>', rest @ ..])) => rest,
        _ if rest.contains(&b'>') => return ParseOutcomeRef::Malformed(ParseError::BadPri),
        _ => return ParseOutcomeRef::Malformed(ParseError::MissingPri),
    };
    let Some((seq, [b':', b' ', rest @ ..])) = leading_uint(rest) else {
        return ParseOutcomeRef::Malformed(ParseError::BadSeq);
    };
    let Some((host, rest)) = split_once_bytes(rest, b": ") else {
        return ParseOutcomeRef::Malformed(ParseError::MissingHost);
    };
    let Ok(host) = std::str::from_utf8(host) else {
        return ParseOutcomeRef::Malformed(ParseError::MissingHost);
    };
    // ": %" separates the timestamp from the body in every rendered
    // message (the HH:MM:SS colons are never followed by " %").
    let Some((ts_text, body)) = split_once_bytes(rest, b": %") else {
        return ParseOutcomeRef::Malformed(ParseError::MissingBody);
    };
    let Some(at) = caltime::parse_bytes(ts_text) else {
        return ParseOutcomeRef::Malformed(ParseError::BadTimestamp);
    };

    parse_body_bytes(at, host, body, seq)
}

/// Byte-slice analogue of `str::split_once` for a non-empty ASCII needle
/// of constant length: scan for its *last* byte and check the ones before
/// it, which finds the same first occurrence and makes `": %"` one scan
/// (a stamp has three `:` and no `%`). On valid UTF-8 input this agrees
/// with `str::split_once` because an ASCII needle can never match
/// starting inside a multi-byte sequence.
fn split_once_bytes<'a, const N: usize>(
    haystack: &'a [u8],
    needle: &[u8; N],
) -> Option<(&'a [u8], &'a [u8])> {
    let (&last, head) = needle.split_last()?;
    let mut from = head.len();
    loop {
        let end = from + find_byte(haystack.get(from..)?, last)?;
        if haystack[..end].ends_with(head) {
            return Some((&haystack[..end - head.len()], &haystack[end + 1..]));
        }
        from = end + 1;
    }
}

/// Index of the first `byte` in `haystack`, eight bytes a step: XOR turns
/// a match into a zero byte, and `(x - 0x01…) & !x & 0x80…` is non-zero
/// exactly when `x` has one, its lowest set bit in the first of them.
fn find_byte(haystack: &[u8], byte: u8) -> Option<usize> {
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut rest = haystack;
    while let Some((chunk, tail)) = rest.split_first_chunk::<8>() {
        let x = u64::from_le_bytes(*chunk) ^ (LOW * byte as u64);
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(haystack.len() - rest.len() + zeros.trailing_zeros() as usize / 8);
        }
        rest = tail;
    }
    let at = rest.iter().position(|&b| b == byte)?;
    Some(haystack.len() - rest.len() + at)
}

fn parse_body_bytes<'a>(
    at: Timestamp,
    host: &'a str,
    body: &'a [u8],
    seq: u64,
) -> ParseOutcomeRef<'a> {
    // The mnemonic runs to the first ':'. The studied four are told apart
    // on it alone, so an irrelevant line pays one scan, not four prefix
    // compares; a studied mnemonic with another payload falls through.
    let mnemonic_end = find_byte(body, b':').unwrap_or(body.len());
    let (mnemonic, payload) = body.split_at(mnemonic_end);
    let studied = match mnemonic {
        b"CLNS-5-ADJCHANGE" => payload
            .strip_prefix(b": ISIS: Adjacency to ")
            .map(|rest| parse_adjchange_bytes(at, host, rest, seq, RouterOs::Ios)),
        b"ROUTING-ISIS-4-ADJCHANGE" => payload
            .strip_prefix(b": Adjacency to ")
            .map(|rest| parse_adjchange_bytes(at, host, rest, seq, RouterOs::IosXr)),
        b"LINK-3-UPDOWN" => payload
            .strip_prefix(b": Interface ")
            .map(|rest| parse_updown_bytes(at, host, rest, seq, LinkEventKindRef::Link)),
        b"LINEPROTO-5-UPDOWN" => payload
            .strip_prefix(b": Line protocol on Interface ")
            .map(|rest| parse_updown_bytes(at, host, rest, seq, LinkEventKindRef::LineProtocol)),
        _ => None,
    };
    if let Some(outcome) = studied {
        return outcome;
    }
    // Anything else with a plausible mnemonic shape is irrelevant, not
    // garbage: `FACILITY-SEVERITY-` with something, anything, after it.
    if let Some((facility, rest)) = split_once_bytes(mnemonic, b"-") {
        if let Some((severity, _)) = split_once_bytes(rest, b"-") {
            let is_u8 = parse_uint(severity).is_some_and(|n| n <= u8::MAX as u64);
            if !facility.is_empty() && is_u8 {
                return ParseOutcomeRef::Irrelevant;
            }
        }
    }
    ParseOutcomeRef::Malformed(ParseError::UnrecognizedBody)
}

/// Parse the shared `"IFACE, changed state to STATE"` tail of the two
/// UPDOWN families.
fn parse_updown_bytes<'a>(
    at: Timestamp,
    host: &'a str,
    rest: &'a [u8],
    seq: u64,
    kind: LinkEventKindRef<'a>,
) -> ParseOutcomeRef<'a> {
    let Some((iface, state)) = split_once_bytes(rest, b", changed state to ") else {
        return ParseOutcomeRef::Malformed(ParseError::MalformedBody);
    };
    let up = match state {
        b"Up" | b"up" => true,
        b"Down" | b"down" => false,
        _ => return ParseOutcomeRef::Malformed(ParseError::MalformedBody),
    };
    let Ok(interface) = std::str::from_utf8(iface) else {
        return ParseOutcomeRef::Malformed(ParseError::MalformedBody);
    };
    ParseOutcomeRef::Event(SyslogMessageRef {
        seq,
        at,
        host,
        interface,
        kind,
        up,
        os: RouterOs::Ios,
    })
}

fn parse_adjchange_bytes<'a>(
    at: Timestamp,
    host: &'a str,
    rest: &'a [u8],
    seq: u64,
    os: RouterOs,
) -> ParseOutcomeRef<'a> {
    // IOS:    "NEIGHBOR (IFACE) Up, detail"
    // IOS XR: "NEIGHBOR (IFACE) (L2) Up, detail"
    let Some((neighbor, rest)) = split_once_bytes(rest, b" (") else {
        return ParseOutcomeRef::Malformed(ParseError::MalformedBody);
    };
    let Some((iface, rest)) = split_once_bytes(rest, b") ") else {
        return ParseOutcomeRef::Malformed(ParseError::MalformedBody);
    };
    let rest = match os {
        RouterOs::IosXr => match rest.strip_prefix(b"(L2) ") {
            Some(r) => r,
            None => return ParseOutcomeRef::Malformed(ParseError::MalformedBody),
        },
        RouterOs::Ios => rest,
    };
    let Some((state, detail)) = split_once_bytes(rest, b", ") else {
        return ParseOutcomeRef::Malformed(ParseError::MalformedBody);
    };
    let up = match state {
        b"Up" => true,
        b"Down" => false,
        _ => return ParseOutcomeRef::Malformed(ParseError::MalformedBody),
    };
    let (Ok(neighbor), Ok(iface), Ok(detail)) = (
        std::str::from_utf8(neighbor),
        std::str::from_utf8(iface),
        std::str::from_utf8(detail),
    ) else {
        return ParseOutcomeRef::Malformed(ParseError::MalformedBody);
    };
    ParseOutcomeRef::Event(SyslogMessageRef {
        seq,
        at,
        host,
        interface: iface,
        kind: LinkEventKindRef::IsisAdjacency {
            neighbor,
            detail: AdjChangeDetail::from_text(detail),
        },
        up,
        os,
    })
}

/// Parse a whole archive of lines, dropping everything that is not a
/// studied link-state event. Returns `(events, irrelevant, garbage)`
/// counts alongside the events.
pub fn parse_archive<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> (Vec<SyslogMessage>, u64, u64) {
    let (events, stats) = parse_archive_stats(lines);
    (events, stats.irrelevant, stats.malformed)
}

/// Parse a whole archive of lines with full per-cause accounting.
pub fn parse_archive_stats<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> (Vec<SyslogMessage>, ParseStats) {
    let mut events = Vec::new();
    let mut stats = ParseStats::default();
    for line in lines {
        let outcome = classify_line(line);
        stats.note(&outcome);
        if let ParseOutcome::Event(m) = outcome {
            events.push(m);
        }
    }
    (events, stats)
}

/// Parse a whole archive from raw line *bytes* with full per-cause
/// accounting, on the zero-copy [`parse_bytes`] fast path: a line only
/// touches the heap if it classifies as a studied event (for the owned
/// conversion). For valid-UTF-8 archives the result is identical to
/// [`parse_archive_stats`]; non-UTF-8 lines are counted under the
/// [`ParseError`] of the field that failed to decode instead of being
/// dropped.
///
/// # Examples
///
/// ```
/// use faultline_syslog::parse::parse_archive_stats_bytes;
///
/// let lines: [&[u8]; 2] = [
///     b"<189>1: lax-agg-01: Oct 21 2010 00:00:00.000: \
///       %LINK-3-UPDOWN: Interface Gi0/2, changed state to Down",
///     b"not syslog \xff at all",
/// ];
/// let (events, stats) = parse_archive_stats_bytes(lines);
/// assert_eq!(events.len(), 1);
/// assert_eq!(stats.lines, 2);
/// assert_eq!(stats.malformed, 1);
/// assert!(stats.is_balanced());
/// ```
pub fn parse_archive_stats_bytes<'a>(
    lines: impl IntoIterator<Item = &'a [u8]>,
) -> (Vec<SyslogMessage>, ParseStats) {
    let mut events = Vec::new();
    let mut stats = ParseStats::default();
    for line in lines {
        let outcome = parse_bytes(line);
        stats.note_ref(&outcome);
        if let ParseOutcomeRef::Event(m) = outcome {
            events.push(m.to_owned());
        }
    }
    (events, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_topology::time::Timestamp;

    fn sample(os: RouterOs, kind: LinkEventKind, up: bool) -> SyslogMessage {
        SyslogMessage {
            seq: 42,
            event: LinkEvent {
                at: Timestamp::from_millis(86_400_000 + 3_723_456),
                host: "lax-agg-01".into(),
                interface: InterfaceName::ten_gig(5),
                kind,
                up,
            },
            os,
        }
    }

    #[test]
    fn round_trips_every_message_family() {
        let cases = vec![
            sample(
                RouterOs::Ios,
                LinkEventKind::IsisAdjacency {
                    neighbor: "sac-agg-01".into(),
                    detail: AdjChangeDetail::HoldTimeExpired,
                },
                false,
            ),
            sample(
                RouterOs::IosXr,
                LinkEventKind::IsisAdjacency {
                    neighbor: "cust001-gw1".into(),
                    detail: AdjChangeDetail::NewAdjacency,
                },
                true,
            ),
            sample(RouterOs::Ios, LinkEventKind::Link, false),
            sample(RouterOs::Ios, LinkEventKind::LineProtocol, true),
        ];
        for m in cases {
            let line = m.render();
            match parse_line(&line) {
                Parsed::Event(back) => assert_eq!(back, m, "line: {line}"),
                other => panic!("expected event for {line}, got {other:?}"),
            }
        }
    }

    #[test]
    fn irrelevant_mnemonics_classified() {
        let line = "<189>7: lax-agg-01: Oct 21 2010 01:02:03.004: %SYS-5-CONFIG_I: Configured from console";
        assert_eq!(parse_line(line), Parsed::Irrelevant);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(parse_line(""), Parsed::Garbage);
        assert_eq!(parse_line("not syslog at all"), Parsed::Garbage);
        assert_eq!(
            parse_line("<abc>1: h: Oct 21 2010 00:00:00.000: %LINK-3-UPDOWN: x"),
            Parsed::Garbage
        );
        assert_eq!(
            parse_line(
                "<189>1: h: BADTIME: %LINK-3-UPDOWN: Interface Gi0/0, changed state to Down"
            ),
            Parsed::Garbage
        );
        // ADJCHANGE with mangled structure.
        assert_eq!(
            parse_line(
                "<189>1: h: Oct 21 2010 00:00:00.000: %CLNS-5-ADJCHANGE: ISIS: Adjacency to x"
            ),
            Parsed::Garbage
        );
    }

    #[test]
    fn archive_parse_counts() {
        let m = sample(RouterOs::Ios, LinkEventKind::Link, true);
        let line = m.render();
        let lines = vec![
            line.as_str(),
            "<189>7: h: Oct 21 2010 01:02:03.004: %SYS-5-CONFIG_I: Configured",
            "garbage",
        ];
        let (events, irrelevant, garbage) = parse_archive(lines);
        assert_eq!(events.len(), 1);
        assert_eq!(irrelevant, 1);
        assert_eq!(garbage, 1);
    }

    #[test]
    fn taxonomy_names_the_first_failing_field() {
        use ParseError::*;
        let cases = [
            ("", MissingPri),
            ("no angle bracket", MissingPri),
            ("<189 unterminated", MissingPri),
            ("<abc>1: h: Oct 21 2010 00:00:00.000: %X-1-Y: z", BadPri),
            ("<189>notanum: h: t: %X-1-Y: z", BadSeq),
            ("<189>1", BadSeq),
            ("<189>1: host-without-sep", MissingHost),
            ("<189>1: h: Oct 21 2010 00:00:0", MissingBody),
            ("<189>1: h: BADTIME: %X-1-Y: z", BadTimestamp),
            (
                "<189>1: h: Oct 21 2010 00:00:00.000: %LINK-3-UPDOWN: Interface Gi0/0, changed",
                MalformedBody,
            ),
            (
                "<189>1: h: Oct 21 2010 00:00:00.000: %no mnemonic here",
                UnrecognizedBody,
            ),
        ];
        for (line, want) in cases {
            assert_eq!(
                classify_line(line),
                ParseOutcome::Malformed(want),
                "line: {line:?}"
            );
        }
    }

    #[test]
    fn archive_stats_balance() {
        let m = sample(RouterOs::Ios, LinkEventKind::Link, true);
        let line = m.render();
        let lines = vec![
            line.as_str(),
            "<189>7: h: Oct 21 2010 01:02:03.004: %SYS-5-CONFIG_I: Configured",
            "garbage",
            "<189>1: h: Oct 21 2010 00:00:0",
        ];
        let (events, stats) = parse_archive_stats(lines);
        assert_eq!(events.len(), 1);
        assert_eq!(stats.lines, 4);
        assert_eq!(stats.irrelevant, 1);
        assert_eq!(stats.malformed, 2);
        assert_eq!(stats.missing_pri, 1);
        assert_eq!(stats.missing_body, 1);
        assert!(stats.is_balanced());
    }

    #[test]
    fn stats_add_equals_one_pass_over_both_parts() {
        let m = sample(RouterOs::IosXr, LinkEventKind::LineProtocol, false);
        let line = m.render();
        let lines = [
            line.as_str(),
            "<189>7: h: Oct 21 2010 01:02:03.004: %SYS-5-CONFIG_I: Configured",
            "garbage",
            "<999>1: h: x",
            "<189>x: h",
            "<189>1: h: Oct 21 2010 00:00:0",
            "<189>1: h: Oct 99 2010 00:00:00.000: %LINK-3-UPDOWN: x",
            line.as_str(),
        ];
        let (_, whole) = parse_archive_stats(lines);
        for cut in 0..=lines.len() {
            let (_, mut sum) = parse_archive_stats(lines[..cut].iter().copied());
            let (_, tail) = parse_archive_stats(lines[cut..].iter().copied());
            sum.add(&tail);
            assert_eq!(sum, whole, "cut at {cut}");
            assert!(sum.is_balanced());
        }
        // Every counter is carried, each into its own field.
        let distinct = ParseStats {
            lines: 1,
            events: 2,
            irrelevant: 3,
            malformed: 4,
            missing_pri: 5,
            bad_pri: 6,
            bad_seq: 7,
            missing_host: 8,
            missing_body: 9,
            bad_timestamp: 10,
            malformed_body: 11,
            unrecognized_body: 12,
        };
        let mut sum = distinct;
        sum.add(&whole);
        assert_eq!(
            sum,
            ParseStats {
                lines: 1 + whole.lines,
                events: 2 + whole.events,
                irrelevant: 3 + whole.irrelevant,
                malformed: 4 + whole.malformed,
                missing_pri: 5 + whole.missing_pri,
                bad_pri: 6 + whole.bad_pri,
                bad_seq: 7 + whole.bad_seq,
                missing_host: 8 + whole.missing_host,
                missing_body: 9 + whole.missing_body,
                bad_timestamp: 10 + whole.bad_timestamp,
                malformed_body: 11 + whole.malformed_body,
                unrecognized_body: 12 + whole.unrecognized_body,
            }
        );
    }

    #[test]
    fn short_interface_names_expanded() {
        let line = "<189>1: h: Oct 21 2010 00:00:00.000: %LINK-3-UPDOWN: Interface Te0/0/0/5, changed state to Down";
        match parse_line(line) {
            Parsed::Event(m) => {
                assert_eq!(m.event.interface.as_str(), "TenGigE0/0/0/5");
            }
            other => panic!("{other:?}"),
        }
    }
}
