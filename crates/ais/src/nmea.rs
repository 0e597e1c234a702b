//! NMEA 0183 sentence framing for AIVDM/AIVDO.
//!
//! A sentence looks like `!AIVDM,2,1,3,B,<payload>,0*5C`: fragment count,
//! fragment number, sequential message id (for multi-fragment messages),
//! radio channel, armoured payload, fill bits, and a `*`-prefixed XOR
//! checksum over everything between `!` and `*`. Message type 5 payloads
//! exceed one sentence and arrive as two fragments; the [`Assembler`]
//! reassembles them. A [`Sentence`] borrows its payload from the line,
//! and the assembler joins fragments in buffers it keeps, so framing a
//! line allocates nothing once the assembler is warm.

use std::fmt::{self, Write as _};

/// Error for malformed NMEA sentences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NmeaError {
    /// Sentence doesn't start with `!AIVDM`/`!AIVDO` or lacks fields.
    Malformed(String),
    /// Checksum mismatch: `(expected, computed)`.
    Checksum(u8, u8),
    /// A numeric field failed to parse.
    BadField(&'static str),
}

impl fmt::Display for NmeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Malformed(s) => write!(f, "malformed NMEA sentence: {s:?}"),
            Self::Checksum(e, c) => write!(
                f,
                "checksum mismatch: sentence says {e:02X}, computed {c:02X}"
            ),
            Self::BadField(name) => write!(f, "unparseable field: {name}"),
        }
    }
}

impl std::error::Error for NmeaError {}

/// One parsed AIVDM sentence (possibly a fragment of a longer message),
/// borrowing its payload from the line it was parsed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sentence<'a> {
    /// Total fragments of this message (1 for single-sentence messages).
    pub fragments: u8,
    /// This fragment's 1-based number.
    pub fragment_no: u8,
    /// Sequential message id linking fragments (empty for single-fragment).
    pub message_id: Option<u8>,
    /// Radio channel (`A`/`B`), when present.
    pub channel: Option<char>,
    /// Armoured payload, a slice of the line.
    pub payload: &'a str,
    /// Pad bits in the last payload character.
    pub fill_bits: u8,
}

/// XOR checksum over the characters between `!` and `*`.
pub fn checksum(body: &str) -> u8 {
    scan(body.as_bytes()).0
}

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// The top bit of every byte of `w` that equals `b`, and no other bit
/// (the carry-free form: a `0x80` byte next to a match is not flagged).
fn bytes_equal(w: u64, b: u8) -> u64 {
    const LOW7: u64 = splat(0x7F);
    let x = w ^ splat(b);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The bytes of `body` past its last whole word, zero-padded to a word
/// (which changes neither a XOR nor a count of commas). A body of a word
/// or more has them loaded as its last eight bytes, shifted down.
fn tail_word(body: &[u8]) -> u64 {
    let tail = body.len() % 8;
    if tail == 0 {
        return 0;
    }
    match body.last_chunk::<8>() {
        Some(last) => u64::from_le_bytes(*last) >> (8 * (8 - tail)),
        None => body.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b)),
    }
}

/// XOR checksum and comma count of `body` in one pass, eight bytes a
/// step: the words are XORed together and folded to a byte at the end,
/// and each word's commas, one bit per byte, are added lane by lane. The
/// lanes are summed (into the top byte, by one multiply) every 31 words,
/// before their sum can pass 255.
fn scan(body: &[u8]) -> (u8, usize) {
    let sum_lanes = |lanes: u64| (lanes.wrapping_mul(splat(1)) >> 56) as usize;
    let (words, _) = body.as_chunks::<8>();
    let mut xor = 0u64;
    let mut commas = 0;
    for run in words.chunks(31) {
        let mut lanes = 0;
        for word in run {
            let w = u64::from_le_bytes(*word);
            xor ^= w;
            lanes += bytes_equal(w, b',') >> 7;
        }
        commas += sum_lanes(lanes);
    }
    let w = tail_word(body);
    xor ^= w;
    commas += sum_lanes(bytes_equal(w, b',') >> 7);
    let xor = xor ^ (xor >> 32);
    let xor = xor ^ (xor >> 16);
    ((xor ^ (xor >> 8)) as u8, commas)
}

/// Offsets of the first five commas of `body`, which has at least five.
/// The fields between them are short (`AIVDM,1,1,,A,`), so each is
/// found by looking on from the one before.
fn leading_commas(body: &[u8]) -> [usize; 5] {
    let mut leading = [0; 5];
    let mut from = 0;
    for comma in &mut leading {
        let next = body
            .get(from..)
            .and_then(|rest| rest.iter().position(|&b| b == b','));
        *comma = next.map_or(0, |at| from + at);
        from = *comma + 1;
    }
    leading
}

/// A numeric field that is not one digit, read as `str::parse` reads it
/// (which also takes `+1` and `01`).
#[cold]
fn parse_u8(field: &str, name: &'static str) -> Result<u8, NmeaError> {
    field.parse().map_err(|_| NmeaError::BadField(name))
}

/// The value of one hexadecimal digit.
fn hex_digit(b: u8) -> Option<u8> {
    char::from(b).to_digit(16).map(|d| d as u8)
}

impl<'a> Sentence<'a> {
    /// Parses a full `!AIVDM,...*CS` line (also accepts `!AIVDO`); the
    /// payload is a slice of `line`.
    ///
    /// One pass over the body computes the checksum and counts its commas
    /// eight bytes a step. The five leading commas are then found from the
    /// start and the last one from the end. One-digit fields and a
    /// two-digit checksum are read directly, anything longer as
    /// `str::parse` / `u8::from_str_radix` read it. Every input is
    /// accepted or refused, with the same error, as by a parser that goes
    /// byte by byte (`tests/nmea_props.rs` keeps one). Only the error
    /// paths allocate.
    pub fn parse(line: &'a str) -> Result<Sentence<'a>, NmeaError> {
        // `!` and an ASCII letter or digit are not whitespace, so a line
        // between them has nothing to trim.
        let bytes = line.as_bytes();
        let line = match (bytes.first(), bytes.last()) {
            (Some(b'!'), Some(last)) if last.is_ascii_alphanumeric() => line,
            _ => line.trim(),
        };
        let malformed = || NmeaError::Malformed(line.into());
        let rest = line.strip_prefix('!').ok_or_else(malformed)?;
        // `*` and two hex digits end nearly every line; otherwise the
        // checksum field is whatever follows the last `*`.
        let sealed = match rest.as_bytes() {
            [.., b'*', hi, lo] => hex_digit(*hi).zip(hex_digit(*lo)),
            _ => None,
        };
        let (body, expected) = match sealed {
            // `*` is one byte, so the cut is a character boundary.
            Some((hi, lo)) => (
                rest.get(..rest.len() - 3).unwrap_or_default(),
                (hi << 4) | lo,
            ),
            None => {
                let (body, cs_str) = rest.rsplit_once('*').ok_or_else(malformed)?;
                let expected = u8::from_str_radix(cs_str.trim(), 16)
                    .map_err(|_| NmeaError::BadField("checksum"))?;
                (body, expected)
            }
        };
        let (computed, commas) = scan(body.as_bytes());
        if expected != computed {
            return Err(NmeaError::Checksum(expected, computed));
        }
        if commas != 6 {
            return Err(malformed());
        }
        let [c1, c2, c3, c4, c5] = leading_commas(body.as_bytes());
        let c6 = body.bytes().rposition(|b| b == b',').unwrap_or_default();
        // A comma is one byte, so both ends are character boundaries.
        let field = |from: usize, to: usize| body.get(from..to).unwrap_or("");
        let talker = field(0, c1);
        if !(talker == "AIVDM" || talker == "AIVDO") {
            return Err(malformed());
        }
        // A field of one digit is read directly.
        let number = |from: usize, to: usize, name| match body.as_bytes().get(from..to) {
            Some([digit @ b'0'..=b'9']) => Ok(digit - b'0'),
            _ => parse_u8(field(from, to), name),
        };
        let fragments = number(c1 + 1, c2, "fragments")?;
        let fragment_no = number(c2 + 1, c3, "fragment_no")?;
        let message_id = if c4 == c3 + 1 {
            None
        } else {
            Some(number(c3 + 1, c4, "message_id")?)
        };
        let channel = field(c4 + 1, c5).chars().next();
        let payload = field(c5 + 1, c6);
        let fill_bits = number(c6 + 1, body.len(), "fill_bits")?;
        if fragments == 0 || fragment_no == 0 || fragment_no > fragments || fill_bits > 5 {
            return Err(malformed());
        }
        Ok(Sentence {
            fragments,
            fragment_no,
            message_id,
            channel,
            payload,
            fill_bits,
        })
    }

    /// Formats the sentence as a wire line with checksum.
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(self.payload.len() + 24);
        // Writing to a `String` cannot fail.
        let _ = write!(line, "!AIVDM,{},{},", self.fragments, self.fragment_no);
        if let Some(id) = self.message_id {
            let _ = write!(line, "{id}");
        }
        line.push(',');
        line.extend(self.channel);
        let _ = write!(line, ",{},{}", self.payload, self.fill_bits);
        let sum = checksum(line.get(1..).unwrap_or_default());
        let _ = write!(line, "*{sum:02X}");
        line
    }

    /// Wraps an armoured payload into one or more sentences
    /// (fragmenting at 60 payload characters, the radio limit), each
    /// borrowing its share of `payload`.
    pub fn wrap(payload: &'a str, fill_bits: u8, message_id: u8) -> Vec<Sentence<'a>> {
        const MAX_CHARS: usize = 60;
        let total = payload.len().div_ceil(MAX_CHARS) as u8;
        payload
            .as_bytes()
            .chunks(MAX_CHARS)
            .zip(1u8..)
            .map(|(chunk, fragment_no)| Sentence {
                fragments: total,
                fragment_no,
                message_id: (total > 1).then_some(message_id),
                channel: Some('A'),
                // lint: allow(no_unwrap) — sixbit armouring emits only ASCII
                // bytes, so every 60-byte chunk boundary is a char boundary.
                payload: std::str::from_utf8(chunk).expect("armoured payload is ASCII"),
                fill_bits: if fragment_no == total { fill_bits } else { 0 },
            })
            .collect()
    }
}

/// Messages an [`Assembler`] holds at once: the protocol's ten sequential
/// ids on each of its two channels, with headroom.
const SLOTS: usize = 32;

/// Fragments per message: the NMEA count field is one digit (AIS itself
/// never needs more than five).
const MAX_FRAGMENTS: usize = 9;

/// One message awaiting fragments.
#[derive(Default)]
struct Slot {
    channel: Option<char>,
    message_id: Option<u8>,
    /// Fragment count of the message; 0 marks the slot free.
    fragments: u8,
    /// Bit `i` is set once fragment `i + 1` has arrived.
    have: u16,
    /// The assembler's clock when the slot was claimed.
    since: u64,
    /// Fill bits of the last fragment.
    fill_bits: u8,
    /// Copies of the fragments' payloads; cleared, never freed, so a slot
    /// stops allocating once it has held a message of each length.
    parts: [String; MAX_FRAGMENTS],
}

/// Reassembles multi-fragment messages. Feed sentences in arrival order;
/// complete messages pop out as `(payload, fill_bits)`.
///
/// Fragments belong together when channel and sequential message id both
/// match: the ids are drawn per channel, so the same id is routinely live
/// on A and B at once. Storage is fixed: `SLOTS` messages of up to
/// `MAX_FRAGMENTS` fragments. A message that would need a further slot
/// takes over the one waiting longest, so fragments whose siblings were
/// lost cannot accumulate; a sentence announcing more fragments than that
/// is dropped.
///
/// Nothing is allocated in steady state: a single-fragment payload is
/// handed back as the slice it came in as, and a multi-fragment one is
/// copied into a free slot (the first free one, so a stream that
/// completes its messages keeps reusing the same few) and joined into a
/// buffer the assembler keeps and lends out until the next `push`.
#[derive(Default)]
pub struct Assembler {
    slots: [Slot; SLOTS],
    /// Multi-fragment sentences pushed so far.
    clock: u64,
    /// The payload of the last message assembled from fragments.
    joined: String,
}

impl Assembler {
    /// A fresh assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one sentence; returns the full payload when it completes a
    /// message, borrowed until the next `push`.
    pub fn push<'s>(&'s mut self, s: Sentence<'s>) -> Option<(&'s str, u8)> {
        if s.fragments == 1 {
            return Some((s.payload, s.fill_bits));
        }
        if s.fragment_no == 0 || s.fragment_no > s.fragments || s.fragments as usize > MAX_FRAGMENTS
        {
            return None;
        }
        self.clock += 1;
        let slots = &mut self.slots;
        let key = (s.channel, s.message_id);
        let found = slots
            .iter()
            .position(|x| x.fragments != 0 && (x.channel, x.message_id) == key);
        // Failing that a free slot, failing that the longest-waiting one.
        let at = found
            .or_else(|| slots.iter().position(|x| x.fragments == 0))
            .or_else(|| {
                let claimable = slots.iter().enumerate();
                let (at, _) = claimable.min_by_key(|(_, x)| x.since)?;
                Some(at)
            })?;
        let slot = slots.get_mut(at)?;
        if found.is_none() || slot.fragments != s.fragments {
            // A free slot, one taken over, or a conflicting fragment
            // count: the message starts afresh.
            (slot.channel, slot.message_id) = key;
            slot.fragments = s.fragments;
            slot.have = 0;
            slot.since = self.clock;
        }
        if s.fragment_no == s.fragments {
            slot.fill_bits = s.fill_bits;
        }
        let index = usize::from(s.fragment_no - 1);
        let part = slot.parts.get_mut(index)?;
        part.clear();
        part.push_str(s.payload);
        slot.have |= 1 << index;
        if slot.have != (1 << s.fragments) - 1 {
            return None;
        }
        slot.fragments = 0;
        self.joined.clear();
        for part in slot.parts.iter().take(usize::from(s.fragments)) {
            self.joined.push_str(part);
        }
        Some((&self.joined, slot.fill_bits))
    }

    /// Number of messages awaiting fragments.
    pub fn pending(&self) -> usize {
        self.slots.iter().filter(|s| s.fragments != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A classic known-good AIVDM type-1 sentence from the public AIS docs.
    const KNOWN: &str = "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C";

    #[test]
    fn parse_known_sentence() {
        let s = Sentence::parse(KNOWN).unwrap();
        assert_eq!(s.fragments, 1);
        assert_eq!(s.fragment_no, 1);
        assert_eq!(s.message_id, None);
        assert_eq!(s.channel, Some('B'));
        assert_eq!(s.payload, "177KQJ5000G?tO`K>RA1wUbN0TKH");
        assert_eq!(s.fill_bits, 0);
    }

    #[test]
    fn round_trip_format() {
        let s = Sentence::parse(KNOWN).unwrap();
        let line = s.to_line();
        assert_eq!(line, KNOWN);
        let re = Sentence::parse(&line).unwrap();
        assert_eq!(re, s);
    }

    #[test]
    fn checksum_detects_corruption() {
        let corrupted = KNOWN.replace("177K", "177L");
        match Sentence::parse(&corrupted) {
            Err(NmeaError::Checksum(_, _)) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(Sentence::parse("AIVDM,1,1,,B,xyz,0*00").is_err()); // no '!'
        assert!(Sentence::parse("!AIVDM,1,1,,B,xyz").is_err()); // no checksum
        assert!(Sentence::parse("!GPGGA,1,1,,B,xyz,0*2A").is_err()); // wrong talker
                                                                     // fill bits out of range (recompute checksum so it passes that stage)
        let body = "AIVDM,1,1,,B,xyz,6";
        let line = format!("!{body}*{:02X}", checksum(body));
        assert!(Sentence::parse(&line).is_err());
    }

    #[test]
    fn wrap_single() {
        let ss = Sentence::wrap("SHORT", 2, 7);
        assert_eq!(ss.len(), 1);
        assert_eq!(ss[0].fragments, 1);
        assert_eq!(ss[0].message_id, None);
        assert_eq!(ss[0].fill_bits, 2);
    }

    #[test]
    fn wrap_and_assemble_multi() {
        let long_payload: String = std::iter::repeat('0').take(71).collect();
        let ss = Sentence::wrap(&long_payload, 2, 3);
        assert_eq!(ss.len(), 2);
        assert_eq!(ss[0].fragments, 2);
        assert_eq!(ss[0].fill_bits, 0, "only last fragment carries fill");
        assert_eq!(ss[1].fill_bits, 2);
        let mut asm = Assembler::new();
        assert_eq!(asm.push(ss[0]), None);
        assert_eq!(asm.pending(), 1);
        let (payload, fill) = asm.push(ss[1]).unwrap();
        assert_eq!(payload, long_payload);
        assert_eq!(fill, 2);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assemble_out_of_order() {
        let long_payload: String = std::iter::repeat('A').take(100).collect();
        let ss = Sentence::wrap(&long_payload, 4, 9);
        let mut asm = Assembler::new();
        assert_eq!(asm.push(ss[1]), None);
        let (payload, fill) = asm.push(ss[0]).unwrap();
        assert_eq!(payload, long_payload);
        assert_eq!(fill, 4);
    }

    /// Two sentences on channel `channel` carrying `payload` under `id`.
    fn pair_on(channel: char, id: u8, payload: &str) -> Vec<Sentence<'_>> {
        let mut pair = Sentence::wrap(payload, 0, id);
        assert_eq!(pair.len(), 2);
        for s in &mut pair {
            s.channel = Some(channel);
        }
        pair
    }

    #[test]
    fn same_id_on_two_channels_does_not_splice() {
        // Sequential ids are drawn per channel: id 3 is live on A and on B
        // at once, and the fragments arrive interleaved.
        let (ones, twos) = ("1".repeat(70), "2".repeat(70));
        let a = pair_on('A', 3, &ones);
        let b = pair_on('B', 3, &twos);
        let mut asm = Assembler::new();
        assert_eq!(asm.push(a[0]), None);
        assert_eq!(asm.push(b[0]), None);
        assert_eq!(asm.pending(), 2);
        assert_eq!(asm.push(a[1]), Some((ones.as_str(), 0)));
        assert_eq!(asm.push(b[1]), Some((twos.as_str(), 0)));
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn orphans_are_taken_over_oldest_first() {
        let mut asm = Assembler::new();
        let fives = "5".repeat(61);
        // First fragments whose seconds never come, on more (channel, id)
        // pairs than there are slots.
        let orphans: Vec<Sentence> = (0..SLOTS as u8 + 4)
            .map(|i| pair_on(char::from(b'A' + i / 10), i % 10, &fives).remove(0))
            .collect();
        for s in &orphans {
            assert_eq!(asm.push(*s), None);
        }
        assert_eq!(asm.pending(), SLOTS);
        // The four oldest were taken over; the fifth is still waiting.
        let (oldest, id) = (orphans[0].channel.unwrap(), orphans[0].message_id.unwrap());
        assert_eq!(asm.push(pair_on(oldest, id, &fives).remove(1)), None);
        let (kept, id) = (orphans[5].channel.unwrap(), orphans[5].message_id.unwrap());
        assert_eq!(
            asm.push(pair_on(kept, id, &fives).remove(1)),
            Some((fives.as_str(), 0))
        );
    }

    #[test]
    fn impossible_fragment_numbers_are_dropped() {
        let mut asm = Assembler::new();
        let zeros = "0".repeat(61);
        let mut s = Sentence::wrap(&zeros, 0, 1).remove(0);
        for (fragments, fragment_no) in [(10, 1), (2, 0), (2, 3)] {
            (s.fragments, s.fragment_no) = (fragments, fragment_no);
            assert_eq!(asm.push(s), None);
            assert_eq!(asm.pending(), 0);
        }
    }

    #[test]
    fn interleaved_messages_by_id() {
        let (ones, twos) = ("1".repeat(70), "2".repeat(70));
        let a = Sentence::wrap(&ones, 0, 1);
        let b = Sentence::wrap(&twos, 0, 2);
        let mut asm = Assembler::new();
        assert_eq!(asm.push(a[0]), None);
        assert_eq!(asm.push(b[0]), None);
        assert_eq!(asm.pending(), 2);
        let (pa, _) = asm.push(a[1]).unwrap();
        assert_eq!(pa, "1".repeat(70));
        let (pb, _) = asm.push(b[1]).unwrap();
        assert_eq!(pb, "2".repeat(70));
    }
}
