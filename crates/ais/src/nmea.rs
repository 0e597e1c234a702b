//! NMEA 0183 sentence framing for AIVDM/AIVDO.
//!
//! A sentence looks like `!AIVDM,2,1,3,B,<payload>,0*5C`: fragment count,
//! fragment number, sequential message id (for multi-fragment messages),
//! radio channel, armoured payload, fill bits, and a `*`-prefixed XOR
//! checksum over everything between `!` and `*`. Message type 5 payloads
//! exceed one sentence and arrive as two fragments; the [`Assembler`]
//! reassembles them.

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

/// One parsed AIVDM sentence (possibly a fragment of a longer message).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sentence {
    /// Total fragments of this message (1 for single-sentence messages).
    pub fragments: u8,
    /// This fragment's 1-based number.
    pub fragment_no: u8,
    /// Sequential message id linking fragments (empty for single-fragment).
    pub message_id: Option<u8>,
    /// Radio channel (`A`/`B`), when present.
    pub channel: Option<char>,
    /// Armoured payload.
    pub payload: String,
    /// Pad bits in the last payload character.
    pub fill_bits: u8,
}

/// XOR checksum over the characters between `!` and `*`.
pub fn checksum(body: &str) -> u8 {
    body.bytes().fold(0, |acc, b| acc ^ b)
}

fn parse_u8(field: &str, name: &'static str) -> Result<u8, NmeaError> {
    field.parse().map_err(|_| NmeaError::BadField(name))
}

impl Sentence {
    /// Parses a full `!AIVDM,...*CS` line (also accepts `!AIVDO`).
    ///
    /// Allocates for the owned payload only; the error paths apart.
    pub fn parse(line: &str) -> Result<Sentence, NmeaError> {
        let line = line.trim();
        let malformed = || NmeaError::Malformed(line.into());
        let rest = line.strip_prefix('!').ok_or_else(malformed)?;
        let (body, cs_str) = rest.rsplit_once('*').ok_or_else(malformed)?;
        let expected =
            u8::from_str_radix(cs_str.trim(), 16).map_err(|_| NmeaError::BadField("checksum"))?;
        let computed = checksum(body);
        if expected != computed {
            return Err(NmeaError::Checksum(expected, computed));
        }
        // Where the six commas between the seven fields are.
        let mut commas = [0usize; 6];
        let mut seen = 0usize;
        for (i, b) in body.bytes().enumerate() {
            if b == b',' {
                if let Some(comma) = commas.get_mut(seen) {
                    *comma = i;
                }
                seen += 1;
            }
        }
        if seen != commas.len() {
            return Err(malformed());
        }
        let [c1, c2, c3, c4, c5, c6] = commas;
        // A comma is one byte, so both ends are character boundaries.
        let field = |from: usize, to: usize| body.get(from..to).unwrap_or("");
        let talker = field(0, c1);
        let f_fragments = field(c1 + 1, c2);
        let f_fragment_no = field(c2 + 1, c3);
        let f_message_id = field(c3 + 1, c4);
        let f_channel = field(c4 + 1, c5);
        let f_payload = field(c5 + 1, c6);
        let f_fill = field(c6 + 1, body.len());
        if !(talker == "AIVDM" || talker == "AIVDO") {
            return Err(malformed());
        }
        let fragments = parse_u8(f_fragments, "fragments")?;
        let fragment_no = parse_u8(f_fragment_no, "fragment_no")?;
        let message_id = if f_message_id.is_empty() {
            None
        } else {
            Some(parse_u8(f_message_id, "message_id")?)
        };
        let channel = f_channel.chars().next();
        let fill_bits = parse_u8(f_fill, "fill_bits")?;
        if fragments == 0 || fragment_no == 0 || fragment_no > fragments || fill_bits > 5 {
            return Err(malformed());
        }
        Ok(Sentence {
            fragments,
            fragment_no,
            message_id,
            channel,
            payload: f_payload.to_string(),
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
    /// (fragmenting at 60 payload characters, the radio limit).
    pub fn wrap(payload: &str, fill_bits: u8, message_id: u8) -> Vec<Sentence> {
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
                payload: std::str::from_utf8(chunk)
                    .expect("armoured payload is ASCII")
                    .to_string(),
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
    parts: [String; MAX_FRAGMENTS],
}

/// Reassembles multi-fragment messages. Feed sentences in arrival order;
/// complete messages pop out as `(payload, fill_bits)`.
///
/// Fragments belong together when channel and sequential message id both
/// match: the ids are drawn per channel, so the same id is routinely live
/// on A and B at once. Storage is fixed: [`SLOTS`] messages of up to
/// [`MAX_FRAGMENTS`] fragments. A message that would need a further slot
/// takes over the one waiting longest, so fragments whose siblings were
/// lost cannot accumulate; a sentence announcing more fragments than that
/// is dropped.
#[derive(Default)]
pub struct Assembler {
    slots: [Slot; SLOTS],
    /// Multi-fragment sentences pushed so far.
    clock: u64,
}

impl Assembler {
    /// A fresh assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one sentence; returns the full payload when it completes a
    /// message.
    pub fn push(&mut self, s: Sentence) -> Option<(String, u8)> {
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
        let at = found.or_else(|| {
            let claimable = slots.iter().enumerate();
            let (at, _) = claimable.min_by_key(|(_, x)| (x.fragments != 0, x.since))?;
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
        *slot.parts.get_mut(index)? = s.payload;
        slot.have |= 1 << index;
        if slot.have != (1 << s.fragments) - 1 {
            return None;
        }
        slot.fragments = 0;
        let mut parts = slot.parts.iter_mut().map(std::mem::take);
        let mut payload = parts.next()?;
        for part in parts.take(usize::from(s.fragments) - 1) {
            payload.push_str(&part);
        }
        Some((payload, slot.fill_bits))
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
        assert_eq!(s.to_line(), KNOWN);
        let re = Sentence::parse(&s.to_line()).unwrap();
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
        assert_eq!(asm.push(ss[0].clone()), None);
        assert_eq!(asm.pending(), 1);
        let (payload, fill) = asm.push(ss[1].clone()).unwrap();
        assert_eq!(payload, long_payload);
        assert_eq!(fill, 2);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assemble_out_of_order() {
        let long_payload: String = std::iter::repeat('A').take(100).collect();
        let ss = Sentence::wrap(&long_payload, 4, 9);
        let mut asm = Assembler::new();
        assert_eq!(asm.push(ss[1].clone()), None);
        let (payload, fill) = asm.push(ss[0].clone()).unwrap();
        assert_eq!(payload, long_payload);
        assert_eq!(fill, 4);
    }

    /// Two sentences on channel `channel` carrying `payload` under `id`.
    fn pair_on(channel: char, id: u8, payload: &str) -> Vec<Sentence> {
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
        let a = pair_on('A', 3, &"1".repeat(70));
        let b = pair_on('B', 3, &"2".repeat(70));
        let mut asm = Assembler::new();
        assert_eq!(asm.push(a[0].clone()), None);
        assert_eq!(asm.push(b[0].clone()), None);
        assert_eq!(asm.pending(), 2);
        assert_eq!(asm.push(a[1].clone()), Some(("1".repeat(70), 0)));
        assert_eq!(asm.push(b[1].clone()), Some(("2".repeat(70), 0)));
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn orphans_are_taken_over_oldest_first() {
        let mut asm = Assembler::new();
        // First fragments whose seconds never come, on more (channel, id)
        // pairs than there are slots.
        let orphans: Vec<Sentence> = (0..SLOTS as u8 + 4)
            .map(|i| pair_on(char::from(b'A' + i / 10), i % 10, &"5".repeat(61)).remove(0))
            .collect();
        for s in &orphans {
            assert_eq!(asm.push(s.clone()), None);
        }
        assert_eq!(asm.pending(), SLOTS);
        // The four oldest were taken over; the fifth is still waiting.
        let (oldest, id) = (orphans[0].channel.unwrap(), orphans[0].message_id.unwrap());
        assert_eq!(
            asm.push(pair_on(oldest, id, &"5".repeat(61)).remove(1)),
            None
        );
        let (kept, id) = (orphans[5].channel.unwrap(), orphans[5].message_id.unwrap());
        assert_eq!(
            asm.push(pair_on(kept, id, &"5".repeat(61)).remove(1)),
            Some(("5".repeat(61), 0))
        );
    }

    #[test]
    fn impossible_fragment_numbers_are_dropped() {
        let mut asm = Assembler::new();
        let mut s = Sentence::wrap(&"0".repeat(61), 0, 1).remove(0);
        for (fragments, fragment_no) in [(10, 1), (2, 0), (2, 3)] {
            (s.fragments, s.fragment_no) = (fragments, fragment_no);
            assert_eq!(asm.push(s.clone()), None);
            assert_eq!(asm.pending(), 0);
        }
    }

    #[test]
    fn interleaved_messages_by_id() {
        let a = Sentence::wrap(&"1".repeat(70), 0, 1);
        let b = Sentence::wrap(&"2".repeat(70), 0, 2);
        let mut asm = Assembler::new();
        assert_eq!(asm.push(a[0].clone()), None);
        assert_eq!(asm.push(b[0].clone()), None);
        assert_eq!(asm.pending(), 2);
        let (pa, _) = asm.push(a[1].clone()).unwrap();
        assert_eq!(pa, "1".repeat(70));
        let (pb, _) = asm.push(b[1].clone()).unwrap();
        assert_eq!(pb, "2".repeat(70));
    }
}
