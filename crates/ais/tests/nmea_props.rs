//! Properties of NMEA framing: [`Sentence::parse`] is total over arbitrary
//! input, tolerates the line ending a receiver log carries, inverts
//! [`Sentence::to_line`], and decides every input exactly as the
//! byte-at-a-time parser it replaced, kept here as the oracle: the same
//! fields, or the same [`NmeaError`] with the same values. The
//! [`Assembler`] puts interleaved fragments back together.

use pol_ais::nmea::{checksum, Assembler, NmeaError, Sentence};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The seed's parser: the checksum folded one byte at a time, the commas
/// counted in a second loop, every numeric field through `str::parse`.
fn oracle_parse(line: &str) -> Result<Sentence<'_>, NmeaError> {
    let line = line.trim();
    let malformed = || NmeaError::Malformed(line.into());
    let rest = line.strip_prefix('!').ok_or_else(malformed)?;
    let (body, cs_str) = rest.rsplit_once('*').ok_or_else(malformed)?;
    let expected =
        u8::from_str_radix(cs_str.trim(), 16).map_err(|_| NmeaError::BadField("checksum"))?;
    let computed = oracle_checksum(body);
    if expected != computed {
        return Err(NmeaError::Checksum(expected, computed));
    }
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
    let field = |from: usize, to: usize| body.get(from..to).unwrap_or("");
    let parse_u8 = |field: &str, name| field.parse().map_err(|_| NmeaError::BadField(name));
    let talker = field(0, c1);
    if !(talker == "AIVDM" || talker == "AIVDO") {
        return Err(malformed());
    }
    let fragments = parse_u8(field(c1 + 1, c2), "fragments")?;
    let fragment_no = parse_u8(field(c2 + 1, c3), "fragment_no")?;
    let f_message_id = field(c3 + 1, c4);
    let message_id = if f_message_id.is_empty() {
        None
    } else {
        Some(parse_u8(f_message_id, "message_id")?)
    };
    let channel = field(c4 + 1, c5).chars().next();
    let fill_bits = parse_u8(field(c6 + 1, body.len()), "fill_bits")?;
    if fragments == 0 || fragment_no == 0 || fragment_no > fragments || fill_bits > 5 {
        return Err(malformed());
    }
    Ok(Sentence {
        fragments,
        fragment_no,
        message_id,
        channel,
        payload: field(c5 + 1, c6),
        fill_bits,
    })
}

fn oracle_checksum(body: &str) -> u8 {
    body.bytes().fold(0, |acc, b| acc ^ b)
}

/// The fields of a sentence, all in the ranges `parse` accepts; the
/// sentence borrows its payload from here.
#[derive(Clone, Debug)]
struct Fields {
    fragments: u8,
    fragment_no: u8,
    message_id: Option<u8>,
    channel: Option<char>,
    payload: String,
    fill_bits: u8,
}

impl Fields {
    fn sentence(&self) -> Sentence<'_> {
        Sentence {
            fragments: self.fragments,
            fragment_no: self.fragment_no,
            message_id: self.message_id,
            channel: self.channel,
            payload: &self.payload,
            fill_bits: self.fill_bits,
        }
    }
}

fn arb_fields() -> impl Strategy<Value = Fields> {
    (
        1u8..=9,
        0u8..9,
        prop::option::of(0u8..=255),
        prop::option::of(0u8..3),
        "[0-9:-W`-w]{0,82}",
        0u8..=5,
    )
        .prop_map(
            |(fragments, no, message_id, channel, payload, fill_bits)| Fields {
                fragments,
                fragment_no: 1 + no % fragments,
                message_id,
                channel: channel.map(|c| char::from(b"AB1"[c as usize])),
                payload,
                fill_bits,
            },
        )
}

/// `!` and `body`, then one of [`SUFFIXES`] around its checksum.
fn seal(prefix: &str, body: &str, suffix: usize) -> String {
    let cs = checksum(body);
    let tail = match suffix {
        0 => format!("*{cs:02X}"),
        1 => format!("*{cs:02x}"),
        2 => format!("*{cs:X}"),
        3 => format!("*0{cs:02X}"),
        4 => format!("*+{cs:02X}"),
        5 => format!("* {cs:02X}"),
        6 => "*".to_string(),
        7 => String::new(),
        8 => format!("*{:02X}", cs ^ 1),
        9 => format!("*{cs:02X}*"),
        10 => format!("*{cs:02X}\r\n"),
        _ => format!("*{cs:02X}\u{a0}"),
    };
    format!("{prefix}{body}{tail}")
}

/// The checksum field forms [`seal`] writes.
const SUFFIXES: usize = 12;

/// What may stand before the body.
const PREFIXES: [&str; 6] = ["!", "", " !", "\u{a0}!", "!!", "!\u{2003}"];
const TALKERS: [&str; 7] = ["AIVDM", "AIVDO", "GPGGA", "AIVD", "", "aivdm", "AIVDMX"];
/// Numeric field values: one digit, and every other form `str::parse`
/// accepts or refuses.
const NUMBERS: [&str; 18] = [
    "1", "2", "0", "9", "", "+1", "01", "10", "255", "256", "-1", "a", " 1", "1\u{e9}", "\u{663}",
    "3", "/", ":",
];
const CHANNELS: [&str; 7] = ["", "A", "B", "AB", "\u{e9}", "\u{1d11e}", "1"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parse_inverts_to_line(f in arb_fields(), ending in 0usize..4) {
        let s = f.sentence();
        let line = s.to_line();
        prop_assert_eq!(Sentence::parse(&line), Ok(s), "{}", line);
        let ended = format!("{line}{}", ["\r\n", "\n", "\r", "  \t"][ending]);
        prop_assert_eq!(Sentence::parse(&ended), Ok(s));
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..120)) {
        let line = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(Sentence::parse(&line), oracle_parse(&line), "{:?}", line);
    }

    #[test]
    fn parse_never_panics_on_a_damaged_sentence(
        f in arb_fields(),
        edits in prop::collection::vec((0usize..120, 0u8..=255), 1..4),
        reseal in 0u8..2,
    ) {
        // Random bytes over a valid line reach the checks behind the
        // checksum only by luck; resealing lets them through.
        let mut bytes = f.sentence().to_line().into_bytes();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        let mut line = String::from_utf8_lossy(&bytes).into_owned();
        if reseal == 1 {
            let body = line.trim_start_matches('!');
            let body = body.rsplit_once('*').map_or(body, |(body, _)| body);
            line = format!("!{body}*{:02X}", checksum(body));
        }
        prop_assert_eq!(Sentence::parse(&line), oracle_parse(&line), "{:?}", line);
    }

    #[test]
    fn parse_matches_the_oracle_field_by_field(
        (prefix, talker, suffix) in (0..PREFIXES.len(), 0..TALKERS.len(), 0..SUFFIXES),
        numbers in prop::collection::vec(0..NUMBERS.len(), 4),
        channel in 0..CHANNELS.len(),
        payload in "[0-9:-W`-w,*!\u{e9}\u{20ac}\u{1d11e}\u{a0} ]{0,90}",
    ) {
        let [fragments, fragment_no, id, fill] = [0, 1, 2, 3].map(|i| NUMBERS[numbers[i]]);
        let body = format!(
            "{},{fragments},{fragment_no},{id},{},{payload},{fill}",
            TALKERS[talker], CHANNELS[channel],
        );
        let line = seal(PREFIXES[prefix], &body, suffix);
        prop_assert_eq!(Sentence::parse(&line), oracle_parse(&line), "{:?}", line);
    }

    #[test]
    fn checksum_matches_a_bytewise_fold(body in "[ -~\u{e9}\u{20ac}\u{1d11e}]{0,100}") {
        prop_assert_eq!(checksum(&body), oracle_checksum(&body), "{:?}", body);
    }

    #[test]
    fn interleaved_fragments_on_two_channels_assemble_to_their_payloads(
        on_a in prop::collection::vec((1usize..300, 0u8..=5), 0..10),
        on_b in prop::collection::vec((1usize..300, 0u8..=5), 0..10),
        picks in prop::collection::vec(0usize..1000, 100),
    ) {
        // Up to ten messages a channel, so no sequential id is live twice
        // on one channel, and no more than the assembler's slots at once.
        const ARMOUR: &[u8] = b"0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVW`abcdefghijklmnopqrstuvw";
        let mut messages = Vec::new();
        for (channel, specs) in [('A', &on_a), ('B', &on_b)] {
            for (id, &(len, fill)) in specs.iter().enumerate() {
                let seed = messages.len() * 7;
                let payload: String =
                    (0..len).map(|k| char::from(ARMOUR[(seed + k) % ARMOUR.len()])).collect();
                let mut lines = VecDeque::new();
                for mut s in Sentence::wrap(&payload, fill, id as u8) {
                    s.channel = Some(channel);
                    lines.push_back(s.to_line());
                }
                messages.push((payload, fill, lines));
            }
        }
        // Each message's fragments in order, the messages interleaved.
        let mut arrivals: Vec<(usize, String)> = Vec::new();
        let mut pick = picks.iter().cycle();
        loop {
            let waiting: Vec<usize> =
                (0..messages.len()).filter(|&m| !messages[m].2.is_empty()).collect();
            let Some(&next) = pick.next() else { break };
            let Some(&m) = waiting.get(next % waiting.len().max(1)) else { break };
            if let Some(line) = messages[m].2.pop_front() {
                arrivals.push((m, line));
            }
        }
        let mut want = Vec::new();
        for (at, (m, _)) in arrivals.iter().enumerate() {
            if !arrivals[at + 1..].iter().any(|(later, _)| later == m) {
                want.push((messages[*m].0.clone(), messages[*m].1));
            }
        }
        let mut asm = Assembler::new();
        let mut got = Vec::new();
        for (_, line) in &arrivals {
            let s = Sentence::parse(line);
            prop_assert!(s.is_ok(), "{}", line);
            if let Some((payload, fill)) = s.ok().and_then(|s| asm.push(s)) {
                got.push((payload.to_owned(), fill));
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(asm.pending(), 0);
    }
}

#[test]
fn field_count_is_exact() {
    for body in ["AIVDM,1,1,,A,0", "AIVDM,1,1,,A,0,0,0", "AIVDM", ""] {
        let line = format!("!{body}*{:02X}", checksum(body));
        assert!(Sentence::parse(&line).is_err(), "{line}");
        assert_eq!(Sentence::parse(&line), oracle_parse(&line), "{line}");
    }
}

/// Every body length modulo the scan's eight-byte step, whole and cut
/// short at every byte (resealed, so the cut reaches the field checks).
#[test]
fn every_body_length_matches_the_oracle() {
    for (len, commas) in (0..=90).flat_map(|len| [(len, false), (len, true)]) {
        let payload: String = (0..len)
            .map(|k| if commas && k % 9 == 4 { ',' } else { 'w' })
            .collect();
        for fill in ["0", "5", "+3", "05"] {
            let body = format!("AIVDM,1,1,,A,{payload},{fill}");
            for cut in 0..=body.len() {
                let short = &body[..cut];
                for suffix in 0..SUFFIXES {
                    let line = seal("!", short, suffix);
                    assert_eq!(Sentence::parse(&line), oracle_parse(&line), "{line:?}");
                }
            }
        }
    }
}

/// Bodies long enough that the scan's per-lane comma counts are summed
/// more than once, with comma counts past a byte (262 reads as 6 modulo
/// 256).
#[test]
fn long_bodies_count_every_comma() {
    for commas in [6, 31 * 8, 255, 256, 262, 518, 2_047, 2_054, 4_102] {
        for pad in 0..9 {
            let payload = format!("{}{}", "w".repeat(pad), ",".repeat(commas - 6));
            let body = format!("AIVDM,1,1,,A,{payload},0");
            let line = seal("!", &body, 0);
            assert_eq!(
                Sentence::parse(&line),
                oracle_parse(&line),
                "{commas} commas"
            );
            assert_eq!(checksum(&body), oracle_checksum(&body));
        }
    }
}
