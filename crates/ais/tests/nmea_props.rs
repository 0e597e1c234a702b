//! Properties of NMEA framing: [`Sentence::parse`] is total over arbitrary
//! input, tolerates the line ending a receiver log carries, and inverts
//! [`Sentence::to_line`].

use pol_ais::nmea::{checksum, Sentence};
use proptest::prelude::*;

/// A sentence whose fields are all in the ranges `parse` accepts.
fn arb_sentence() -> impl Strategy<Value = Sentence> {
    (
        1u8..=9,
        0u8..9,
        prop::option::of(0u8..=255),
        prop::option::of(0u8..3),
        "[0-9:-W`-w]{0,82}",
        0u8..=5,
    )
        .prop_map(
            |(fragments, no, message_id, channel, payload, fill_bits)| Sentence {
                fragments,
                fragment_no: 1 + no % fragments,
                message_id,
                channel: channel.map(|c| char::from(b"AB1"[c as usize])),
                payload,
                fill_bits,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parse_inverts_to_line(s in arb_sentence(), ending in 0usize..4) {
        let line = s.to_line();
        prop_assert_eq!(Sentence::parse(&line), Ok(s.clone()), "{}", line);
        let ended = format!("{line}{}", ["\r\n", "\n", "\r", "  \t"][ending]);
        prop_assert_eq!(Sentence::parse(&ended), Ok(s));
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..120)) {
        let _ = Sentence::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_a_damaged_sentence(
        s in arb_sentence(),
        edits in prop::collection::vec((0usize..120, 0u8..=255), 1..4),
        reseal in 0u8..2,
    ) {
        // Random bytes over a valid line reach the checks behind the
        // checksum only by luck; resealing lets them through.
        let mut bytes = s.to_line().into_bytes();
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
        let _ = Sentence::parse(&line);
    }
}

#[test]
fn field_count_is_exact() {
    for body in ["AIVDM,1,1,,A,0", "AIVDM,1,1,,A,0,0,0", "AIVDM", ""] {
        let line = format!("!{body}*{:02X}", checksum(body));
        assert!(Sentence::parse(&line).is_err(), "{line}");
    }
}
