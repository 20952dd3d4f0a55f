//! The serve protocol's lines against the hand-rolled JSON reader that
//! parses them on both sides of the socket.

use exec::serve::{OffloadRequest, OffloadResponse};
use exec::SizeClass;
use proptest::prelude::*;
use workloads::WorkloadKind;

/// A string that leans on what JSON must escape: a quote, a backslash,
/// a newline, any other control character, printable ASCII, and any
/// Unicode scalar value (a surrogate draw becomes U+FFFD), in equal
/// shares.
fn awkward(draws: &[u32]) -> String {
    draws
        .iter()
        .map(|&d| match d % 6 {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => char::from_u32(d / 6 % 0x20).unwrap(),
            4 => char::from_u32(0x20 + d / 6 % 0x5f).unwrap(),
            _ => char::from_u32(d / 6 % 0x11_0000).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// Text drawn mostly from JSON's own alphabet — brackets, quotes,
/// escapes, digits, signs, exponents, literals' letters, whitespace —
/// plus any Unicode scalar value, so most draws get deep into the
/// reader before they go wrong.
fn jsonish(draws: &[u32]) -> String {
    const ALPHABET: &[u8] = b"{}[]\",:\\/ \t\n0123456789-+.eEtrufalsnbu";
    draws
        .iter()
        .map(|&d| match ALPHABET.get(d as usize % (ALPHABET.len() + 4)) {
            Some(&b) => b as char,
            None => char::from_u32(d >> 8).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// Seeds at and above 2^53 do not survive an `f64` reader.
const SEED_LIMIT: u64 = 1 << 53;

fn request(kind_i: usize, size_i: usize, seed: u64) -> OffloadRequest {
    OffloadRequest {
        kind: WorkloadKind::ALL[kind_i],
        size: SizeClass::ALL[size_i],
        seed,
    }
}

proptest! {
    /// Whatever text a kernel's `detail` or an `error` carries, the
    /// client reads back exactly what the server sent, on one line.
    #[test]
    fn any_detail_and_error_survive_the_wire(
        detail in prop::collection::vec(any::<u32>(), 0..40),
        error in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        let resp = OffloadResponse {
            error: awkward(&error),
            detail: awkward(&detail),
            ..OffloadResponse::error("")
        };
        let line = resp.to_json();
        prop_assert!(!line.contains('\n'), "one line: {line:?}");
        prop_assert_eq!(OffloadResponse::from_json(&line).unwrap(), resp);
    }

    /// Every seed the reader can hold exactly comes back as sent; every
    /// larger one is refused rather than rounded to a neighbour.
    #[test]
    fn seeds_round_trip_below_two_to_the_53_and_are_refused_above(
        kind_i in 0usize..4,
        size_i in 0usize..3,
        bits in 0u32..64,
        raw in any::<u64>(),
    ) {
        let seed = raw >> bits;
        let req = request(kind_i, size_i, seed);
        match OffloadRequest::from_json(&req.to_json()) {
            Ok(back) => {
                prop_assert!(seed < SEED_LIMIT, "seed {seed} accepted");
                prop_assert_eq!(back, req);
            }
            Err(e) => {
                prop_assert!(seed >= SEED_LIMIT, "seed {seed} refused: {e}");
                prop_assert!(e.contains("seed"), "{e}");
            }
        }
    }

    /// No line of text makes either side of the protocol panic.
    #[test]
    fn arbitrary_lines_never_panic(draws in prop::collection::vec(any::<u32>(), 0..200)) {
        let line = jsonish(&draws);
        let _ = obsv::json::parse(&line);
        let _ = OffloadRequest::from_json(&line);
        let _ = OffloadResponse::from_json(&line);
    }

    /// One byte of a valid request line replaced by anything: the
    /// reader answers `Ok` or `Err`, never panics, and an `Ok` is a
    /// request it can send back out unchanged.
    #[test]
    fn single_byte_mutations_of_a_request_never_panic(
        kind_i in 0usize..4,
        size_i in 0usize..3,
        seed in 0u64..SEED_LIMIT,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = request(kind_i, size_i, seed).to_json().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let line = String::from_utf8_lossy(&bytes);
        if let Ok(req) = OffloadRequest::from_json(&line) {
            prop_assert!(req.seed < SEED_LIMIT);
            prop_assert_eq!(OffloadRequest::from_json(&req.to_json()).unwrap(), req);
        }
    }
}
