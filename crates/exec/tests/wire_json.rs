//! The serve protocol's response line against the hand-rolled JSON
//! reader that parses it on the client side of the socket.

use exec::serve::OffloadResponse;
use proptest::prelude::*;

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
}
