//! Application identifiers (AIDs) — the short hex ids of the paper's
//! cache table (Fig. 8).
//!
//! The AID is what every layer keys an app's code by: the App
//! Warehouse's cache table, a runtime's set of loaded apps, the fleet
//! router's ring position. It lives here because a runtime instance is
//! the lowest layer that tracks loaded code.

use simkit::Fnv1a;
use std::fmt;

/// Application identifier: 28 bits of the package name's FNV-1a hash.
/// `Display` renders it as the paper's seven hex digits (`8d6d1b5`);
/// ids order numerically, which is also the order of their renderings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Aid(u32);

impl Aid {
    /// The seven ASCII hex digits `Display` prints, without allocating —
    /// what consistent-hash rings key on.
    pub fn hex(self) -> [u8; 7] {
        let mut digits = [0; 7];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = b"0123456789abcdef"[((self.0 >> (24 - 4 * i)) & 0xf) as usize];
        }
        digits
    }
}

impl fmt::Display for Aid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:07x}", self.0)
    }
}

impl fmt::Debug for Aid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Aid({self})")
    }
}

/// Derive an AID from a package name (FNV-1a, truncated to 28 bits).
pub fn aid_of(app_id: &str) -> Aid {
    let mut h = Fnv1a::new();
    h.write(app_id.as_bytes());
    Aid((h.finish() & 0xfff_ffff) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_is_the_rendering() {
        for app in ["com.bench.ocr", "com.bench.chessgame", "", "a"] {
            let aid = aid_of(app);
            assert_eq!(aid.hex().as_slice(), aid.to_string().as_bytes(), "{app}");
        }
        assert_eq!(Aid(0x00a_0b0c).to_string(), "00a0b0c", "zero-padded");
    }
}
