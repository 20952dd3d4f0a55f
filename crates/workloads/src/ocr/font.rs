//! A 5×7 bitmap font for the characters the OCR workload recognises.
//!
//! Each glyph is 7 rows of 5 bits, MSB = leftmost column.

/// Glyph width in pixels.
pub const GLYPH_W: usize = 5;
/// Glyph height in pixels.
pub const GLYPH_H: usize = 7;
/// Horizontal spacing between glyph cells.
pub const GLYPH_SPACING: usize = 1;

/// The recognisable alphabet, in template order.
pub const ALPHABET: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";

#[rustfmt::skip]
const GLYPHS: [[u8; 7]; 37] = [
    // A-Z
    [0b01110,0b10001,0b10001,0b11111,0b10001,0b10001,0b10001], // A
    [0b11110,0b10001,0b10001,0b11110,0b10001,0b10001,0b11110], // B
    [0b01110,0b10001,0b10000,0b10000,0b10000,0b10001,0b01110], // C
    [0b11110,0b10001,0b10001,0b10001,0b10001,0b10001,0b11110], // D
    [0b11111,0b10000,0b10000,0b11110,0b10000,0b10000,0b11111], // E
    [0b11111,0b10000,0b10000,0b11110,0b10000,0b10000,0b10000], // F
    [0b01110,0b10001,0b10000,0b10111,0b10001,0b10001,0b01111], // G
    [0b10001,0b10001,0b10001,0b11111,0b10001,0b10001,0b10001], // H
    [0b01110,0b00100,0b00100,0b00100,0b00100,0b00100,0b01110], // I
    [0b00111,0b00010,0b00010,0b00010,0b00010,0b10010,0b01100], // J
    [0b10001,0b10010,0b10100,0b11000,0b10100,0b10010,0b10001], // K
    [0b10000,0b10000,0b10000,0b10000,0b10000,0b10000,0b11111], // L
    [0b10001,0b11011,0b10101,0b10101,0b10001,0b10001,0b10001], // M
    [0b10001,0b11001,0b10101,0b10011,0b10001,0b10001,0b10001], // N
    [0b01110,0b10001,0b10001,0b10001,0b10001,0b10001,0b01110], // O
    [0b11110,0b10001,0b10001,0b11110,0b10000,0b10000,0b10000], // P
    [0b01110,0b10001,0b10001,0b10001,0b10101,0b10010,0b01101], // Q
    [0b11110,0b10001,0b10001,0b11110,0b10100,0b10010,0b10001], // R
    [0b01111,0b10000,0b10000,0b01110,0b00001,0b00001,0b11110], // S
    [0b11111,0b00100,0b00100,0b00100,0b00100,0b00100,0b00100], // T
    [0b10001,0b10001,0b10001,0b10001,0b10001,0b10001,0b01110], // U
    [0b10001,0b10001,0b10001,0b10001,0b10001,0b01010,0b00100], // V
    [0b10001,0b10001,0b10001,0b10101,0b10101,0b11011,0b10001], // W
    [0b10001,0b01010,0b00100,0b00100,0b00100,0b01010,0b10001], // X
    [0b10001,0b10001,0b01010,0b00100,0b00100,0b00100,0b00100], // Y
    [0b11111,0b00001,0b00010,0b00100,0b01000,0b10000,0b11111], // Z
    // 0-9
    [0b01110,0b10001,0b10011,0b10101,0b11001,0b10001,0b01110], // 0
    [0b00100,0b01100,0b00100,0b00100,0b00100,0b00100,0b01110], // 1
    [0b01110,0b10001,0b00001,0b00110,0b01000,0b10000,0b11111], // 2
    [0b11111,0b00010,0b00100,0b00110,0b00001,0b10001,0b01110], // 3
    [0b00010,0b00110,0b01010,0b10010,0b11111,0b00010,0b00010], // 4
    [0b11111,0b10000,0b11110,0b00001,0b00001,0b10001,0b01110], // 5
    [0b00110,0b01000,0b10000,0b11110,0b10001,0b10001,0b01110], // 6
    [0b11111,0b00001,0b00010,0b00100,0b01000,0b01000,0b01000], // 7
    [0b01110,0b10001,0b10001,0b01110,0b10001,0b10001,0b01110], // 8
    [0b01110,0b10001,0b10001,0b01111,0b00001,0b00010,0b01100], // 9
    // space
    [0, 0, 0, 0, 0, 0, 0],
];

/// Bitmap for `ch`, or `None` if outside the alphabet.
pub fn glyph(ch: char) -> Option<&'static [u8; 7]> {
    let idx = ALPHABET.find(ch.to_ascii_uppercase())?;
    Some(&GLYPHS[idx])
}

/// Character at template index `idx`.
pub fn char_at(idx: usize) -> char {
    ALPHABET.as_bytes()[idx] as char
}

/// Number of templates.
pub const fn template_count() -> usize {
    ALPHABET.len()
}

/// Is pixel (x, y) of `g` set?
#[inline]
pub fn pixel(g: &[u8; 7], x: usize, y: usize) -> bool {
    debug_assert!(x < GLYPH_W && y < GLYPH_H);
    (g[y] >> (GLYPH_W - 1 - x)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_covers_templates() {
        assert_eq!(ALPHABET.len(), GLYPHS.len());
        assert_eq!(template_count(), 37);
    }

    #[test]
    fn glyph_lookup_is_case_insensitive() {
        assert_eq!(glyph('a'), glyph('A'));
        assert!(glyph('A').is_some());
        assert!(glyph('!').is_none());
    }

    #[test]
    fn glyphs_are_distinct() {
        for (i, gi) in GLYPHS.iter().enumerate() {
            for (j, gj) in GLYPHS.iter().enumerate().skip(i + 1) {
                assert_ne!(gi, gj, "{} and {} share a bitmap", char_at(i), char_at(j));
            }
        }
    }

    #[test]
    fn pixel_extraction() {
        let a = glyph('A').unwrap();
        // Row 0 of 'A' is 01110: x=0 clear, x=1..4 set, x=4 clear.
        assert!(!pixel(a, 0, 0));
        assert!(pixel(a, 1, 0));
        assert!(pixel(a, 3, 0));
        assert!(!pixel(a, 4, 0));
    }

    #[test]
    fn space_is_blank() {
        let s = glyph(' ').unwrap();
        for y in 0..GLYPH_H {
            for x in 0..GLYPH_W {
                assert!(!pixel(s, x, y));
            }
        }
    }
}
