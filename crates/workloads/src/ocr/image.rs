//! Grayscale images, text rendering and noise — the input side of the
//! OCR workload.

use super::font::{glyph, GLYPH_H, GLYPH_SPACING, GLYPH_W};
use simkit::SimRng;

/// An 8-bit grayscale image (0 = black ink, 255 = white paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixels.
    pub pixels: Vec<u8>,
}

impl GrayImage {
    /// A blank (white) image.
    pub fn blank(width: usize, height: usize) -> Self {
        GrayImage {
            width,
            height,
            pixels: vec![255; width * height],
        }
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.pixels[y * self.width + x] = v;
    }

    /// Size in bytes when "transferred" (raw + small header).
    pub fn byte_size(&self) -> u64 {
        (self.pixels.len() + 16) as u64
    }
}

/// Integer scale factor applied when rendering glyphs (bigger scale =
/// more pixels = more OCR compute).
pub const RENDER_SCALE: usize = 3;

/// Render `text` (characters outside the alphabet become spaces) into a
/// fresh image, one line, glyphs scaled by [`RENDER_SCALE`].
pub fn render_text(text: &str) -> GrayImage {
    let cell_w = (GLYPH_W + GLYPH_SPACING) * RENDER_SCALE;
    let margin = 2 * RENDER_SCALE;
    let width = margin * 2 + cell_w * text.chars().count().max(1);
    let height = margin * 2 + GLYPH_H * RENDER_SCALE;
    let mut img = GrayImage::blank(width, height);
    for (i, ch) in text.chars().enumerate() {
        let g = glyph(ch).or_else(|| glyph(' ')).expect("space exists");
        let x0 = margin + i * cell_w;
        for gy in 0..GLYPH_H {
            for gx in 0..GLYPH_W {
                if super::font::pixel(g, gx, gy) {
                    for sy in 0..RENDER_SCALE {
                        for sx in 0..RENDER_SCALE {
                            img.set(
                                x0 + gx * RENDER_SCALE + sx,
                                margin + gy * RENDER_SCALE + sy,
                                0,
                            );
                        }
                    }
                }
            }
        }
    }
    img
}

/// Pixels noised per pass: the undecided ones of a chunk wait on the
/// stack (18 bytes each) between drawing and finishing.
const NOISE_CHUNK: usize = 256;

/// Add zero-mean Gaussian noise with `sigma` gray levels and flip a
/// `salt_pepper` fraction of pixels to pure black/white.
///
/// Per pixel the draws are the salt-and-pepper trial (and its coin),
/// else one Box–Muller normal, and the pixel becomes
/// `clamp(pixel + normal)`. The clamp throws most of that arithmetic
/// away: white paper plus a non-negative normal is white, black ink
/// plus a non-positive one is black, and the normal's sign is the sign
/// of `cos(τ·u2)`. So a pass over a chunk makes every draw in order
/// and keeps only the pixels that `u2` alone, well clear of ¼ and ¾,
/// does not decide; a second pass finishes those with the exact
/// expression. The bytes are the same as finishing every pixel.
pub fn add_noise(img: &mut GrayImage, sigma: f64, salt_pepper: f64, rng: &mut SimRng) {
    // An infinite sigma turns a zero normal into NaN, which the clamp
    // does not send to the paper's colour: decide nothing then.
    let shortcut = sigma.is_finite();
    let mut at = [0u16; NOISE_CHUNK];
    let mut u1s = [0f64; NOISE_CHUNK];
    let mut u2s = [0f64; NOISE_CHUNK];
    for chunk in img.pixels.chunks_mut(NOISE_CHUNK) {
        let mut undecided = 0;
        for (i, p) in chunk.iter_mut().enumerate() {
            if rng.bernoulli(salt_pepper) {
                *p = if rng.bernoulli(0.5) { 0 } else { 255 };
            } else if sigma > 0.0 {
                let (u1, u2) = rng.normal_draw();
                let up = !(0.2499..=0.7501).contains(&u2);
                let down = (0.2501..0.7499).contains(&u2);
                let decided = shortcut & (((*p == 255) & up) | ((*p == 0) & down));
                at[undecided] = i as u16;
                u1s[undecided] = u1;
                u2s[undecided] = u2;
                undecided += usize::from(!decided);
            }
        }
        for k in 0..undecided {
            let p = &mut chunk[usize::from(at[k])];
            let noisy = *p as f64 + SimRng::normal_finish(u1s[k], u2s[k], 0.0, sigma);
            *p = noisy.clamp(0.0, 255.0) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_image_is_white() {
        let img = GrayImage::blank(10, 5);
        assert_eq!(img.get(0, 0), 255);
        assert_eq!(img.get(9, 4), 255);
        assert_eq!(img.pixels.len(), 50);
    }

    #[test]
    fn rendering_paints_ink() {
        let img = render_text("HI");
        let ink = img.pixels.iter().filter(|&&p| p == 0).count();
        assert!(ink > 50, "expected ink pixels, got {ink}");
        // Wider text → wider image.
        assert!(render_text("HELLO").width > img.width);
    }

    #[test]
    fn unknown_chars_render_as_space() {
        let with_punct = render_text("A!B");
        let with_space = render_text("A B");
        assert_eq!(with_punct.pixels, with_space.pixels);
    }

    #[test]
    fn noise_perturbs_pixels_deterministically() {
        let mut a = render_text("TEST");
        let mut b = a.clone();
        let clean = a.clone();
        add_noise(&mut a, 20.0, 0.01, &mut SimRng::new(7));
        add_noise(&mut b, 20.0, 0.01, &mut SimRng::new(7));
        assert_eq!(a.pixels, b.pixels, "same seed, same noise");
        assert_ne!(a.pixels, clean.pixels, "noise changed something");
    }

    #[test]
    fn noise_matches_finishing_every_pixel() {
        // Every gray level, then runs of ink and paper as on a page.
        let page: Vec<u8> = (0..=255u8)
            .chain([0; 300])
            .chain([255; 300])
            .cycle()
            .take(8192)
            .collect();
        for sigma in [-1.0, 0.0, 1e-3, 25.0, 120.0, 1e300, f64::INFINITY] {
            for salt in [0.0, 0.05, 1.0] {
                let mut fast = GrayImage {
                    width: page.len(),
                    height: 1,
                    pixels: page.clone(),
                };
                let mut fast_rng = SimRng::new(3);
                add_noise(&mut fast, sigma, salt, &mut fast_rng);
                let mut exact = page.clone();
                let mut rng = SimRng::new(3);
                for p in exact.iter_mut() {
                    if rng.bernoulli(salt) {
                        *p = if rng.bernoulli(0.5) { 0 } else { 255 };
                    } else if sigma > 0.0 {
                        *p = (*p as f64 + rng.normal(0.0, sigma)).clamp(0.0, 255.0) as u8;
                    }
                }
                assert_eq!(fast.pixels, exact, "sigma {sigma}, salt {salt}");
                assert_eq!(
                    fast_rng.uniform01().to_bits(),
                    rng.uniform01().to_bits(),
                    "sigma {sigma}, salt {salt}: the same draws"
                );
            }
        }
    }

    #[test]
    fn byte_size_tracks_dimensions() {
        let img = GrayImage::blank(100, 50);
        assert_eq!(img.byte_size(), 5016);
    }
}
