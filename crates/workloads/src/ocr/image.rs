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
/// stack (26 bytes each) between drawing and finishing.
const NOISE_CHUNK: usize = 256;

/// A quarter turn of `u2`, as [`SimRng::bits53`] draws it.
const QUARTER: u64 = 1 << 51;
/// How far from a quarter turn `u2` must be for the sign of `cos(τ·u2)`
/// to be decided by `u2` alone: 2⁻¹³ of a turn, ≈ 7.7·10⁻⁴ rad, far
/// beyond where libm's rounded `τ·u2` and its `cos` could be.
const SIGN_MARGIN: u64 = 1 << 40;

/// Add zero-mean Gaussian noise with `sigma` gray levels and flip a
/// `salt_pepper` fraction of pixels to pure black/white.
///
/// Per pixel the draws are the salt-and-pepper trial (and its coin),
/// else one Box–Muller normal, and the pixel becomes
/// `clamp(pixel + normal)`, truncated to a byte. The bytes are the same
/// as finishing every pixel with [`SimRng::normal_finish`], and so is
/// the stream's position after the image; only the arithmetic between
/// draw and byte is cheaper, in three tiers:
///
/// - The draws are [`SimRng::bits53`] compared with integer cuts
///   ([`SimRng::bernoulli_cut`]), not uniforms.
/// - The clamp decides most pixels: white paper plus a non-negative
///   normal is white, black ink plus a non-positive one is black, and
///   the normal has the sign of `cos(τ·u2)`, which `u2`'s bits decide
///   away from a quarter turn. A chunk's first pass makes every draw in
///   order and keeps the others (about half of a page) on the stack.
/// - The second pass works out [`SimRng::normal_near`] for every kept
///   pixel, a loop of plain arithmetic, then puts each on its byte with
///   [`SimRng::normal_grid_point`]: `normal_near ± δ` brackets libm's
///   normal, and `clamp(p + σ·z)` truncated is monotone in `z`, so when
///   both ends give one byte the exact normal gives it too. Only where a
///   byte boundary lies within `σ·δ` of the pixel's value (about `2σδ`
///   of kept pixels: 5·10⁻⁵ at σ = 25) does libm finish it exactly.
///
/// DESIGN.md §10 derives δ and why no byte can move.
pub fn add_noise(img: &mut GrayImage, sigma: f64, salt_pepper: f64, rng: &mut SimRng) {
    noise(img, sigma, salt_pepper, rng);
}

/// [`add_noise`], returning how many pixels the second pass took and how
/// many of those libm finished.
fn noise(img: &mut GrayImage, sigma: f64, salt_pepper: f64, rng: &mut SimRng) -> (usize, usize) {
    // An infinite sigma turns a zero normal into NaN, which the clamp
    // does not send to the paper's colour: decide nothing then.
    let shortcut = sigma.is_finite();
    let salt = SimRng::bernoulli_cut(salt_pepper);
    let coin = SimRng::bernoulli_cut(0.5);
    let byte = |v: f64| v.clamp(0.0, 255.0) as u8;
    let (mut kept, mut exact) = (0, 0);
    let mut at = [0u16; NOISE_CHUNK];
    let mut bits1 = [0u64; NOISE_CHUNK];
    let mut bits2 = [0u64; NOISE_CHUNK];
    let mut near = [0f64; NOISE_CHUNK];
    for chunk in img.pixels.chunks_mut(NOISE_CHUNK) {
        let mut undecided = 0;
        for (i, p) in chunk.iter_mut().enumerate() {
            if rng.bits53() < salt {
                *p = if rng.bits53() < coin { 0 } else { 255 };
            } else if sigma > 0.0 {
                let b1 = rng.bits53();
                let b2 = rng.bits53();
                let up = !(QUARTER - SIGN_MARGIN..=3 * QUARTER + SIGN_MARGIN).contains(&b2);
                let down = (QUARTER + SIGN_MARGIN..3 * QUARTER - SIGN_MARGIN).contains(&b2);
                let decided = shortcut & (((*p == 255) & up) | ((*p == 0) & down));
                at[undecided] = i as u16;
                bits1[undecided] = b1;
                bits2[undecided] = b2;
                undecided += usize::from(!decided);
            }
        }
        let kept_bits = bits1[..undecided].iter().zip(&bits2[..undecided]);
        for (z, (&b1, &b2)) in near.iter_mut().zip(kept_bits) {
            let (u1, u2) = SimRng::normal_uniforms(b1, b2);
            *z = SimRng::normal_near(u1, u2);
        }
        for k in 0..undecided {
            let p = &mut chunk[usize::from(at[k])];
            let gray = f64::from(*p);
            let point = SimRng::normal_grid_point(near[k], |z| byte(gray + sigma * z));
            *p = point.unwrap_or_else(|| {
                exact += 1;
                let (u1, u2) = SimRng::normal_uniforms(bits1[k], bits2[k]);
                byte(gray + SimRng::normal_finish(u1, u2, 0.0, sigma))
            });
        }
        kept += undecided;
    }
    (kept, exact)
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
    fn libm_finishes_about_2_sigma_delta_of_the_kept_pixels() {
        let text = "CONTAINER CLOUD OFFLOAD ANDROID BINDER KERNEL ".repeat(4);
        for sigma in [25.0, 120.0] {
            let (mut kept, mut exact) = (0, 0);
            for seed in 0..8 {
                let mut page = render_text(&text);
                let (k, e) = noise(&mut page, sigma, 0.01, &mut SimRng::new(seed));
                (kept, exact) = (kept + k, exact + e);
            }
            let rate = exact as f64 / kept as f64;
            let expected = 2.0 * sigma * SimRng::NORMAL_NEAR_DELTA;
            println!("sigma {sigma}: libm finished {exact} of {kept} kept pixels ({rate:.1e}; 2σδ = {expected:.1e})");
            assert!(kept > 300_000, "{kept}");
            assert!(exact > 0 && rate < 2.0 * expected, "{exact} of {kept}");
        }
    }

    #[test]
    fn byte_size_tracks_dimensions() {
        let img = GrayImage::blank(100, 50);
        assert_eq!(img.byte_size(), 5016);
    }
}
