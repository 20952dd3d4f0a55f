//! Template-matching recogniser — the compute kernel of the OCR
//! workload (the paper's OCR uses Tesseract via JNI; ours is a
//! from-scratch correlation matcher over the same glyph geometry).

use super::font::{char_at, glyph, pixel, template_count, GLYPH_H, GLYPH_SPACING, GLYPH_W};
use super::image::{GrayImage, RENDER_SCALE};

/// Result of recognising one image.
#[derive(Debug, Clone, PartialEq)]
pub struct OcrResult {
    /// Recognised text.
    pub text: String,
    /// Mean per-character confidence in `[0, 1]`.
    pub confidence: f64,
    /// Template comparisons performed (compute-cost proxy).
    pub comparisons: u64,
}

/// A glyph box: one template glyph at [`RENDER_SCALE`].
const BOX_W: usize = GLYPH_W * RENDER_SCALE;
const BOX_H: usize = GLYPH_H * RENDER_SCALE;

/// A glyph box as bits: bit `y * BOX_W + x` is pixel (x, y) of the box.
type BoxBits = [u64; (BOX_W * BOX_H).div_ceil(64)];

fn set_bit(bits: &mut BoxBits, i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Every template glyph scaled to a box, its bits set where it inks.
fn scaled_templates() -> [BoxBits; template_count()] {
    let mut out = [BoxBits::default(); template_count()];
    for (t, bits) in out.iter_mut().enumerate() {
        let g = glyph(char_at(t)).expect("template chars have glyphs");
        for i in 0..BOX_W * BOX_H {
            if pixel(g, i % BOX_W / RENDER_SCALE, i / BOX_W / RENDER_SCALE) {
                set_bit(bits, i);
            }
        }
    }
    out
}

/// The image's box at (x0, y0), binarised with a fixed mid-gray
/// threshold: `(ink, valid)`, where `valid` marks the pixels that lie
/// on the image (a box the image edge clips compares only those).
fn binarise(img: &GrayImage, x0: usize, y0: usize) -> (BoxBits, BoxBits) {
    let (mut ink, mut valid) = (BoxBits::default(), BoxBits::default());
    for y in 0..BOX_H.min(img.height.saturating_sub(y0)) {
        let row = &img.pixels[(y0 + y) * img.width..(y0 + y + 1) * img.width];
        for x in 0..BOX_W.min(img.width.saturating_sub(x0)) {
            set_bit(&mut valid, y * BOX_W + x);
            if row[x0 + x] < 128 {
                set_bit(&mut ink, y * BOX_W + x);
            }
        }
    }
    (ink, valid)
}

/// Recognise a single-line image produced by
/// [`render_text`](super::image::render_text) (possibly noisy).
///
/// Each cell's box is scored against every template as the fraction of
/// its on-image pixels whose ink agrees with the template's (0 if none
/// is on the image).
pub fn recognize(img: &GrayImage) -> OcrResult {
    let cell_w = (GLYPH_W + GLYPH_SPACING) * RENDER_SCALE;
    let margin = 2 * RENDER_SCALE;
    if img.width <= 2 * margin || img.height <= 2 * margin {
        return OcrResult {
            text: String::new(),
            confidence: 0.0,
            comparisons: 0,
        };
    }
    let templates = scaled_templates();
    let cells = (img.width - 2 * margin) / cell_w;
    let mut text = String::with_capacity(cells);
    let mut conf_sum = 0.0;
    let mut comparisons = 0u64;
    for c in 0..cells {
        let (ink, valid) = binarise(img, margin + c * cell_w, margin);
        let total: u32 = valid.iter().map(|w| w.count_ones()).sum();
        let mut best = (0usize, -1.0f64);
        for (t, template) in templates.iter().enumerate() {
            let agree: u32 = (0..valid.len())
                .map(|w| (!(ink[w] ^ template[w]) & valid[w]).count_ones())
                .sum();
            let score = f64::from(agree) / f64::from(total.max(1));
            comparisons += 1;
            if score > best.1 {
                best = (t, score);
            }
        }
        text.push(char_at(best.0));
        conf_sum += best.1;
    }
    let confidence = if cells == 0 {
        0.0
    } else {
        conf_sum / cells as f64
    };
    // Trim trailing spaces the cell grid may have produced.
    let text = text.trim_end().to_string();
    OcrResult {
        text,
        confidence,
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ocr::image::{add_noise, render_text};
    use simkit::SimRng;

    #[test]
    fn clean_text_round_trips() {
        for text in ["HELLO WORLD", "RATTRAP 2017", "THE QUICK BROWN FOX 123"] {
            let img = render_text(text);
            let r = recognize(&img);
            assert_eq!(r.text, text);
            assert!(r.confidence > 0.99, "confidence {}", r.confidence);
        }
    }

    #[test]
    fn survives_moderate_noise() {
        let mut rng = SimRng::new(42);
        let text = "OFFLOAD THIS TO THE CLOUD";
        let mut img = render_text(text);
        add_noise(&mut img, 30.0, 0.02, &mut rng);
        let r = recognize(&img);
        // Allow a couple of character errors under noise.
        let errors = r
            .text
            .chars()
            .zip(text.chars())
            .filter(|(a, b)| a != b)
            .count()
            + r.text.len().abs_diff(text.len());
        assert!(errors <= 2, "got {:?} ({errors} errors)", r.text);
    }

    #[test]
    fn heavy_noise_lowers_confidence() {
        let mut rng = SimRng::new(43);
        let mut clean = render_text("CONFIDENCE");
        let clean_conf = recognize(&clean).confidence;
        add_noise(&mut clean, 120.0, 0.25, &mut rng);
        let noisy_conf = recognize(&clean).confidence;
        assert!(noisy_conf < clean_conf);
    }

    #[test]
    fn comparisons_scale_with_text_length() {
        let short = recognize(&render_text("AB"));
        let long = recognize(&render_text("ABCDEFGH"));
        assert_eq!(short.comparisons, 2 * template_count() as u64);
        assert_eq!(long.comparisons, 8 * template_count() as u64);
    }

    #[test]
    fn degenerate_images() {
        let tiny = GrayImage::blank(3, 3);
        let r = recognize(&tiny);
        assert_eq!(r.text, "");
        assert_eq!(r.comparisons, 0);
    }
}
