//! The multiscale patch grid (paper §4.3).
//!
//! "a large-scale patch covering the full image, i.e., the coarse
//! embedding, plus a finer-grained tiling of 1/2 the size of the image,
//! as long as the resulting patch was larger than 224 pixels … a patch
//! of size 224 × 224 striding the image with a stride length of 224/2."
//!
//! The paper's worked example: a 448×448 image maps to 1 coarse tile +
//! 9 fine tiles (3×3 grid at stride 112) — 10 vectors; wider images add
//! more tiles along the wide dimension.

use seesaw_dataset::{BBox, ImageMeta};
use seesaw_embed::{ObjectPresence, PatchContent};

/// CLIP's native input size; fine tiles below this are not generated.
pub const CLIP_INPUT_PX: u32 = 224;

/// The tile boxes of one image: the coarse (full-image) tile first,
/// then the half-scale grid when its tiles are at least
/// [`CLIP_INPUT_PX`] on a side.
pub fn tile_boxes(width: u32, height: u32) -> Vec<BBox> {
    let mut tiles = vec![BBox::new(0.0, 0.0, width as f32, height as f32)];
    let side = width.min(height) / 2;
    if side < CLIP_INPUT_PX {
        return tiles;
    }
    let stride = (side / 2).max(1);
    let s = side as f32;
    let nx = ((width - side) / stride) as usize + 1;
    let ny = ((height - side) / stride) as usize + 1;
    for iy in 0..ny {
        for ix in 0..nx {
            tiles.push(BBox::new(
                (ix as u32 * stride) as f32,
                (iy as u32 * stride) as f32,
                s,
                s,
            ));
        }
    }
    tiles
}

/// What a tile of `image` contains: every object clipped to the tile
/// with its visible area share; the remainder is background clutter.
pub fn tile_content(image: &ImageMeta, tile: &BBox) -> PatchContent {
    let tile_area = tile.area().max(1.0);
    let mut objects = Vec::new();
    let mut covered = 0.0f32;
    for o in &image.objects {
        let inter = tile.intersection_area(&o.bbox);
        if inter <= 0.0 {
            continue;
        }
        let share = (inter / tile_area).min(1.0);
        covered += share;
        objects.push(ObjectPresence {
            concept: o.concept,
            mode: o.mode,
            instance: o.instance,
            share,
        });
    }
    PatchContent {
        objects,
        context: image.context,
        clutter: (1.0 - covered).clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_dataset::Annotation;

    #[test]
    fn paper_example_448_gives_ten_tiles() {
        let tiles = tile_boxes(448, 448);
        assert_eq!(tiles.len(), 10, "1 coarse + 9 fine");
        // Coarse first, full image.
        assert_eq!(tiles[0].w, 448.0);
        // Fine tiles are 224² at stride 112.
        assert_eq!(tiles[1].w, 224.0);
        assert_eq!(tiles[2].x, 112.0);
    }

    #[test]
    fn small_image_only_coarse() {
        let tiles = tile_boxes(224, 224);
        assert_eq!(tiles.len(), 1);
    }

    #[test]
    fn wide_image_adds_tiles_along_wide_dimension() {
        // 1280×720: side = 360, stride = 180 → nx = 6, ny = 3 → 18 + 1.
        let tiles = tile_boxes(1280, 720);
        assert_eq!(tiles.len(), 19);
        // All tiles stay inside the image.
        for t in &tiles {
            assert!(t.x >= 0.0 && t.y >= 0.0);
            assert!(t.x + t.w <= 1280.0 + 1e-3);
            assert!(t.y + t.h <= 720.0 + 1e-3);
        }
    }

    #[test]
    fn grid_covers_the_image() {
        // Union of fine tiles must reach every corner region.
        let tiles = tile_boxes(896, 896);
        let corners = [
            BBox::new(0.0, 0.0, 1.0, 1.0),
            BBox::new(895.0, 0.0, 1.0, 1.0),
            BBox::new(0.0, 895.0, 1.0, 1.0),
            BBox::new(895.0, 895.0, 1.0, 1.0),
        ];
        for c in &corners {
            assert!(
                tiles[1..].iter().any(|t| t.overlaps(c)),
                "corner {c:?} uncovered"
            );
        }
    }

    fn image_with_object(bbox: BBox) -> ImageMeta {
        ImageMeta {
            id: 0,
            width: 448,
            height: 448,
            context: 2,
            objects: vec![Annotation {
                concept: 7,
                mode: 1,
                instance: 3,
                bbox,
            }],
        }
    }

    #[test]
    fn tile_content_computes_shares() {
        let img = image_with_object(BBox::new(0.0, 0.0, 112.0, 112.0));
        let full = BBox::new(0.0, 0.0, 448.0, 448.0);
        let c = tile_content(&img, &full);
        assert_eq!(c.objects.len(), 1);
        let share = c.objects[0].share;
        assert!((share - (112.0 * 112.0) / (448.0 * 448.0)).abs() < 1e-6);
        assert!((c.clutter - (1.0 - share)).abs() < 1e-6);
        assert_eq!(c.context, 2);
        assert_eq!(c.objects[0].mode, 1);
    }

    #[test]
    fn small_object_fills_its_fine_tile_much_more() {
        // The multiscale rationale: the same object has ~16× larger share
        // in a quarter-area tile.
        let img = image_with_object(BBox::new(10.0, 10.0, 100.0, 100.0));
        let coarse = tile_content(&img, &BBox::new(0.0, 0.0, 448.0, 448.0));
        let fine = tile_content(&img, &BBox::new(0.0, 0.0, 224.0, 224.0));
        assert!(fine.objects[0].share > coarse.objects[0].share * 3.5);
    }

    #[test]
    fn object_outside_tile_is_absent() {
        let img = image_with_object(BBox::new(300.0, 300.0, 100.0, 100.0));
        let c = tile_content(&img, &BBox::new(0.0, 0.0, 224.0, 224.0));
        assert!(c.objects.is_empty());
        assert_eq!(c.clutter, 1.0);
    }
}
