//! Image metadata: the object layout that stands in for pixels.

use crate::geometry::BBox;
use crate::ImageId;
use seesaw_embed::ConceptId;

/// One annotated object instance inside an image.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Annotation {
    /// Object category.
    pub concept: ConceptId,
    /// Locality mode of this instance (see `seesaw_embed::ConceptSpec`).
    pub mode: u32,
    /// Globally unique instance id (drives the deterministic
    /// instance-jitter direction in the embedding model).
    pub instance: u32,
    /// Location within the image, pixel coordinates.
    pub bbox: BBox,
}

/// An image: dimensions, background context, and its objects.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageMeta {
    /// Image id, equal to its index within the dataset.
    pub id: ImageId,
    /// Pixel width.
    pub width: u32,
    /// Pixel height.
    pub height: u32,
    /// Background context id (selects the scene-type direction in the
    /// embedding model).
    pub context: u32,
    /// Annotated objects.
    pub objects: Vec<Annotation>,
}

#[cfg(test)]
impl ImageMeta {
    /// Whether any instance of `concept` appears in this image.
    pub fn contains_concept(&self, concept: ConceptId) -> bool {
        self.objects.iter().any(|o| o.concept == concept)
    }
}

impl ImageMeta {
    /// Ground-truth boxes of `concept` within this image.
    pub fn boxes_of(&self, concept: ConceptId) -> Vec<BBox> {
        self.objects
            .iter()
            .filter(|o| o.concept == concept)
            .map(|o| o.bbox)
            .collect()
    }

    /// The full-image box.
    pub fn full_box(&self) -> BBox {
        BBox::new(0.0, 0.0, self.width as f32, self.height as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> ImageMeta {
        ImageMeta {
            id: 0,
            width: 100,
            height: 50,
            context: 0,
            objects: vec![
                Annotation {
                    concept: 1,
                    mode: 0,
                    instance: 0,
                    bbox: BBox::new(0.0, 0.0, 10.0, 10.0),
                },
                Annotation {
                    concept: 1,
                    mode: 0,
                    instance: 0,
                    bbox: BBox::new(20.0, 20.0, 10.0, 10.0),
                },
                Annotation {
                    concept: 2,
                    mode: 0,
                    instance: 0,
                    bbox: BBox::new(50.0, 10.0, 5.0, 5.0),
                },
            ],
        }
    }

    #[test]
    fn concept_queries() {
        let img = image();
        assert!(img.contains_concept(1));
        assert!(img.contains_concept(2));
        assert!(!img.contains_concept(3));
        assert_eq!(img.boxes_of(1).len(), 2);
        assert_eq!(img.boxes_of(3).len(), 0);
    }

    #[test]
    fn full_box_covers_image() {
        let img = image();
        let fb = img.full_box();
        assert_eq!(fb.area(), 5000.0);
        for o in &img.objects {
            assert!(fb.overlaps(&o.bbox));
        }
    }
}
