//! What a patch *contains* — the input to the image tower.
//!
//! The dataset crate describes images as object layouts; the core crate's
//! multiscale tiler intersects tiles with objects and produces a
//! [`PatchContent`] per tile. Only then does the embedding model turn the
//! content into a vector, mirroring how real pixels only matter to CLIP
//! through what is visible inside the crop.

use crate::ConceptId;

/// One object (partially) visible inside a patch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectPresence {
    /// The object's category.
    pub concept: ConceptId,
    /// Which locality mode of the category this instance belongs to
    /// (always 0 for tightly clustered concepts).
    pub mode: u32,
    /// Globally unique instance id. Each physical object carries a
    /// deterministic *instance jitter* — its own idiosyncratic offset
    /// from the category direction (pose, texture, co-occurring
    /// context) — shared by every tile that sees it. This is what makes
    /// a single positive example an imperfect query, the generalization
    /// gap that few-shot learning suffers from (§3.2).
    pub instance: u32,
    /// Fraction of the patch area covered by the object, in `[0, 1]`.
    pub share: f32,
}

/// Everything visible inside one patch (a multiscale tile or a whole
/// image).
#[derive(Clone, Debug, PartialEq)]
pub struct PatchContent {
    /// Visible objects with their area shares.
    pub objects: Vec<ObjectPresence>,
    /// Which background context the parent image belongs to (street,
    /// indoor scene, …). Contexts give non-relevant patches coherent
    /// structure instead of pure noise.
    pub context: u32,
    /// Fraction of the patch that is background, in `[0, 1]`.
    pub clutter: f32,
}

#[cfg(test)]
impl PatchContent {
    /// A patch showing only background.
    pub fn background(context: u32) -> Self {
        Self {
            objects: Vec::new(),
            context,
            clutter: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_patch_has_no_objects() {
        let p = PatchContent::background(3);
        assert!(p.objects.is_empty());
        assert_eq!(p.clutter, 1.0);
        assert_eq!(p.context, 3);
    }
}
