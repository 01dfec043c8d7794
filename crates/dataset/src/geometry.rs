//! Axis-aligned box geometry for object annotations, multiscale tiles,
//! and region feedback.

/// An axis-aligned bounding box in pixel coordinates (origin top-left).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x: f32,
    /// Top edge.
    pub y: f32,
    /// Width (≥ 0).
    pub w: f32,
    /// Height (≥ 0).
    pub h: f32,
}

impl BBox {
    /// Construct a box; negative sizes are clamped to zero.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        Self {
            x,
            y,
            w: w.max(0.0),
            h: h.max(0.0),
        }
    }

    /// Box area.
    #[inline]
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Intersection box, or `None` when disjoint (touching edges count
    /// as disjoint — zero-area overlap is not feedback overlap).
    pub fn intersect(&self, other: &BBox) -> Option<BBox> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = (self.x + self.w).min(other.x + other.w);
        let y1 = (self.y + self.h).min(other.y + other.h);
        if x1 > x0 && y1 > y0 {
            Some(BBox::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// Area of the intersection with `other` (0 when disjoint).
    #[inline]
    pub fn intersection_area(&self, other: &BBox) -> f32 {
        self.intersect(other).map_or(0.0, |b| b.area())
    }

    /// Whether the boxes overlap with positive area.
    #[inline]
    pub fn overlaps(&self, other: &BBox) -> bool {
        self.intersection_area(other) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_clamping() {
        assert_eq!(BBox::new(0.0, 0.0, 3.0, 4.0).area(), 12.0);
        assert_eq!(BBox::new(0.0, 0.0, -3.0, 4.0).area(), 0.0);
    }

    #[test]
    fn intersection_of_overlapping_boxes() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(5.0, 5.0, 10.0, 10.0);
        let i = a.intersect(&b).unwrap();
        assert_eq!((i.x, i.y, i.w, i.h), (5.0, 5.0, 5.0, 5.0));
        assert_eq!(a.intersection_area(&b), 25.0);
        assert!(a.overlaps(&b));
    }

    #[test]
    fn disjoint_and_touching_boxes() {
        let a = BBox::new(0.0, 0.0, 5.0, 5.0);
        let b = BBox::new(5.0, 0.0, 5.0, 5.0); // shares an edge only
        let c = BBox::new(20.0, 20.0, 2.0, 2.0);
        assert!(a.intersect(&b).is_none());
        assert!(!a.overlaps(&b));
        assert!(a.intersect(&c).is_none());
    }
}
