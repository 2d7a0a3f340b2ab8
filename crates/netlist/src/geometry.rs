//! Planar geometry primitives: [`Point`] and [`Rect`].

use serde::{Deserialize, Serialize};

/// A point in the die plane (unit = placement database units).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f32,
    /// Vertical coordinate.
    pub y: f32,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Componentwise sum.
    pub(crate) fn offset(self, dx: f32, dy: f32) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f32 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// An axis-aligned rectangle `[lx, ux] × [ly, uy]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge.
    pub lx: f32,
    /// Bottom edge.
    pub ly: f32,
    /// Right edge.
    pub ux: f32,
    /// Top edge.
    pub uy: f32,
}

impl Rect {
    /// Creates a rectangle from its corners.
    ///
    /// # Panics
    ///
    /// Panics if `ux < lx` or `uy < ly`.
    pub fn new(lx: f32, ly: f32, ux: f32, uy: f32) -> Self {
        assert!(ux >= lx && uy >= ly, "degenerate rect: ({lx},{ly})-({ux},{uy})");
        Self { lx, ly, ux, uy }
    }

    /// The empty rectangle used as a bounding-box seed.
    pub(crate) fn empty() -> Self {
        Self { lx: f32::INFINITY, ly: f32::INFINITY, ux: f32::NEG_INFINITY, uy: f32::NEG_INFINITY }
    }

    /// Whether this is the `Rect::empty` seed (no point absorbed yet).
    pub fn is_empty(&self) -> bool {
        self.lx > self.ux || self.ly > self.uy
    }

    /// Width (`0` for an empty rect).
    pub fn width(&self) -> f32 {
        (self.ux - self.lx).max(0.0)
    }

    /// Height (`0` for an empty rect).
    pub fn height(&self) -> f32 {
        (self.uy - self.ly).max(0.0)
    }

    /// Area (`0` for an empty rect).
    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new((self.lx + self.ux) * 0.5, (self.ly + self.uy) * 0.5)
    }

    /// Grows the rectangle to include `p`.
    pub(crate) fn absorb(&mut self, p: Point) {
        self.lx = self.lx.min(p.x);
        self.ly = self.ly.min(p.y);
        self.ux = self.ux.max(p.x);
        self.uy = self.uy.max(p.y);
    }

    /// Whether `p` lies inside (inclusive of edges).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lx && p.x <= self.ux && p.y >= self.ly && p.y <= self.uy
    }

    /// Whether two rectangles overlap (inclusive of shared edges).
    pub(crate) fn intersects(&self, other: &Rect) -> bool {
        self.lx <= other.ux && other.lx <= self.ux && self.ly <= other.uy && other.ly <= self.uy
    }

    /// The overlapping region, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lx: self.lx.max(other.lx),
            ly: self.ly.max(other.ly),
            ux: self.ux.min(other.ux),
            uy: self.uy.min(other.uy),
        })
    }

    /// Half-perimeter of the rectangle — HPWL of a net whose bounding box
    /// this is.
    pub fn half_perimeter(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Clamps a point into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.lx, self.ux), p.y.clamp(self.ly, self.uy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
    }

    #[test]
    fn rect_dimensions() {
        let r = Rect::new(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.half_perimeter(), 7.0);
        assert_eq!(r.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn empty_rect_absorbs_points() {
        let mut r = Rect::empty();
        assert!(r.is_empty());
        assert_eq!(r.half_perimeter(), 0.0);
        r.absorb(Point::new(1.0, 5.0));
        r.absorb(Point::new(-2.0, 3.0));
        assert!(!r.is_empty());
        assert_eq!(r.lx, -2.0);
        assert_eq!(r.uy, 5.0);
        assert_eq!(r.half_perimeter(), 3.0 + 2.0);
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 2.0)));
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&b), Some(Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert!(a.intersection(&c).is_none());
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn clamp_pins_to_edges() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.clamp(Point::new(5.0, -3.0)), Point::new(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "degenerate rect")]
    fn new_rejects_inverted() {
        Rect::new(1.0, 0.0, 0.0, 1.0);
    }
}
