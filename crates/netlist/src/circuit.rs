//! The circuit data model: cells, pins, nets and the [`Circuit`] container.
//!
//! The model mirrors the Bookshelf view of a design used by the ISPD-2011 /
//! DAC-2012 contests: cells (movable or terminal) with rectangular shapes,
//! and nets connecting pins, where each pin is a `(cell, offset)` pair.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{NetlistError, Result};
use crate::geometry::{Point, Rect};

/// Index of a cell within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

/// Index of a net within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

impl CellId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NetId {
    /// The raw index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether a cell may be moved by the placer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellKind {
    /// A standard cell whose position the placer optimises.
    Movable,
    /// A terminal (pad or macro) fixed during floor-planning.
    Terminal,
}

/// A physical cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Unique name (Bookshelf node name).
    pub name: String,
    /// Cell width.
    pub width: f32,
    /// Cell height.
    pub height: f32,
    /// Movable or terminal.
    pub kind: CellKind,
}

impl Cell {
    /// Convenience constructor for a movable cell.
    pub fn movable(name: impl Into<String>, width: f32, height: f32) -> Self {
        Self { name: name.into(), width, height, kind: CellKind::Movable }
    }

    /// Convenience constructor for a terminal cell.
    pub fn terminal(name: impl Into<String>, width: f32, height: f32) -> Self {
        Self { name: name.into(), width, height, kind: CellKind::Terminal }
    }

    /// Whether this cell is a terminal.
    pub fn is_terminal(&self) -> bool {
        self.kind == CellKind::Terminal
    }
}

/// A pin: a connection point of a net on a cell, with an offset from the
/// cell centre.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pin {
    /// The cell the pin sits on.
    pub cell: CellId,
    /// Offset of the pin from the cell centre.
    pub offset: Point,
}

impl Pin {
    /// Creates a pin at the cell centre.
    pub fn at_center(cell: CellId) -> Self {
        Self { cell, offset: Point::default() }
    }
}

/// A net: a set of pins to be connected by one routed wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// Unique name (Bookshelf net name).
    pub name: String,
    /// The pins this net connects.
    pub pins: Vec<Pin>,
}

impl Net {
    /// Creates a named net from pins.
    pub fn new(name: impl Into<String>, pins: Vec<Pin>) -> Self {
        Self { name: name.into(), pins }
    }

    /// Number of pins.
    pub fn degree(&self) -> usize {
        self.pins.len()
    }
}

/// A complete circuit: die outline, cells and nets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    /// Design name.
    pub name: String,
    /// Die (placement region) outline.
    pub die: Rect,
    cells: Vec<Cell>,
    nets: Vec<Net>,
}

impl Circuit {
    /// Creates an empty circuit with the given die outline.
    pub fn new(name: impl Into<String>, die: Rect) -> Self {
        Self { name: name.into(), die, cells: Vec::new(), nets: Vec::new() }
    }

    /// Adds a cell and returns its id.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        self.cells.push(cell);
        CellId((self.cells.len() - 1) as u32)
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, net: Net) -> NetId {
        self.nets.push(net);
        NetId((self.nets.len() - 1) as u32)
    }

    /// All cells, indexable by [`CellId::index`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets, indexable by `NetId::index`.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_terminal()).count()
    }

    /// Number of terminal cells.
    pub fn num_terminals(&self) -> usize {
        self.cells.iter().filter(|c| c.is_terminal()).count()
    }

    /// Total number of pins across all nets.
    pub(crate) fn num_pins(&self) -> usize {
        self.nets.iter().map(Net::degree).sum()
    }

    /// For each cell, the list of nets touching it.
    pub fn cell_to_nets(&self) -> Vec<Vec<NetId>> {
        let mut map = vec![Vec::new(); self.cells.len()];
        for (ni, net) in self.nets.iter().enumerate() {
            for pin in &net.pins {
                map[pin.cell.index()].push(NetId(ni as u32));
            }
        }
        for v in &mut map {
            v.dedup();
        }
        map
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: a pin referencing a missing cell,
    /// a non-positive cell dimension, a duplicate cell name, or a net with
    /// fewer than two pins.
    pub fn validate(&self) -> Result<()> {
        let mut seen = HashMap::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.width <= 0.0 || cell.height <= 0.0 {
                return Err(NetlistError::InvalidCell {
                    name: cell.name.clone(),
                    reason: format!("non-positive size {}x{}", cell.width, cell.height),
                });
            }
            if let Some(prev) = seen.insert(cell.name.as_str(), i) {
                return Err(NetlistError::InvalidCell {
                    name: cell.name.clone(),
                    reason: format!("duplicate name (cells {prev} and {i})"),
                });
            }
        }
        for net in &self.nets {
            if net.degree() < 2 {
                return Err(NetlistError::InvalidNet {
                    name: net.name.clone(),
                    reason: format!("degree {} < 2", net.degree()),
                });
            }
            for pin in &net.pins {
                if pin.cell.index() >= self.cells.len() {
                    return Err(NetlistError::InvalidNet {
                        name: net.name.clone(),
                        reason: format!("pin references missing cell {}", pin.cell.0),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A placement solution: one centre position per cell of a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Placement {
    positions: Vec<Point>,
}

impl Placement {
    /// Creates an all-origin placement for `n` cells.
    pub fn zeroed(n: usize) -> Self {
        Self { positions: vec![Point::default(); n] }
    }

    /// Number of placed cells.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The position of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn position(&self, id: CellId) -> Point {
        self.positions[id.index()]
    }

    /// Sets the position of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_position(&mut self, id: CellId, p: Point) {
        self.positions[id.index()] = p;
    }

    /// All positions (indexed by [`CellId::index`]).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The absolute location of `pin` under this placement.
    pub fn pin_position(&self, pin: &Pin) -> Point {
        let base = self.position(pin.cell);
        base.offset(pin.offset.x, pin.offset.y)
    }

    /// The bounding box of a net's pins under this placement.
    pub fn net_bbox(&self, net: &Net) -> Rect {
        let mut bbox = Rect::empty();
        for pin in &net.pins {
            bbox.absorb(self.pin_position(pin));
        }
        bbox
    }

    /// Total half-perimeter wirelength over all nets.
    pub fn total_hpwl(&self, circuit: &Circuit) -> f64 {
        circuit.nets().iter().map(|n| f64::from(self.net_bbox(n).half_perimeter())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Circuit, Placement) {
        let mut c = Circuit::new("tiny", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        let b = c.add_cell(Cell::movable("b", 1.0, 1.0));
        let t = c.add_cell(Cell::terminal("t", 2.0, 2.0));
        c.add_net(Net::new("n1", vec![Pin::at_center(a), Pin::at_center(b)]));
        c.add_net(Net::new(
            "n2",
            vec![Pin::at_center(b), Pin { cell: t, offset: Point::new(0.5, -0.5) }],
        ));
        let mut p = Placement::zeroed(3);
        p.set_position(a, Point::new(1.0, 1.0));
        p.set_position(b, Point::new(4.0, 5.0));
        p.set_position(t, Point::new(9.0, 9.0));
        (c, p)
    }

    #[test]
    fn counts() {
        let (c, _) = tiny();
        assert_eq!(c.num_cells(), 3);
        assert_eq!(c.num_nets(), 2);
        assert_eq!(c.num_movable(), 2);
        assert_eq!(c.num_terminals(), 1);
        assert_eq!(c.num_pins(), 4);
    }

    #[test]
    fn validation_passes_on_well_formed() {
        let (c, _) = tiny();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degree_one_net() {
        let mut c = Circuit::new("bad", Rect::new(0.0, 0.0, 1.0, 1.0));
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        c.add_net(Net::new("n", vec![Pin::at_center(a)]));
        assert!(matches!(c.validate(), Err(NetlistError::InvalidNet { .. })));
    }

    #[test]
    fn validation_rejects_duplicate_names() {
        let mut c = Circuit::new("bad", Rect::new(0.0, 0.0, 1.0, 1.0));
        c.add_cell(Cell::movable("a", 1.0, 1.0));
        c.add_cell(Cell::movable("a", 1.0, 1.0));
        assert!(matches!(c.validate(), Err(NetlistError::InvalidCell { .. })));
    }

    #[test]
    fn validation_rejects_dangling_pin() {
        let mut c = Circuit::new("bad", Rect::new(0.0, 0.0, 1.0, 1.0));
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        c.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(CellId(99))]));
        assert!(matches!(c.validate(), Err(NetlistError::InvalidNet { .. })));
    }

    #[test]
    fn pin_position_applies_offset() {
        let (c, p) = tiny();
        let net = c.net(NetId(1));
        let pin = net.pins[1];
        assert_eq!(p.pin_position(&pin), Point::new(9.5, 8.5));
    }

    #[test]
    fn hpwl_matches_hand_computation() {
        let (c, p) = tiny();
        // n1 bbox: (1,1)-(4,5) -> 3+4=7 ; n2 bbox: (4,5)-(9.5,8.5) -> 5.5+3.5=9
        assert!((p.total_hpwl(&c) - 16.0).abs() < 1e-6);
    }

    #[test]
    fn cell_to_nets_deduplicates() {
        let mut c = Circuit::new("x", Rect::new(0.0, 0.0, 1.0, 1.0));
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        let b = c.add_cell(Cell::movable("b", 1.0, 1.0));
        // net touches cell a with two pins
        c.add_net(Net::new(
            "n",
            vec![
                Pin { cell: a, offset: Point::new(0.1, 0.0) },
                Pin { cell: a, offset: Point::new(-0.1, 0.0) },
                Pin::at_center(b),
            ],
        ));
        let map = c.cell_to_nets();
        assert_eq!(map[a.index()].len(), 1);
        assert_eq!(map[b.index()].len(), 1);
    }
}
