//! Fundamental NoC types: node identifiers, coordinates, directions, ports.

use std::fmt;

use sirtm_taskgraph::GridDims;

/// Simulation time in NoC clock cycles.
///
/// The platform maps cycles to wall-clock milliseconds via its
/// `cycles_per_ms` configuration (default 100, i.e. one cycle = 10 µs).
pub type Cycle = u64;

/// Identifier of a node (processing element + router tile).
///
/// Node ids are linear indices into the grid, row-major
/// (`id = y * width + x`), matching [`GridDims`] indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a linear index.
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// The linear index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw `u16` value.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Coordinate of this node on a grid of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the grid.
    pub fn coord(self, dims: GridDims) -> Coord {
        let (x, y) = dims.xy(self.index());
        Coord { x, y }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An `(x, y)` grid coordinate. `y` grows southward (row 0 is the top row
/// where the paper's experiment controller attaches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Column, 0-based from the west edge.
    pub x: u16,
    /// Row, 0-based from the north edge.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Linear node id on a grid of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn node(self, dims: GridDims) -> NodeId {
        NodeId::new(dims.index(self.x, self.y) as u16)
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(self, other: Coord) -> u32 {
        (self.x.abs_diff(other.x) + self.y.abs_diff(other.y)) as u32
    }

    /// The neighbouring coordinate in `dir`, or `None` at the grid edge.
    pub fn neighbour(self, dir: Direction, dims: GridDims) -> Option<Coord> {
        let (x, y) = (self.x as i32, self.y as i32);
        let (nx, ny) = match dir {
            Direction::North => (x, y - 1),
            Direction::East => (x + 1, y),
            Direction::South => (x, y + 1),
            Direction::West => (x - 1, y),
        };
        if nx < 0 || ny < 0 || nx >= dims.width() as i32 || ny >= dims.height() as i32 {
            None
        } else {
            Some(Coord::new(nx as u16, ny as u16))
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The four cardinal link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Towards row 0.
    North,
    /// Towards larger x.
    East,
    /// Towards larger y.
    South,
    /// Towards smaller x.
    West,
}

impl Direction {
    /// All directions in N, E, S, W order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The opposite direction (links are symmetric).
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Dense index in `0..4` (N, E, S, W).
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// The six ports of the Centurion router (Fig. 2a): four cardinal link
/// ports, the internal port to the processing element, and the Router
/// Configuration Access Port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Port {
    /// North link port.
    North,
    /// East link port.
    East,
    /// South link port.
    South,
    /// West link port.
    West,
    /// Port to the local processing element.
    Internal,
    /// Router Configuration Access Port (consumes config packets).
    Rcap,
}

impl Port {
    /// All six ports.
    pub const ALL: [Port; 6] = [
        Port::North,
        Port::East,
        Port::South,
        Port::West,
        Port::Internal,
        Port::Rcap,
    ];

    /// Dense index in `0..6`.
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::East => 1,
            Port::South => 2,
            Port::West => 3,
            Port::Internal => 4,
            Port::Rcap => 5,
        }
    }

    /// The cardinal direction of a link port, or `None` for
    /// internal/RCAP.
    pub fn direction(self) -> Option<Direction> {
        match self {
            Port::North => Some(Direction::North),
            Port::East => Some(Direction::East),
            Port::South => Some(Direction::South),
            Port::West => Some(Direction::West),
            Port::Internal | Port::Rcap => None,
        }
    }
}

impl From<Direction> for Port {
    fn from(d: Direction) -> Port {
        match d {
            Direction::North => Port::North,
            Direction::East => Port::East,
            Direction::South => Port::South,
            Direction::West => Port::West,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::North => "N",
            Port::East => "E",
            Port::South => "S",
            Port::West => "W",
            Port::Internal => "INT",
            Port::Rcap => "RCAP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> GridDims {
        GridDims::new(8, 16)
    }

    #[test]
    fn node_coord_roundtrip() {
        let d = dims();
        for idx in [0usize, 7, 8, 127] {
            let n = NodeId::new(idx as u16);
            assert_eq!(n.coord(d).node(d), n);
        }
    }

    #[test]
    fn coord_display_and_distance() {
        let a = Coord::new(1, 2);
        let b = Coord::new(4, 0);
        assert_eq!(a.to_string(), "(1,2)");
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
    }

    #[test]
    fn neighbours_respect_edges() {
        let d = dims();
        let corner = Coord::new(0, 0);
        assert_eq!(corner.neighbour(Direction::North, d), None);
        assert_eq!(corner.neighbour(Direction::West, d), None);
        assert_eq!(corner.neighbour(Direction::East, d), Some(Coord::new(1, 0)));
        assert_eq!(
            corner.neighbour(Direction::South, d),
            Some(Coord::new(0, 1))
        );
        let far = Coord::new(7, 15);
        assert_eq!(far.neighbour(Direction::East, d), None);
        assert_eq!(far.neighbour(Direction::South, d), None);
    }

    #[test]
    fn direction_opposites_and_indices() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(Direction::ALL[d.index()], d);
        }
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::East.opposite(), Direction::West);
    }

    #[test]
    fn port_indices_are_dense() {
        for (i, p) in Port::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn port_direction_mapping() {
        assert_eq!(Port::North.direction(), Some(Direction::North));
        assert_eq!(Port::Internal.direction(), None);
        assert_eq!(Port::Rcap.direction(), None);
        assert_eq!(Port::from(Direction::West), Port::West);
    }

    #[test]
    fn neighbour_links_are_symmetric() {
        let d = dims();
        let c = Coord::new(3, 7);
        for dir in Direction::ALL {
            if let Some(n) = c.neighbour(dir, d) {
                assert_eq!(n.neighbour(dir.opposite(), d), Some(c));
            }
        }
    }
}
