//! Bookshelf format I/O (`.nodes` / `.nets` / `.pl` / `.aux`).
//!
//! This is the interchange format of the ISPD-2011 and DAC-2012 contest
//! suites the paper evaluates on. The subset implemented here covers what
//! congestion prediction needs: node sizes and terminal flags, net pin
//! lists with offsets, and placed locations.
//!
//! Two pragmatic conventions (documented because the contest `.scl` row
//! file is not parsed):
//!
//! * the die outline is written as a `# Die : lx ly ux uy` comment at the
//!   top of the `.pl` file and recovered on read; if absent, the die is the
//!   bounding box of all placed cells,
//! * pin offsets are relative to cell centres, as in the contest files.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::circuit::{Cell, CellId, CellKind, Circuit, Net, Pin, Placement};
use crate::error::{NetlistError, Result};
use crate::geometry::{Point, Rect};

/// Writes the `.nodes` file.
///
/// Generic writers are accepted by value; pass `&mut writer` to keep using
/// it afterwards.
///
/// # Errors
///
/// Propagates I/O failures.
pub(crate) fn write_nodes<W: Write>(circuit: &Circuit, mut w: W) -> Result<()> {
    writeln!(w, "UCLA nodes 1.0")?;
    writeln!(w, "# generated by vlsi-netlist")?;
    writeln!(w)?;
    writeln!(w, "NumNodes : {}", circuit.num_cells())?;
    writeln!(w, "NumTerminals : {}", circuit.num_terminals())?;
    for cell in circuit.cells() {
        if cell.is_terminal() {
            writeln!(w, "\t{}\t{}\t{}\tterminal", cell.name, cell.width, cell.height)?;
        } else {
            writeln!(w, "\t{}\t{}\t{}", cell.name, cell.width, cell.height)?;
        }
    }
    Ok(())
}

/// Writes the `.nets` file.
///
/// # Errors
///
/// Propagates I/O failures.
pub(crate) fn write_nets<W: Write>(circuit: &Circuit, mut w: W) -> Result<()> {
    writeln!(w, "UCLA nets 1.0")?;
    writeln!(w, "# generated by vlsi-netlist")?;
    writeln!(w)?;
    writeln!(w, "NumNets : {}", circuit.num_nets())?;
    writeln!(w, "NumPins : {}", circuit.num_pins())?;
    for net in circuit.nets() {
        writeln!(w, "NetDegree : {} {}", net.degree(), net.name)?;
        for pin in &net.pins {
            let cell = circuit.cell(pin.cell);
            writeln!(w, "\t{} I : {} {}", cell.name, pin.offset.x, pin.offset.y)?;
        }
    }
    Ok(())
}

/// Writes the `.pl` file (positions are cell centres).
///
/// # Errors
///
/// Propagates I/O failures.
pub(crate) fn write_pl<W: Write>(circuit: &Circuit, placement: &Placement, mut w: W) -> Result<()> {
    writeln!(w, "UCLA pl 1.0")?;
    let d = circuit.die;
    writeln!(w, "# Die : {} {} {} {}", d.lx, d.ly, d.ux, d.uy)?;
    writeln!(w)?;
    for (i, cell) in circuit.cells().iter().enumerate() {
        let p = placement.position(CellId(i as u32));
        if cell.is_terminal() {
            writeln!(w, "{}\t{}\t{} : N /FIXED", cell.name, p.x, p.y)?;
        } else {
            writeln!(w, "{}\t{}\t{} : N", cell.name, p.x, p.y)?;
        }
    }
    Ok(())
}

/// Writes the `.aux` index file.
///
/// # Errors
///
/// Propagates I/O failures.
pub(crate) fn write_aux<W: Write>(design: &str, mut w: W) -> Result<()> {
    writeln!(w, "RowBasedPlacement : {design}.nodes {design}.nets {design}.pl")?;
    Ok(())
}

/// Writes a full design (`.aux`, `.nodes`, `.nets`, `.pl`) into `dir`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_design(dir: &Path, circuit: &Circuit, placement: &Placement) -> Result<()> {
    fs::create_dir_all(dir)?;
    let name = circuit.name.clone();
    write_aux(&name, fs::File::create(dir.join(format!("{name}.aux")))?)?;
    write_nodes(circuit, fs::File::create(dir.join(format!("{name}.nodes")))?)?;
    write_nets(circuit, fs::File::create(dir.join(format!("{name}.nets")))?)?;
    write_pl(circuit, placement, fs::File::create(dir.join(format!("{name}.pl")))?)?;
    Ok(())
}

struct Lines<R> {
    reader: BufReader<R>,
    file: &'static str,
    lineno: usize,
}

impl<R: Read> Lines<R> {
    fn new(file: &'static str, r: R) -> Self {
        Self { reader: BufReader::new(r), file, lineno: 0 }
    }

    /// Next non-empty, non-comment line, trimmed.
    fn next_content(&mut self) -> Result<Option<(usize, String)>> {
        loop {
            let mut buf = String::new();
            let n = self.reader.read_line(&mut buf).map_err(NetlistError::Io)?;
            if n == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            let t = buf.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with("UCLA") {
                continue;
            }
            return Ok(Some((self.lineno, t.to_string())));
        }
    }

    fn err(&self, line: usize, reason: impl Into<String>) -> NetlistError {
        NetlistError::Parse { file: self.file, line, reason: reason.into() }
    }
}

fn parse_kv(line: &str) -> Option<(&str, &str)> {
    let (k, v) = line.split_once(':')?;
    Some((k.trim(), v.trim()))
}

/// Parses a `.nodes` file into `(cells, declared terminal count)`.
///
/// # Errors
///
/// Returns a [`NetlistError::Parse`] describing the first malformed line.
pub fn read_nodes<R: Read>(r: R) -> Result<Vec<Cell>> {
    let mut lines = Lines::new("nodes", r);
    let mut cells = Vec::new();
    let mut declared: Option<usize> = None;
    while let Some((ln, line)) = lines.next_content()? {
        if let Some((k, v)) = parse_kv(&line) {
            if k == "NumNodes" {
                declared =
                    Some(v.parse().map_err(|_| lines.err(ln, format!("bad NumNodes `{v}`")))?);
                continue;
            }
            if k == "NumTerminals" {
                continue;
            }
        }
        let tok: Vec<&str> = line.split_whitespace().collect();
        if tok.len() < 3 {
            return Err(lines.err(ln, format!("expected `name w h [terminal]`, got `{line}`")));
        }
        let width: f32 =
            tok[1].parse().map_err(|_| lines.err(ln, format!("bad width `{}`", tok[1])))?;
        let height: f32 =
            tok[2].parse().map_err(|_| lines.err(ln, format!("bad height `{}`", tok[2])))?;
        if !(width.is_finite() && height.is_finite()) {
            return Err(lines.err(ln, format!("non-finite size `{} {}`", tok[1], tok[2])));
        }
        let kind = if tok.get(3).is_some_and(|t| t.starts_with("terminal")) {
            CellKind::Terminal
        } else {
            CellKind::Movable
        };
        cells.push(Cell { name: tok[0].to_string(), width, height, kind });
    }
    if let Some(n) = declared {
        if n != cells.len() {
            return Err(NetlistError::Parse {
                file: "nodes",
                line: 0,
                reason: format!("NumNodes {} but found {} nodes", n, cells.len()),
            });
        }
    }
    Ok(cells)
}

/// Parses a `.nets` file, resolving cell names against `cells`.
///
/// # Errors
///
/// Returns a [`NetlistError::Parse`] describing the first malformed line or
/// unresolved cell reference.
pub fn read_nets<R: Read>(r: R, cells: &[Cell]) -> Result<Vec<Net>> {
    let name_map: std::collections::HashMap<&str, u32> =
        cells.iter().enumerate().map(|(i, c)| (c.name.as_str(), i as u32)).collect();
    let mut lines = Lines::new("nets", r);
    let mut nets: Vec<Net> = Vec::new();
    let mut pending: Option<(Net, usize)> = None;
    while let Some((ln, line)) = lines.next_content()? {
        if line.starts_with("NumNets") || line.starts_with("NumPins") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("NetDegree") {
            if let Some((net, want)) = pending.take() {
                if net.pins.len() != want {
                    return Err(lines.err(
                        ln,
                        format!(
                            "net `{}` declared {} pins, found {}",
                            net.name,
                            want,
                            net.pins.len()
                        ),
                    ));
                }
                nets.push(net);
            }
            let rest = rest.trim_start_matches([':', ' ', '\t']);
            let tok: Vec<&str> = rest.split_whitespace().collect();
            if tok.is_empty() {
                return Err(lines.err(ln, "NetDegree missing count"));
            }
            let degree: usize =
                tok[0].parse().map_err(|_| lines.err(ln, format!("bad degree `{}`", tok[0])))?;
            let name =
                tok.get(1).map_or_else(|| format!("net{}", nets.len()), |s| (*s).to_string());
            // The degree is the file's claim, checked against the pins
            // that follow; it never sizes an allocation.
            pending = Some((Net::new(name, Vec::new()), degree));
            continue;
        }
        // pin line: `cellname D : xoff yoff` (offsets optional)
        let Some((net, _)) = pending.as_mut() else {
            return Err(lines.err(ln, format!("pin line outside a net: `{line}`")));
        };
        let (head, offs) = match line.split_once(':') {
            Some((h, o)) => (h.trim(), Some(o.trim())),
            None => (line.as_str(), None),
        };
        let cell_name =
            head.split_whitespace().next().ok_or_else(|| lines.err(ln, "empty pin line"))?;
        let cell = *name_map
            .get(cell_name)
            .ok_or_else(|| lines.err(ln, format!("unknown cell `{cell_name}`")))?;
        let mut offset = Point::default();
        if let Some(offs) = offs {
            let vals: Vec<&str> = offs.split_whitespace().collect();
            if vals.len() >= 2 {
                offset.x = vals[0]
                    .parse()
                    .map_err(|_| lines.err(ln, format!("bad offset `{}`", vals[0])))?;
                offset.y = vals[1]
                    .parse()
                    .map_err(|_| lines.err(ln, format!("bad offset `{}`", vals[1])))?;
            }
        }
        net.pins.push(Pin { cell: CellId(cell), offset });
    }
    if let Some((net, want)) = pending.take() {
        if net.pins.len() != want {
            return Err(NetlistError::Parse {
                file: "nets",
                line: 0,
                reason: format!(
                    "net `{}` declared {} pins, found {}",
                    net.name,
                    want,
                    net.pins.len()
                ),
            });
        }
        nets.push(net);
    }
    Ok(nets)
}

/// Parses a `.pl` file into `(per-cell positions, die if declared)`.
///
/// # Errors
///
/// Returns a [`NetlistError::Parse`] describing the first malformed line,
/// non-finite coordinate or unresolved cell reference. A `# Die :` line
/// must hold four finite numbers `lx ly ux uy` with `lx <= ux` and
/// `ly <= uy`.
pub fn read_pl<R: Read>(r: R, cells: &[Cell]) -> Result<(Placement, Option<Rect>)> {
    let name_map: std::collections::HashMap<&str, u32> =
        cells.iter().enumerate().map(|(i, c)| (c.name.as_str(), i as u32)).collect();
    let mut placement = Placement::zeroed(cells.len());
    let mut die = None;

    // The die comment must be scanned before comment-stripping.
    let mut reader = BufReader::new(r);
    let mut lineno = 0usize;
    loop {
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).map_err(NetlistError::Io)?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let t = buf.trim();
        if let Some(rest) = t.strip_prefix("# Die :") {
            let bad = |why: &str| NetlistError::Parse {
                file: "pl",
                line: lineno,
                reason: format!("{why}, got die `{}`", rest.trim()),
            };
            let vals = rest
                .split_whitespace()
                .map(str::parse::<f32>)
                .collect::<std::result::Result<Vec<f32>, _>>()
                .map_err(|_| bad("die values must be numbers"))?;
            let &[lx, ly, ux, uy] = vals.as_slice() else {
                return Err(bad("expected four die values `lx ly ux uy`"));
            };
            if vals.iter().any(|v| !v.is_finite()) {
                return Err(bad("die values must be finite"));
            }
            if ux < lx || uy < ly {
                return Err(bad("die upper corner lies below its lower corner"));
            }
            die = Some(Rect::new(lx, ly, ux, uy));
            continue;
        }
        if t.is_empty() || t.starts_with('#') || t.starts_with("UCLA") {
            continue;
        }
        let head = t.split(':').next().unwrap_or(t);
        let tok: Vec<&str> = head.split_whitespace().collect();
        if tok.len() < 3 {
            return Err(NetlistError::Parse {
                file: "pl",
                line: lineno,
                reason: format!("expected `name x y : orient`, got `{t}`"),
            });
        }
        let Some(&cell) = name_map.get(tok[0]) else {
            return Err(NetlistError::Parse {
                file: "pl",
                line: lineno,
                reason: format!("unknown cell `{}`", tok[0]),
            });
        };
        let coord = |axis: &str, v: &str| match v.parse::<f32>() {
            Ok(c) if c.is_finite() => Ok(c),
            _ => Err(NetlistError::Parse {
                file: "pl",
                line: lineno,
                reason: format!("bad or non-finite {axis} `{v}`"),
            }),
        };
        placement.set_position(CellId(cell), Point::new(coord("x", tok[1])?, coord("y", tok[2])?));
    }
    Ok((placement, die))
}

/// Reads a full design from `dir` given the design (aux) base name.
///
/// # Errors
///
/// Returns parse or I/O errors from any of the component files.
pub fn read_design(dir: &Path, design: &str) -> Result<(Circuit, Placement)> {
    let aux_path = dir.join(format!("{design}.aux"));
    let aux = fs::read_to_string(&aux_path)?;
    let mut nodes_file = format!("{design}.nodes");
    let mut nets_file = format!("{design}.nets");
    let mut pl_file = format!("{design}.pl");
    if let Some((_, files)) = aux.split_once(':') {
        for f in files.split_whitespace() {
            if f.ends_with(".nodes") {
                nodes_file = f.to_string();
            } else if f.ends_with(".nets") {
                nets_file = f.to_string();
            } else if f.ends_with(".pl") {
                pl_file = f.to_string();
            }
        }
    }
    let cells = read_nodes(fs::File::open(dir.join(&nodes_file))?)?;
    let nets = read_nets(fs::File::open(dir.join(&nets_file))?, &cells)?;
    let (placement, die) = read_pl(fs::File::open(dir.join(&pl_file))?, &cells)?;

    let die = die.unwrap_or_else(|| {
        let mut bbox = Rect::empty();
        for p in placement.positions() {
            bbox.absorb(*p);
        }
        if bbox.is_empty() {
            Rect::new(0.0, 0.0, 1.0, 1.0)
        } else {
            Rect::new(bbox.lx, bbox.ly, bbox.ux.max(bbox.lx + 1.0), bbox.uy.max(bbox.ly + 1.0))
        }
    });
    let mut circuit = Circuit::new(design, die);
    for c in cells {
        circuit.add_cell(c);
    }
    for n in nets {
        circuit.add_net(n);
    }
    Ok((circuit, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NetId;

    fn sample() -> (Circuit, Placement) {
        let mut c = Circuit::new("samp", Rect::new(0.0, 0.0, 20.0, 10.0));
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        let b = c.add_cell(Cell::movable("b", 2.0, 1.0));
        let t = c.add_cell(Cell::terminal("pad0", 1.0, 1.0));
        c.add_net(Net::new(
            "n0",
            vec![Pin::at_center(a), Pin { cell: b, offset: Point::new(0.5, -0.25) }],
        ));
        c.add_net(Net::new("n1", vec![Pin::at_center(b), Pin::at_center(t), Pin::at_center(a)]));
        let mut p = Placement::zeroed(3);
        p.set_position(a, Point::new(3.0, 4.0));
        p.set_position(b, Point::new(10.0, 5.0));
        p.set_position(t, Point::new(19.0, 9.0));
        (c, p)
    }

    #[test]
    fn nodes_roundtrip() {
        let (c, _) = sample();
        let mut buf = Vec::new();
        write_nodes(&c, &mut buf).unwrap();
        let cells = read_nodes(&buf[..]).unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].kind, CellKind::Terminal);
        assert_eq!(cells[1].width, 2.0);
    }

    #[test]
    fn nets_roundtrip_with_offsets() {
        let (c, _) = sample();
        let mut buf = Vec::new();
        write_nets(&c, &mut buf).unwrap();
        let nets = read_nets(&buf[..], c.cells()).unwrap();
        assert_eq!(nets.len(), 2);
        assert_eq!(nets[0].degree(), 2);
        assert_eq!(nets[1].degree(), 3);
        assert_eq!(nets[0].pins[1].offset, Point::new(0.5, -0.25));
        assert_eq!(nets[1].name, "n1");
    }

    #[test]
    fn pl_roundtrip_with_die() {
        let (c, p) = sample();
        let mut buf = Vec::new();
        write_pl(&c, &p, &mut buf).unwrap();
        let (p2, die) = read_pl(&buf[..], c.cells()).unwrap();
        assert_eq!(die, Some(c.die));
        assert_eq!(p2.position(CellId(0)), Point::new(3.0, 4.0));
        assert_eq!(p2.position(CellId(2)), Point::new(19.0, 9.0));
    }

    #[test]
    fn full_design_roundtrip_through_files() {
        let (c, p) = sample();
        let dir = std::env::temp_dir().join("vlsi_netlist_bookshelf_test");
        write_design(&dir, &c, &p).unwrap();
        let (c2, p2) = read_design(&dir, "samp").unwrap();
        assert_eq!(c2.num_cells(), c.num_cells());
        assert_eq!(c2.num_nets(), c.num_nets());
        assert_eq!(c2.die, c.die);
        assert_eq!(p2.position(CellId(1)), p.position(CellId(1)));
        assert_eq!(c2.net(NetId(1)).degree(), 3);
        assert!(c2.validate().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_nodes_rejects_wrong_count() {
        let text = "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n a 1 1\n";
        assert!(read_nodes(text.as_bytes()).is_err());
    }

    #[test]
    fn read_nodes_rejects_non_finite_sizes() {
        for size in ["NaN 1", "1 nan", "inf 1", "1 -inf", "1e39 2"] {
            let text = format!("UCLA nodes 1.0\n a {size}\n");
            let err = read_nodes(text.as_bytes()).unwrap_err();
            assert!(matches!(err, NetlistError::Parse { line: 2, .. }), "{size}: got {err}");
        }
    }

    #[test]
    fn read_nets_rejects_unknown_cell() {
        let cells = vec![Cell::movable("a", 1.0, 1.0)];
        let text = "NetDegree : 2 n0\n a I : 0 0\n ghost I : 0 0\n";
        let err = read_nets(text.as_bytes(), &cells).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn read_nets_rejects_declared_degree_mismatch() {
        let cells = vec![Cell::movable("a", 1.0, 1.0), Cell::movable("b", 1.0, 1.0)];
        let text = "NetDegree : 3 n0\n a I : 0 0\n b I : 0 0\n";
        assert!(read_nets(text.as_bytes(), &cells).is_err());
    }

    #[test]
    fn read_nets_rejects_a_huge_declared_degree_without_aborting() {
        let cells = vec![Cell::movable("a", 1.0, 1.0)];
        let text = "NetDegree : 999999999999999 n0\n a I : 0 0\n";
        let err = read_nets(text.as_bytes(), &cells).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }), "got {err}");
    }

    #[test]
    fn read_pl_rejects_malformed_line() {
        let cells = vec![Cell::movable("a", 1.0, 1.0)];
        for text in [
            "a 1\n",
            "# Die : 0 0 x 8 8\na 1 1 : N\n",
            "# Die : 0 0 8\na 1 1 : N\n",
            "# Die : 0 0 8 8 8\na 1 1 : N\n",
            "# Die : 8 8 0 0\na 1 1 : N\n",
        ] {
            let err = read_pl(text.as_bytes(), &cells).unwrap_err();
            assert!(matches!(err, NetlistError::Parse { file: "pl", .. }), "{text:?}: got {err}");
        }
    }

    #[test]
    fn read_pl_rejects_non_finite_values() {
        let cells = vec![Cell::movable("a", 1.0, 1.0)];
        for text in [
            "a NaN 1 : N\n",
            "a 1 inf : N\n",
            "a -inf 1\n",
            "# Die : 0 0 NaN 8\na 1 1 : N\n",
            "# Die : 0 0 8 inf\na 1 1 : N\n",
        ] {
            let err = read_pl(text.as_bytes(), &cells).unwrap_err();
            assert!(matches!(err, NetlistError::Parse { file: "pl", .. }), "{text:?}: got {err}");
        }
        let (placement, die) = read_pl("# Die : 0 0 8 8\na 1 2 : N\n".as_bytes(), &cells).unwrap();
        assert_eq!(placement.position(CellId(0)), Point::new(1.0, 2.0));
        assert_eq!(die, Some(Rect::new(0.0, 0.0, 8.0, 8.0)));
    }

    #[test]
    fn pin_line_without_offset_defaults_to_center() {
        let cells = vec![Cell::movable("a", 1.0, 1.0), Cell::movable("b", 1.0, 1.0)];
        let text = "NetDegree : 2 n0\n a\n b I : 0.25 0.5\n";
        let nets = read_nets(text.as_bytes(), &cells).unwrap();
        assert_eq!(nets[0].pins[0].offset, Point::default());
        assert_eq!(nets[0].pins[1].offset, Point::new(0.25, 0.5));
    }
}
