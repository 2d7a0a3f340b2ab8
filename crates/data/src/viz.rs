//! Map visualisation: ASCII heat maps and PGM images (Figure 4).
//!
//! The paper's Figure 4 shows label vs prediction maps for three test
//! designs of very different congestion rates. These helpers render any
//! per-G-cell scalar field; the `figure4` bench binary writes one PGM per
//! (design, model) pair plus an ASCII summary to stdout.

use std::fs;
use std::path::Path;

use crate::error::Result;

/// Renders a row-major `ny × nx` map as ASCII art (one char per G-cell),
/// darker = larger. Row 0 (gy = 0) is printed at the bottom, matching die
/// coordinates.
pub fn ascii_map(values: &[f32], nx: usize, ny: usize) -> String {
    assert_eq!(values.len(), nx * ny, "map size mismatch");
    const RAMP: &[u8] = b" .:-=+*#%@";
    let max = values.iter().fold(0.0f32, |m, &v| m.max(v)).max(1e-9);
    let mut out = String::with_capacity((nx + 1) * ny);
    for gy in (0..ny).rev() {
        for gx in 0..nx {
            let v = (values[gy * nx + gx] / max).clamp(0.0, 1.0);
            let idx = ((v * (RAMP.len() - 1) as f32).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Serialises a map as an ASCII PGM (P2) image with 255 grey levels,
/// normalised to the map maximum. `gy = 0` is the bottom row of the image.
pub(crate) fn to_pgm(values: &[f32], nx: usize, ny: usize) -> String {
    assert_eq!(values.len(), nx * ny, "map size mismatch");
    let max = values.iter().fold(0.0f32, |m, &v| m.max(v)).max(1e-9);
    let mut out = format!("P2\n{nx} {ny}\n255\n");
    for gy in (0..ny).rev() {
        let row: Vec<String> = (0..nx)
            .map(|gx| {
                let v = (values[gy * nx + gx] / max).clamp(0.0, 1.0);
                format!("{}", (v * 255.0).round() as u32)
            })
            .collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

/// Writes a PGM file, creating parent directories.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_pgm(values: &[f32], nx: usize, ny: usize, path: &Path) -> Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, to_pgm(values, nx, ny))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_dimensions() {
        let m = ascii_map(&[0.0, 1.0, 0.5, 0.25], 2, 2);
        let lines: Vec<&str> = m.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 2);
        // top line is gy=1: values 0.5, 0.25; bottom is 0.0, 1.0
        assert_eq!(lines[1].chars().next().unwrap(), ' ');
        assert_eq!(lines[1].chars().nth(1).unwrap(), '@');
    }

    #[test]
    fn pgm_header_and_values() {
        let pgm = to_pgm(&[0.0, 2.0], 2, 1);
        let mut lines = pgm.lines();
        assert_eq!(lines.next(), Some("P2"));
        assert_eq!(lines.next(), Some("2 1"));
        assert_eq!(lines.next(), Some("255"));
        assert_eq!(lines.next(), Some("0 255"));
    }

    #[test]
    fn zero_map_does_not_divide_by_zero() {
        let pgm = to_pgm(&[0.0; 4], 2, 2);
        assert!(pgm.contains("0 0"));
        let a = ascii_map(&[0.0; 4], 2, 2);
        assert!(a.chars().filter(|c| *c != '\n').all(|c| c == ' '));
    }

    #[test]
    fn pgm_writes_to_disk() {
        let path = std::env::temp_dir().join("lhnn_viz_test/map.pgm");
        write_pgm(&[0.0, 1.0, 0.5, 0.2], 2, 2, &path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with("P2"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    #[should_panic(expected = "map size mismatch")]
    fn rejects_size_mismatch() {
        ascii_map(&[0.0; 3], 2, 2);
    }
}
