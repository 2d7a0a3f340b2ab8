//! Netlist statistics: degree distributions and a Rent-exponent estimate.
//!
//! These quantify how Superblue-like a (synthetic or parsed) circuit is —
//! the evidence behind the dataset substitution argument in [`crate::synth`].
//! Real netlists have: a heavy 2-pin mass with a geometric-ish tail, and a
//! Rent exponent `p ∈ [0.5, 0.8]` (terminals `T ≈ t·Gᵖ` for partitions of
//! `G` gates).

use std::collections::{HashMap, HashSet};

use crate::circuit::Circuit;

/// Summary statistics of a circuit's netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Net-degree histogram: `histogram[d]` = number of nets with `d` pins
    /// (index 0 and 1 unused for valid circuits).
    pub degree_histogram: Vec<usize>,
    /// Mean net degree.
    pub mean_degree: f64,
    /// Maximum net degree.
    pub max_degree: usize,
    /// Fraction of 2-pin nets.
    pub two_pin_fraction: f64,
    /// Mean number of distinct nets touching a cell.
    pub mean_cell_fanout: f64,
}

/// Computes netlist statistics.
pub fn netlist_stats(circuit: &Circuit) -> NetlistStats {
    let mut histogram = Vec::new();
    let mut total = 0usize;
    for net in circuit.nets() {
        let d = net.degree();
        if histogram.len() <= d {
            histogram.resize(d + 1, 0);
        }
        histogram[d] += 1;
        total += d;
    }
    let n_nets = circuit.num_nets().max(1);
    let two_pin = histogram.get(2).copied().unwrap_or(0);
    let cell_nets = circuit.cell_to_nets();
    let mean_cell_fanout = if circuit.num_cells() == 0 {
        0.0
    } else {
        cell_nets.iter().map(Vec::len).sum::<usize>() as f64 / circuit.num_cells() as f64
    };
    NetlistStats {
        mean_degree: total as f64 / n_nets as f64,
        max_degree: histogram.len().saturating_sub(1),
        two_pin_fraction: two_pin as f64 / n_nets as f64,
        mean_cell_fanout,
        degree_histogram: histogram,
    }
}

/// Estimates the Rent exponent by random-partition sampling.
///
/// For each sampled block size `G`, draws random connected-ish groups of
/// `G` movable cells (BFS over the net connectivity from a random seed
/// cell) and counts external terminals `T` (nets crossing the block
/// boundary). Fits `log T = log t + p·log G` by least squares.
///
/// Returns `None` for circuits with fewer than 64 movable cells (too small
/// to fit). The `seed` makes sampling deterministic.
pub fn rent_exponent(circuit: &Circuit, seed: u64) -> Option<f64> {
    let movable: Vec<u32> = (0..circuit.num_cells() as u32)
        .filter(|&i| !circuit.cells()[i as usize].is_terminal())
        .collect();
    if movable.len() < 64 {
        return None;
    }
    let cell_nets = circuit.cell_to_nets();

    // net -> cells map
    let mut net_cells: Vec<Vec<u32>> = vec![Vec::new(); circuit.num_nets()];
    for (ni, net) in circuit.nets().iter().enumerate() {
        for pin in &net.pins {
            net_cells[ni].push(pin.cell.0);
        }
        net_cells[ni].dedup();
    }

    // simple deterministic xorshift to avoid threading a full RNG
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let sizes = [8usize, 16, 32, 64];
    let mut points = Vec::new();
    for &g in &sizes {
        if g * 2 > movable.len() {
            break;
        }
        let mut t_sum = 0.0f64;
        let samples = 8;
        for _ in 0..samples {
            // BFS cluster of size g from a random movable cell
            let start = movable[(next() as usize) % movable.len()];
            let mut block: HashSet<u32> = HashSet::new();
            let mut queue = vec![start];
            while let Some(c) = queue.pop() {
                if block.len() >= g {
                    break;
                }
                if !block.insert(c) {
                    continue;
                }
                for &net in &cell_nets[c as usize] {
                    for &other in &net_cells[net.index()] {
                        if !block.contains(&other) && !circuit.cells()[other as usize].is_terminal()
                        {
                            queue.push(other);
                        }
                    }
                }
            }
            if block.len() < g {
                continue;
            }
            // count external nets: nets with pins both inside and outside
            let mut counted: HashMap<usize, bool> = HashMap::new();
            for &c in &block {
                for net in &cell_nets[c as usize] {
                    counted.entry(net.index()).or_insert_with(|| {
                        net_cells[net.index()].iter().any(|cc| !block.contains(cc))
                    });
                }
            }
            t_sum += counted.values().filter(|&&ext| ext).count() as f64;
        }
        let t_avg = t_sum / 8.0;
        if t_avg > 0.0 {
            points.push(((g as f64).ln(), t_avg.ln()));
        }
    }
    if points.len() < 2 {
        return None;
    }
    // least-squares slope
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Cell, Net, Pin};
    use crate::geometry::Rect;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn stats_on_tiny_circuit() {
        let mut c = Circuit::new("t", Rect::new(0.0, 0.0, 4.0, 4.0));
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        let b = c.add_cell(Cell::movable("b", 1.0, 1.0));
        let d = c.add_cell(Cell::movable("d", 1.0, 1.0));
        c.add_net(Net::new("n0", vec![Pin::at_center(a), Pin::at_center(b)]));
        c.add_net(Net::new("n1", vec![Pin::at_center(a), Pin::at_center(b), Pin::at_center(d)]));
        let s = netlist_stats(&c);
        assert_eq!(s.degree_histogram[2], 1);
        assert_eq!(s.degree_histogram[3], 1);
        assert!((s.mean_degree - 2.5).abs() < 1e-12);
        assert_eq!(s.max_degree, 3);
        assert!((s.two_pin_fraction - 0.5).abs() < 1e-12);
        // a,b touch 2 nets; d touches 1
        assert!((s.mean_cell_fanout - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_circuits_have_realistic_degree_mass() {
        let cfg = SynthConfig { n_cells: 600, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let s = netlist_stats(&synth.circuit);
        // 2-pin nets dominate, as in real netlists
        assert!(s.two_pin_fraction > 0.3, "2-pin fraction {:.2}", s.two_pin_fraction);
        assert!(s.mean_degree >= 2.0 && s.mean_degree < 6.0, "mean degree {}", s.mean_degree);
        assert!(s.max_degree <= cfg.max_degree + 1); // +1 pad/macro attach
    }

    #[test]
    fn rent_exponent_is_plausible_for_synthetic_designs() {
        let cfg = SynthConfig { n_cells: 800, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let p = rent_exponent(&synth.circuit, 7).expect("estimable");
        // clustered netlists should land in the broad Rent band
        assert!((0.2..=1.1).contains(&p), "rent exponent {p}");
    }

    #[test]
    fn rent_exponent_none_for_tiny_circuits() {
        let c = Circuit::new("tiny", Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(rent_exponent(&c, 1).is_none());
    }

    #[test]
    fn rent_estimate_is_deterministic() {
        let cfg = SynthConfig { n_cells: 500, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        assert_eq!(rent_exponent(&synth.circuit, 3), rent_exponent(&synth.circuit, 3));
    }
}
