//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every `fig*`/`table*` binary in `src/bin/` regenerates one table or
//! figure of the paper: it runs the relevant configurations over the
//! relevant workloads, prints the same rows/series the paper reports, and
//! optionally dumps machine-readable JSON (`--json <path>`) for
//! EXPERIMENTS.md bookkeeping.
//!
//! Command-line parsing is shared: [`HarnessArgs::parse`] handles the
//! flags every harness understands (`--quick`, `--full`, `--scale`,
//! `--sms`, `--warps`, `--threads`, `--seed`, `--json`, `--trace-out`)
//! and rejects everything undeclared with usage text; binaries with
//! bespoke flags declare them as [`ExtraFlag`]s — see [`cli`].

#![forbid(unsafe_code)]

pub mod cache;
pub mod cli;
pub mod json;
pub mod runner;

pub use cli::{default_threads, usage, ExtraFlag, HarnessArgs};

/// Geometric mean (the paper's averaging for speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Geometric mean of one table column of per-workload cells, or `None`
/// when any cell failed: a gmean over fewer workloads than its neighbours
/// is not comparable with them. Tables print `None` as `ERR` (see
/// [`runner::fmt_cell`]) and JSON writes it as `null`.
pub fn column_geomean(cells: &[Option<f64>]) -> Option<f64> {
    let xs: Option<Vec<f64>> = cells.iter().copied().collect();
    xs.map(|xs| geomean(&xs))
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Prints a fixed-width table: headers then rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_doubles() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn column_geomean_fails_with_any_cell() {
        assert_eq!(column_geomean(&[Some(2.0), Some(8.0)]), Some(geomean(&[2.0, 8.0])));
        assert_eq!(column_geomean(&[Some(2.0), None, Some(8.0)]), None);
        assert_eq!(column_geomean(&[None]), None);
        assert_eq!(column_geomean(&[]), Some(0.0));
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
