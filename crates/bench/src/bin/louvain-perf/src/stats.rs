//! Order statistics for the reported samples.

/// Sample count and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median,
            q3,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0, which only count metrics that stay at 0 can produce).
    pub fn spread(&self) -> f64 {
        let base = self.median.abs();
        if base > 0.0 {
            (self.q3 - self.q1) / base
        } else {
            0.0
        }
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads this program
/// reports match the ones computed from its results with Python. The
/// middle value is the median. With two samples the outer quartiles
/// extrapolate past the data, as Python's do. A single sample is its own
/// quartiles (where Python raises).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return [d[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for i = 1 with two samples: the interpolation
        // weights then extrapolate below the smallest value.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are what Python's
    // `statistics.quantiles(v, n=4)` returns for the same vectors.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), [2.5, 5.0, 7.5]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 100.0];
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.spread(), (3.75 - 1.25) / 2.5);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
