//! Percentiles and span arithmetic.

/// The `p`-th percentile (0–100) of `sorted`, nearest rank. `NaN` for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending; the samples are times and counts, never `NaN`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The mean of `values`, 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One timed interval of the traced replay. Times are microseconds from
/// the start of the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the span list.
    pub id: usize,
    /// Layer name, the module path of what ran.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// The span that caused this one; `None` for a request's root span
    /// and for probe spans.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice).
pub fn self_time_us(span: &Span, spans: &[Span]) -> f64 {
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| {
            (
                s.start_us.max(span.start_us),
                s.end_us.min(span.end_us).max(span.start_us),
            )
        })
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = span.start_us;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: "layer",
            start_us: start,
            end_us: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let values = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = vec![
            span(0, 0.0, 100.0, None),
            span(1, 10.0, 40.0, Some(0)),
            // Overlaps span 1 by ten.
            span(2, 30.0, 60.0, Some(0)),
            // A grandchild takes nothing from the root.
            span(3, 12.0, 20.0, Some(1)),
            // Another request's span with the same shape.
            span(4, 0.0, 100.0, None),
        ];
        assert_eq!(self_time_us(&spans[0], &spans), 50.0);
        assert_eq!(self_time_us(&spans[1], &spans), 22.0);
        assert_eq!(self_time_us(&spans[2], &spans), 30.0);
        assert_eq!(self_time_us(&spans[4], &spans), 100.0);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span(0, 10.0, 20.0, None), span(1, 5.0, 30.0, Some(0))];
        assert_eq!(self_time_us(&spans[0], &spans), 0.0);
    }
}
