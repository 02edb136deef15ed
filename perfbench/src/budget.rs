//! Layer budget tables: how much of an end-to-end figure the timed
//! layers account for, and what is left over.

/// One layer's share of an end-to-end cost: its measured cost per
/// operation times the operations it does per end-to-end request.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    pub cost_per_op: f64,
    pub ops_per_req: f64,
}

impl Row {
    pub fn new(layer: &'static str, cost_per_op: f64, ops_per_req: f64) -> Row {
        Row {
            layer,
            cost_per_op,
            ops_per_req,
        }
    }

    /// This layer's cost per end-to-end request.
    pub fn per_req(&self) -> f64 {
        self.cost_per_op * self.ops_per_req
    }
}

/// The part of `total` (cost per request) that no row accounts for.
/// Negative when the layers, timed alone, cost more than the whole
/// (timer overhead, or cold caches in a replay).
pub fn residual(total: f64, rows: &[Row]) -> f64 {
    total - rows.iter().map(Row::per_req).sum::<f64>()
}

/// Renders a budget as a plain-text table: one line per layer, the
/// residual, and the end-to-end figure they add up to.
pub fn render(title: &str, unit: &str, total: f64, rows: &[Row]) -> String {
    let share = |v: f64| {
        if total > 0.0 {
            100.0 * v / total
        } else {
            0.0
        }
    };
    let mut out = format!(
        "{title}\n  {:<28} {:>12} {:>10} {:>12} {:>7}\n",
        "layer",
        format!("{unit}/op"),
        "ops/req",
        format!("{unit}/req"),
        "share"
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<28} {:>12.3} {:>10.3} {:>12.3} {:>6.1}%\n",
            r.layer,
            r.cost_per_op,
            r.ops_per_req,
            r.per_req(),
            share(r.per_req())
        ));
    }
    let res = residual(total, rows);
    out.push_str(&format!(
        "  {:<28} {:>12} {:>10} {:>12.3} {:>6.1}%\n  {:<28} {:>12} {:>10} {:>12.3} {:>6.1}%\n",
        "residual",
        "",
        "",
        res,
        share(res),
        "end-to-end",
        "",
        "",
        total,
        100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_total_minus_the_sum_of_shares() {
        let rows = [Row::new("a", 10.0, 2.0), Row::new("b", 3.0, 0.5)];
        assert_eq!(rows[0].per_req(), 20.0);
        assert_eq!(residual(100.0, &rows), 78.5);
        assert_eq!(residual(10.0, &rows), -11.5);
        assert_eq!(residual(5.0, &[]), 5.0);
    }

    #[test]
    fn render_lists_layers_residual_and_total() {
        let rows = [Row::new("array.split", 40.0, 1.5)];
        let t = render("sim budget", "ns", 100.0, &rows);
        assert!(t.starts_with("sim budget\n"));
        assert!(t.contains("array.split"));
        assert!(t.contains("60.0%"), "{t}");
        assert!(t.contains("residual") && t.contains("40.000"));
        assert!(t.contains("end-to-end") && t.contains("100.000"));
        // A zero total must not divide by zero.
        assert!(render("empty", "us", 0.0, &rows).contains("0.0%"));
    }
}
