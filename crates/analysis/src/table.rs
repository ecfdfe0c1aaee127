//! Plain-text / markdown table rendering for the `rcbsim exp` experiments.
//!
//! Every experiment prints its rows through this builder so the report
//! that EXPERIMENTS.md reproduces verbatim is uniform: right-aligned
//! numerics, a markdown header row, and a separator.

/// Column-aware table builder.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as RFC-4180-style CSV (fields with commas, quotes, or
    /// newlines are quoted; embedded quotes doubled).
    pub fn csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let render = |cells: &[String]| -> String {
            cells.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
        };
        out.push_str(&render(&self.headers));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&render(r));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn markdown(&self) -> String {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |", sep.join(" | ")));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float compactly for table cells (3 significant-ish digits).
pub fn num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = TableBuilder::new(vec!["T", "cost"]);
        t.row(vec!["16", "4.0"]).row(vec!["65536", "256.0"]);
        let md = t.markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("T") && lines[0].contains("cost"));
        assert!(lines[1].starts_with("| -"));
        // All rows the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        TableBuilder::new(vec!["a", "b"]).row(vec!["only one"]);
    }

    #[test]
    fn num_formatting_tiers() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(0.5), "0.500");
        assert_eq!(num(42.25), "42.2");
        assert_eq!(num(123456.0), "123456");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TableBuilder::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.markdown().lines().count(), 2);
    }

    #[test]
    fn csv_renders_plain_fields() {
        let mut t = TableBuilder::new(vec!["T", "cost"]);
        t.row(vec!["16", "4.0"]);
        assert_eq!(t.csv(), "T,cost\n16,4.0\n");
    }

    #[test]
    fn csv_quotes_special_fields() {
        let mut t = TableBuilder::new(vec!["name", "note"]);
        t.row(vec!["a,b", "say \"hi\""]);
        assert_eq!(t.csv(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
    }
}
