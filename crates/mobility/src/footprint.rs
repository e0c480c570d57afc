//! Footprint export of the hand-off estimation function (paper Fig. 4).
//!
//! For a fixed `prev`, the estimation function is a set of weighted points
//! in the `(next, T_soj)` plane. [`Footprint`] extracts that point set from
//! a cache and renders it as the ASCII analogue of Fig. 4 — one row per
//! next cell, sojourn time on the horizontal axis — which the
//! `mobility_explorer` example prints for a trained simulation.

use qres_cellnet::CellId;
use qres_des::SimTime;

use crate::cache::{HoeCache, PrevKey};

/// The extracted footprint for one `prev`.
#[derive(Debug, Clone)]
pub struct Footprint {
    prev: PrevKey,
    /// `(next, sorted sojourn seconds)` rows.
    rows: Vec<(CellId, Vec<f64>)>,
}

impl Footprint {
    /// Extracts the footprint of `prev` from `cache` as of `t_o`.
    pub fn extract(cache: &mut HoeCache, t_o: SimTime, prev: PrevKey) -> Self {
        Footprint {
            prev,
            rows: cache.footprint_pairs(t_o, prev),
        }
    }

    /// The `prev` this footprint conditions on.
    pub fn prev(&self) -> PrevKey {
        self.prev
    }

    /// The `(next, sojourns)` rows, sorted by next-cell id.
    pub fn rows(&self) -> &[(CellId, Vec<f64>)] {
        &self.rows
    }

    /// The largest sojourn across rows (the horizontal extent of Fig. 4).
    pub fn max_sojourn(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(|(_, s)| s.last().copied())
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Renders the Fig.-4-style scatter: one line per next cell, `*` marks
    /// at sojourn positions scaled into `width` columns.
    pub fn render_ascii(&self, width: usize) -> String {
        let Some(max_soj) = self.max_sojourn() else {
            return String::from("(empty footprint)\n");
        };
        let width = width.max(10);
        let mut out = String::new();
        let prev_label = match self.prev {
            Some(c) => format!("{c}"),
            None => "in-cell start".to_string(),
        };
        out.push_str(&format!(
            "hand-off estimation function footprint, prev = {prev_label}\n"
        ));
        for (next, sojourns) in &self.rows {
            let mut line = vec![b' '; width + 1];
            for &s in sojourns {
                let col = ((s / max_soj) * width as f64) as usize;
                let col = col.min(width);
                line[col] = if line[col] == b'*' { b'@' } else { b'*' };
            }
            out.push_str(&format!(
                "next {:>8} |{}|\n",
                next.to_string(),
                String::from_utf8(line).expect("ascii only")
            ));
        }
        out.push_str(&format!(
            "{:>14} 0{:>width$.1}s\n",
            "sojourn:",
            max_soj,
            width = width
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HoeConfig;
    use crate::quadruplet::HandoffEvent;
    use qres_des::Duration;

    fn build_cache() -> HoeCache {
        let mut c = HoeCache::new(HoeConfig::stationary());
        let events = [
            (1.0, 2u32, 30.0),
            (2.0, 2, 35.0),
            (3.0, 4, 60.0),
            (4.0, 4, 60.0), // duplicate position -> '@'
            (5.0, 4, 80.0),
        ];
        for (t, next, soj) in events {
            c.record(HandoffEvent::new(
                SimTime::from_secs(t),
                Some(CellId(1)),
                CellId(next),
                Duration::from_secs(soj),
            ));
        }
        c
    }

    #[test]
    fn extraction_counts_points() {
        let mut c = build_cache();
        let fp = Footprint::extract(&mut c, SimTime::from_secs(100.0), Some(CellId(1)));
        assert_eq!(fp.rows().len(), 2);
        let points: usize = fp.rows().iter().map(|(_, s)| s.len()).sum();
        assert_eq!(points, 5);
        assert_eq!(fp.max_sojourn(), Some(80.0));
        assert_eq!(fp.prev(), Some(CellId(1)));
    }

    #[test]
    fn empty_footprint_renders_placeholder() {
        let mut c = HoeCache::new(HoeConfig::stationary());
        let fp = Footprint::extract(&mut c, SimTime::from_secs(1.0), Some(CellId(1)));
        assert_eq!(fp.render_ascii(40), "(empty footprint)\n");
        assert_eq!(fp.max_sojourn(), None);
    }

    #[test]
    fn ascii_render_shape() {
        let mut c = build_cache();
        let fp = Footprint::extract(&mut c, SimTime::from_secs(100.0), Some(CellId(1)));
        let s = fp.render_ascii(40);
        // Header + 2 rows + axis.
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("prev = cell<1>"));
        assert!(s.contains('*'));
        assert!(s.contains('@'), "coincident points collapse to '@'");
    }
}
