//! Delay model of the IQ critical path (wakeup → select → tag read),
//! calibrated to the paper's §4.7 HSPICE measurements at the medium
//! geometry:
//!
//! * two time-sliced tag-RAM accesses (including precharge) fit in 66% of
//!   the IQ critical path,
//! * a payload-RAM read is 43% of the critical path,
//! * the DTM adds 1.3% to the IQ delay.
//!
//! Delays are expressed in arbitrary units where the medium IQ critical
//! path is 100; stage terms scale structurally (wire RC grows linearly with
//! entries, arbitration depth logarithmically), so other geometries give
//! meaningful relative numbers.

use crate::geometry::IqGeometry;

/// Per-stage delays (arbitrary units; medium critical path = 100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqDelays {
    /// Tag broadcast + CAM match across all entries.
    pub wakeup: f64,
    /// Tree-arbiter select.
    pub select: f64,
    /// One tag-RAM access.
    pub tag_read: f64,
    /// Tag-RAM precharge between the two time-sliced accesses.
    pub tag_precharge: f64,
    /// Payload-RAM read (second pipeline stage).
    pub payload: f64,
    /// DTM merge-mux insertion delay.
    pub dtm: f64,
}

impl IqDelays {
    /// Wakeup + select + one tag read: the paper's IQ critical path (§2.1).
    pub fn critical_path(&self) -> f64 {
        self.wakeup + self.select + self.tag_read
    }

    /// Two tag accesses plus a precharge, as a fraction of the critical
    /// path — must stay well under 1.0 for CIRC-PC's time-sliced tag RAM to
    /// fit in a cycle (paper: 66%).
    pub fn double_tag_fraction(&self) -> f64 {
        (2.0 * self.tag_read + self.tag_precharge) / self.critical_path()
    }

    /// Payload read as a fraction of the critical path (paper: 43%).
    pub fn payload_fraction(&self) -> f64 {
        self.payload / self.critical_path()
    }

    /// Relative IQ-delay increase from inserting the DTM (paper: 1.3%).
    pub fn dtm_overhead(&self) -> f64 {
        self.dtm / self.critical_path()
    }

    /// True if CIRC-PC's time-sliced second tag access fits in the cycle.
    pub fn double_access_fits(&self) -> bool {
        self.double_tag_fraction() < 1.0
    }
}

/// Computes the stage delays for `g`.
///
/// # Example
///
/// ```
/// use swque_circuit::{delay::delays, IqGeometry};
///
/// let d = delays(&IqGeometry::medium());
/// assert!((d.double_tag_fraction() - 0.66).abs() < 0.01, "paper section 4.7");
/// assert!(d.double_access_fits());
/// ```
///
/// Structural forms: broadcast and bitline wires cross all entries (linear
/// term); the tree arbiter adds a level per 4× entries (logarithmic term);
/// the DTM is a constant mux insertion whose load grows with issue width.
pub fn delays(g: &IqGeometry) -> IqDelays {
    let n = g.entries as f64;
    let iw = g.issue_width as f64;
    let levels = (g.entries as f64).log2() / 2.0; // log4
    IqDelays {
        wakeup: 25.0 + 0.15625 * n,       // 45 @ 128
        select: 7.714 * levels,           // 27 @ 128
        tag_read: 12.0 + 0.125 * n,       // 28 @ 128
        tag_precharge: 6.0 + 0.03125 * n, // 10 @ 128
        payload: 20.6 + 0.175 * n,        // 43 @ 128
        dtm: 1.0 + 0.05 * iw,             // 1.3 @ IW 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medium_geometry_matches_section_4_7() {
        let d = delays(&IqGeometry::medium());
        assert!((d.critical_path() - 100.0).abs() < 0.5, "normalized: {}", d.critical_path());
        assert!((d.double_tag_fraction() - 0.66).abs() < 0.01, "{}", d.double_tag_fraction());
        assert!((d.payload_fraction() - 0.43).abs() < 0.01, "{}", d.payload_fraction());
        assert!((d.dtm_overhead() - 0.013).abs() < 0.001, "{}", d.dtm_overhead());
        assert!(d.double_access_fits());
    }

    #[test]
    fn double_access_still_fits_in_the_large_queue() {
        let d = delays(&IqGeometry::large());
        assert!(d.double_access_fits(), "fraction = {}", d.double_tag_fraction());
    }

    #[test]
    fn delays_grow_with_queue_size() {
        let m = delays(&IqGeometry::medium());
        let l = delays(&IqGeometry::large());
        assert!(l.critical_path() > m.critical_path());
        assert!(l.wakeup > m.wakeup);
        assert!(l.select > m.select);
    }

    #[test]
    fn dtm_overhead_is_tiny_everywhere() {
        for entries in [32, 64, 128, 256, 512] {
            let d = delays(&IqGeometry::with_entries(entries));
            assert!(d.dtm_overhead() < 0.03, "IQS={entries}: {}", d.dtm_overhead());
        }
    }
}
