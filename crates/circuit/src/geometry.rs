//! Issue-queue geometry.

/// The wakeup-logic implementation style (paper §2.1). The paper assumes
/// the CAM type (AMD Bulldozer) and names applying SWQUE to the RAM type
/// (IBM POWER8) as future work; this repository's circuit models cover
/// both so that future-work exploration is quantitative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakeupStyle {
    /// Content-addressable wakeup: broadcast destination tags are compared
    /// against every entry's source tags (the paper's assumption).
    #[default]
    Cam,
    /// RAM-type wakeup: a dependency bit-matrix records consumers per
    /// producer; completion reads a matrix row instead of searching a CAM.
    Ram,
}

/// Physical parameters of an issue queue build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqGeometry {
    /// IQ entries (`IQS` in the paper).
    pub entries: usize,
    /// Issue width (`IW`).
    pub issue_width: usize,
    /// Destination/source tag width in bits (log2 of physical registers).
    pub tag_bits: usize,
    /// Payload-RAM bits per entry (decoded instruction + control).
    pub payload_bits: usize,
    /// Wakeup-logic implementation.
    pub wakeup: WakeupStyle,
}

impl IqGeometry {
    /// The paper's medium (Table 2) queue: 128 entries, 6-wide, 512
    /// physical registers (9-bit tags).
    pub fn medium() -> IqGeometry {
        IqGeometry {
            entries: 128,
            issue_width: 6,
            tag_bits: 9,
            payload_bits: 48,
            wakeup: WakeupStyle::Cam,
        }
    }

    /// The paper's large (Table 4) queue: 256 entries, 8-wide, 1024
    /// physical registers (10-bit tags).
    pub fn large() -> IqGeometry {
        IqGeometry {
            entries: 256,
            issue_width: 8,
            tag_bits: 10,
            payload_bits: 48,
            wakeup: WakeupStyle::Cam,
        }
    }

    /// A custom geometry with medium-style tag/payload widths (used for
    /// sensitivity sweeps like Table 6's 150-entry AGE).
    pub fn with_entries(entries: usize) -> IqGeometry {
        IqGeometry { entries, ..IqGeometry::medium() }
    }
}

impl Default for IqGeometry {
    fn default() -> IqGeometry {
        IqGeometry::medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_style_is_expressible() {
        let g = IqGeometry { wakeup: WakeupStyle::Ram, ..IqGeometry::medium() };
        assert_eq!(g.wakeup, WakeupStyle::Ram);
        assert_eq!(IqGeometry::medium().wakeup, WakeupStyle::Cam, "paper default");
    }

    #[test]
    fn paper_geometries() {
        let m = IqGeometry::medium();
        assert_eq!((m.entries, m.issue_width), (128, 6));
        let l = IqGeometry::large();
        assert_eq!((l.entries, l.issue_width), (256, 8));
        assert_eq!(IqGeometry::with_entries(150).entries, 150);
    }
}
