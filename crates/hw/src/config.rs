//! GBU hardware configuration.

/// Microarchitectural parameters of the GBU (defaults follow Sec. VI-A's
/// setup: one Tile PE with 8 Row PEs at 1 GHz, a 32 KB Gaussian Reuse
/// Cache, FP-16 Row PE datapath).
#[derive(Debug, Clone, PartialEq)]
pub struct GbuConfig {
    /// Core clock in GHz (synthesised at 1 GHz in 28 nm).
    pub clock_ghz: f64,
    /// Row PEs per Tile PE (8 in the paper).
    pub row_pes: u32,
    /// Pixel rows handled by each Row PE (2 in the paper: 2 × 16 px).
    pub rows_per_pe: u32,
    /// Gaussian Reuse Cache capacity in KiB (32 KB chosen in Sec. VI-E).
    pub cache_kib: u32,
    /// Whether the Row PE datapath computes in FP-16 (Sec. VI-B).
    pub fp16_datapath: bool,
    /// Row Generation Engine: fixed cycles per instance (parallel
    /// threshold computation + comparator array over all 16 rows —
    /// Fig. 11(c)).
    pub rowgen_instance_cycles: u64,
    /// Row spans located (first fragment found) per cycle by the Row
    /// Generation Engine's parallel locate units.
    pub rowgen_spans_per_cycle: u64,
    /// Row PE: setup cycles per row task (buffer pop + state load).
    pub rowpe_setup_cycles: u64,
    /// Row PE: fragments shaded per cycle (threshold + color units are
    /// pipelined, so 1).
    pub rowpe_frags_per_cycle: u64,
    /// Fixed per-tile overhead cycles (pixel-buffer flush and refill).
    pub tile_overhead_cycles: u64,
    /// D&B engine: cycles per Gaussian for EVD + transform parameters.
    pub dnb_evd_cycles: u64,
    /// D&B engine: cycles per Gaussian-tile intersection test.
    pub dnb_intersect_cycles: u64,
    /// Effective DRAM cost per cache miss in bytes. The 24-byte FP16
    /// record is fetched at LPDDR sector granularity with scattered
    /// addresses, so the *effective* bandwidth cost (sector + activation
    /// overhead at ~35% random-access efficiency) is far above the record
    /// size; this constant folds that efficiency into a byte count.
    pub bytes_per_miss: u64,
}

impl GbuConfig {
    /// The paper's GBU configuration (Tab. II / Sec. VI-A).
    pub fn paper() -> Self {
        Self {
            clock_ghz: 1.0,
            row_pes: 8,
            rows_per_pe: 2,
            cache_kib: 32,
            fp16_datapath: true,
            rowgen_instance_cycles: 1,
            rowgen_spans_per_cycle: 16,
            rowpe_setup_cycles: 1,
            rowpe_frags_per_cycle: 1,
            tile_overhead_cycles: 24,
            dnb_evd_cycles: 2,
            dnb_intersect_cycles: 1,
            bytes_per_miss: 150,
        }
    }

    /// Rows covered by one Tile PE (`row_pes × rows_per_pe`, must equal
    /// the bins' tile height: 16 in the paper).
    pub fn covered_rows(&self) -> u32 {
        self.row_pes * self.rows_per_pe
    }

    /// Cache capacity in feature lines.
    pub fn cache_lines(&self) -> usize {
        (self.cache_kib as usize * 1024) / gbu_render::GBU_FEATURE_BYTES as usize
    }

    /// Converts cycles at the GBU clock to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }
}

impl Default for GbuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_covers_a_tile() {
        let cfg = GbuConfig::paper();
        assert_eq!(cfg.covered_rows(), 16, "8 Row PEs x 2 rows must cover a 16-row tile");
    }

    #[test]
    fn cache_lines_from_capacity() {
        let cfg = GbuConfig::paper();
        // 32 KiB / 24 B = 1365 lines.
        assert_eq!(cfg.cache_lines(), 32 * 1024 / 24);
        let small = GbuConfig { cache_kib: 2, ..cfg };
        assert_eq!(small.cache_lines(), 2 * 1024 / 24);
    }

    #[test]
    fn cycles_to_seconds_at_1ghz() {
        let cfg = GbuConfig::paper();
        assert!((cfg.cycles_to_seconds(1_000_000_000) - 1.0).abs() < 1e-12);
    }
}
