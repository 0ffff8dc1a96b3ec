//! Occupancy and wave arithmetic — Equations 3 and 4 of the paper.

use crate::device::DeviceSpec;

/// Per-block resource usage of a kernel, the inputs to Eq. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Warps launched per thread block (`WarpsPerBlock`).
    pub warps_per_block: u32,
    /// 32-bit registers used per thread.
    pub registers_per_thread: u32,
    /// Static + dynamic shared memory per block, in bytes.
    pub shared_mem_per_block: u32,
}

impl KernelResources {
    /// Registers per block (`RegistersPerBlock` in Eq. 3).
    fn registers_per_block(&self, warp_size: u32) -> u32 {
        self.registers_per_thread * self.warps_per_block * warp_size
    }
}

/// Result of the occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// `ActiveblocksPerSM` from Eq. 3.
    pub active_blocks_per_sm: u32,
    /// `FullWaveSize = NumSM × ActiveblocksPerSM` from Eq. 4.
    pub full_wave_size: u64,
    /// Fraction of the SM's warp slots occupied at full residency.
    pub warp_occupancy: f64,
}

/// Computes Eq. 3 (`ActiveblocksPerSM`) and Eq. 4 (`FullWaveSize`).
///
/// `ActiveblocksPerSM = min(MaxWarpsPerSM / WarpsPerBlock,
///                          RegistersPerSM / RegistersPerBlock,
///                          SharedMemPerSM / SharedMemPerBlock)`,
/// additionally clamped by the hardware block-scheduler limit.
pub fn occupancy_of(device: &DeviceSpec, res: &KernelResources) -> Occupancy {
    assert!(res.warps_per_block > 0, "blocks must contain warps");
    let by_warps = device.max_warps_per_sm / res.warps_per_block;
    let regs_per_block = res.registers_per_block(device.warp_size).max(1);
    let by_regs = device.registers_per_sm / regs_per_block;
    let by_smem = device
        .shared_mem_per_sm
        .checked_div(res.shared_mem_per_block)
        .unwrap_or(u32::MAX);
    let active = by_warps
        .min(by_regs)
        .min(by_smem)
        .min(device.max_blocks_per_sm);
    let full_wave = device.num_sms as u64 * active as u64;
    let warp_occ = (active * res.warps_per_block) as f64 / device.max_warps_per_sm as f64;
    Occupancy {
        active_blocks_per_sm: active,
        full_wave_size: full_wave,
        warp_occupancy: warp_occ.min(1.0),
    }
}

/// Number of waves a launch of `blocks` blocks needs (the final wave may be
/// partial — the tail the paper's DTP minimises).
pub fn waves(blocks: u64, full_wave_size: u64) -> u64 {
    blocks.div_ceil(full_wave_size.max(1))
}

/// Utilisation of the final wave: `1.0` when the launch divides evenly into
/// full waves; small values indicate a severe tail effect.
pub fn tail_utilization(blocks: u64, full_wave_size: u64) -> f64 {
    if blocks == 0 {
        return 0.0;
    }
    let fw = full_wave_size.max(1);
    let rem = blocks % fw;
    if rem == 0 {
        1.0
    } else {
        rem as f64 / fw as f64
    }
}

/// Wave-quantisation stretch: how much wave scheduling inflates ideal
/// (perfectly divisible) block time. A launch of `blocks` blocks pays for
/// `waves × full_wave_size` block slots; the ratio to the slots actually
/// used is ≥ 1 and equals 1 exactly when the launch divides into full
/// waves. This is the tail-effect factor the autotuner's cost model
/// charges (Eq. 4's consequence).
pub fn tail_stretch(blocks: u64, full_wave_size: u64) -> f64 {
    if blocks == 0 {
        return 1.0;
    }
    let fw = full_wave_size.max(1);
    let slots = waves(blocks, fw) * fw;
    (slots as f64 / blocks as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical_res() -> KernelResources {
        KernelResources {
            warps_per_block: 8,
            registers_per_thread: 32,
            shared_mem_per_block: 3 * 32 * 4 * 8, // 3 arrays x 32 elems x 4B x 8 warps
        }
    }

    #[test]
    fn warp_limited_occupancy() {
        let v100 = DeviceSpec::v100();
        let occ = occupancy_of(&v100, &typical_res());
        // 64 warps / 8 per block = 8 by warps; registers: 65536/(32*8*32)=8;
        // smem: 96KiB/3KiB = 32. So min = 8.
        assert_eq!(occ.active_blocks_per_sm, 8);
        assert_eq!(occ.full_wave_size, 80 * 8);
        assert!((occ.warp_occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_limited_occupancy() {
        let v100 = DeviceSpec::v100();
        let res = KernelResources {
            warps_per_block: 2,
            registers_per_thread: 255,
            shared_mem_per_block: 0,
        };
        let occ = occupancy_of(&v100, &res);
        // regs per block = 255*2*32 = 16320; 65536/16320 = 4.
        assert_eq!(occ.active_blocks_per_sm, 4);
    }

    #[test]
    fn shared_memory_limited_occupancy() {
        let v100 = DeviceSpec::v100();
        let res = KernelResources {
            warps_per_block: 1,
            registers_per_thread: 16,
            shared_mem_per_block: 48 * 1024,
        };
        let occ = occupancy_of(&v100, &res);
        assert_eq!(occ.active_blocks_per_sm, 2); // 96K / 48K
    }

    #[test]
    fn block_scheduler_limit_applies() {
        let v100 = DeviceSpec::v100();
        let res = KernelResources {
            warps_per_block: 1,
            registers_per_thread: 1,
            shared_mem_per_block: 0,
        };
        let occ = occupancy_of(&v100, &res);
        assert_eq!(occ.active_blocks_per_sm, 32); // hardware cap, not 64
    }

    #[test]
    fn wave_arithmetic() {
        assert_eq!(waves(0, 640), 0);
        assert_eq!(waves(1, 640), 1);
        assert_eq!(waves(640, 640), 1);
        assert_eq!(waves(641, 640), 2);
        assert_eq!(waves(1280, 640), 2);
    }

    #[test]
    fn tail_utilization_behaviour() {
        assert_eq!(tail_utilization(640, 640), 1.0);
        assert_eq!(tail_utilization(1280, 640), 1.0);
        assert!((tail_utilization(641, 640) - 1.0 / 640.0).abs() < 1e-12);
        assert!((tail_utilization(960, 640) - 0.5).abs() < 1e-12);
        assert_eq!(tail_utilization(0, 640), 0.0);
    }

    #[test]
    #[should_panic(expected = "blocks must contain warps")]
    fn zero_warps_per_block_panics() {
        let v100 = DeviceSpec::v100();
        occupancy_of(
            &v100,
            &KernelResources {
                warps_per_block: 0,
                registers_per_thread: 1,
                shared_mem_per_block: 0,
            },
        );
    }
}
