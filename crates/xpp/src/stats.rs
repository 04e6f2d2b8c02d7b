//! Activity statistics gathered during simulation.

/// Counters accumulated over the lifetime of an [`crate::Array`].
///
/// These feed the energy model (every firing class has a distinct energy
/// cost) and the throughput/utilization numbers reported by the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Simulated clock cycles.
    pub cycles: u64,
    /// ALU firings that did not use the multiplier.
    pub alu_fires: u64,
    /// ALU firings that used the multiplier.
    pub mul_fires: u64,
    /// Register-class firings (constants, merges, counters, gates, …).
    pub reg_fires: u64,
    /// RAM read-port firings.
    pub ram_reads: u64,
    /// RAM write-port firings.
    pub ram_writes: u64,
    /// FIFO firings (enqueue or dequeue).
    pub fifo_fires: u64,
    /// Words crossing the array boundary (either direction).
    pub io_words: u64,
    /// Event-network firings.
    pub event_fires: u64,
    /// Cycles the configuration bus spent loading.
    pub config_cycles: u64,
    /// Configuration words streamed over the bus (one word per busy bus
    /// cycle; kept separate from `config_cycles` so bus *occupancy* and
    /// bus *traffic* stay individually observable per array — the
    /// engine's batched dispatch reports words-per-session from this).
    pub config_words: u64,
    /// Configurations loaded to completion.
    pub configs_loaded: u64,
}

impl ArrayStats {
    /// Creates zeroed statistics.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total firings of all classes.
    pub fn total_fires(&self) -> u64 {
        self.alu_fires
            + self.mul_fires
            + self.reg_fires
            + self.ram_reads
            + self.ram_writes
            + self.fifo_fires
            + self.io_words
            + self.event_fires
    }

    /// Average firings per cycle (a proxy for datapath utilization).
    pub fn fires_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_fires() as f64 / self.cycles as f64
        }
    }

    /// Difference since an earlier snapshot (for per-phase measurement).
    pub fn delta_since(&self, earlier: &ArrayStats) -> ArrayStats {
        ArrayStats {
            cycles: self.cycles - earlier.cycles,
            alu_fires: self.alu_fires - earlier.alu_fires,
            mul_fires: self.mul_fires - earlier.mul_fires,
            reg_fires: self.reg_fires - earlier.reg_fires,
            ram_reads: self.ram_reads - earlier.ram_reads,
            ram_writes: self.ram_writes - earlier.ram_writes,
            fifo_fires: self.fifo_fires - earlier.fifo_fires,
            io_words: self.io_words - earlier.io_words,
            event_fires: self.event_fires - earlier.event_fires,
            config_cycles: self.config_cycles - earlier.config_cycles,
            config_words: self.config_words - earlier.config_words,
            configs_loaded: self.configs_loaded - earlier.configs_loaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = ArrayStats {
            cycles: 10,
            alu_fires: 5,
            mul_fires: 3,
            reg_fires: 2,
            ram_reads: 1,
            ram_writes: 1,
            fifo_fires: 4,
            io_words: 2,
            event_fires: 2,
            config_cycles: 7,
            config_words: 7,
            configs_loaded: 1,
        };
        assert_eq!(s.total_fires(), 20);
        assert!((s.fires_per_cycle() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_rate_is_zero() {
        assert_eq!(ArrayStats::new().fires_per_cycle(), 0.0);
    }

    #[test]
    fn delta_subtracts() {
        let a = ArrayStats {
            cycles: 5,
            alu_fires: 2,
            config_words: 3,
            ..Default::default()
        };
        let b = ArrayStats {
            cycles: 9,
            alu_fires: 7,
            config_words: 10,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 4);
        assert_eq!(d.alu_fires, 5);
        assert_eq!(d.config_words, 7);
    }
}
