//! The paper's hardware/software partitioning (Figs. 4 and 8).
//!
//! "Dataflow oriented tasks that operate on a word-level granular data
//! stream are executed using the reconfigurable hardware. A DSP is used to
//! execute the control-flow and synchronization tasks. Bit-level data
//! processing tasks that execute continuously are mapped onto dedicated
//! hardware resources."

use std::fmt;

/// The three resource classes of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The DSP / microcontroller.
    Dsp,
    /// Fixed-function dedicated hardware.
    Dedicated,
    /// The reconfigurable processing array.
    Array,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Dsp => "DSP",
            Resource::Dedicated => "dedicated HW",
            Resource::Array => "reconfigurable array",
        };
        write!(f, "{s}")
    }
}

/// One task of a receiver's processing graph with its assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAssignment {
    /// Task name (matching the figures' block labels).
    pub task: &'static str,
    /// Where the paper maps it.
    pub resource: Resource,
    /// The module in this repository that implements it.
    pub implemented_by: &'static str,
}

/// The rake receiver partitioning of Fig. 4.
pub fn rake_partitioning() -> Vec<TaskAssignment> {
    use Resource::*;
    vec![
        TaskAssignment {
            task: "de-scrambling",
            resource: Array,
            implemented_by: "sdr_wcdma::xpp_map::descrambler",
        },
        TaskAssignment {
            task: "de-spreading",
            resource: Array,
            implemented_by: "sdr_wcdma::xpp_map::despreader",
        },
        TaskAssignment {
            task: "channel correction",
            resource: Array,
            implemented_by: "sdr_wcdma::xpp_map::corrector",
        },
        TaskAssignment {
            task: "combining",
            resource: Array,
            implemented_by: "sdr_wcdma::rake::combiner",
        },
        TaskAssignment {
            task: "scrambling code generation",
            resource: Dedicated,
            implemented_by: "sdr_wcdma::scrambling",
        },
        TaskAssignment {
            task: "spreading code generation",
            resource: Dedicated,
            implemented_by: "sdr_wcdma::ovsf",
        },
        TaskAssignment {
            task: "control & synchronization",
            resource: Dsp,
            implemented_by: "sdr_wcdma::rake",
        },
        TaskAssignment {
            task: "pilot acquisition",
            resource: Dsp,
            implemented_by: "sdr_wcdma::rake::searcher",
        },
        TaskAssignment {
            task: "path tracking",
            resource: Dsp,
            implemented_by: "sdr_wcdma::rake::tracker",
        },
        TaskAssignment {
            task: "channel estimation",
            resource: Dsp,
            implemented_by: "sdr_wcdma::rake::estimator",
        },
    ]
}

/// The OFDM decoder partitioning of Fig. 8.
pub fn ofdm_partitioning() -> Vec<TaskAssignment> {
    use Resource::*;
    vec![
        TaskAssignment {
            task: "RF receiver, A/D",
            resource: Dedicated,
            implemented_by: "sdr_ofdm::channel (simulated front end)",
        },
        TaskAssignment {
            task: "down sampling",
            resource: Array,
            implemented_by: "sdr_ofdm::xpp_map::frontend (config 1)",
        },
        TaskAssignment {
            task: "framing and sync",
            resource: Dedicated,
            implemented_by: "sdr_ofdm::rx (timing) + dedicated framing",
        },
        TaskAssignment {
            task: "preamble detection",
            resource: Array,
            implemented_by: "sdr_ofdm::xpp_map::frontend (config 2a)",
        },
        TaskAssignment {
            task: "FFT",
            resource: Array,
            implemented_by: "sdr_ofdm::xpp_map::fft64 (config 1)",
        },
        TaskAssignment {
            task: "demodulation",
            resource: Array,
            implemented_by: "sdr_ofdm::xpp_map::frontend (config 2b)",
        },
        TaskAssignment {
            task: "descrambler",
            resource: Dsp,
            implemented_by: "sdr_ofdm::scrambler (bit-level; see DESIGN.md)",
        },
        TaskAssignment {
            task: "Viterbi",
            resource: Dedicated,
            implemented_by: "sdr_ofdm::convolutional::viterbi_decode",
        },
        TaskAssignment {
            task: "layer 2",
            resource: Dsp,
            implemented_by: "out of scope (protocol stack)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts tasks per resource.
    fn count_by_resource(tasks: &[TaskAssignment]) -> (usize, usize, usize) {
        let dsp = tasks.iter().filter(|t| t.resource == Resource::Dsp).count();
        let ded = tasks
            .iter()
            .filter(|t| t.resource == Resource::Dedicated)
            .count();
        let arr = tasks
            .iter()
            .filter(|t| t.resource == Resource::Array)
            .count();
        (dsp, ded, arr)
    }

    #[test]
    fn rake_partitioning_matches_fig4() {
        let tasks = rake_partitioning();
        let (dsp, ded, arr) = count_by_resource(&tasks);
        assert_eq!(arr, 4); // descramble, despread, correct, combine
        assert_eq!(ded, 2); // the two code generators
        assert_eq!(dsp, 4); // control/sync, acquisition, tracking, estimation
    }

    #[test]
    fn ofdm_partitioning_covers_fig8_blocks() {
        let tasks = ofdm_partitioning();
        for block in [
            "down sampling",
            "FFT",
            "demodulation",
            "Viterbi",
            "preamble detection",
        ] {
            assert!(tasks.iter().any(|t| t.task == block), "missing {block}");
        }
        // The streaming kernels sit on the array; Viterbi is dedicated.
        let viterbi = tasks.iter().find(|t| t.task == "Viterbi").unwrap();
        assert_eq!(viterbi.resource, Resource::Dedicated);
        let fft = tasks.iter().find(|t| t.task == "FFT").unwrap();
        assert_eq!(fft.resource, Resource::Array);
    }

    #[test]
    fn every_task_names_an_implementation() {
        for t in rake_partitioning().iter().chain(&ofdm_partitioning()) {
            assert!(!t.implemented_by.is_empty());
        }
    }

    #[test]
    fn resource_display() {
        assert_eq!(Resource::Dsp.to_string(), "DSP");
        assert_eq!(Resource::Array.to_string(), "reconfigurable array");
    }
}
