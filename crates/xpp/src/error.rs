//! Error types for netlist construction, placement and simulation.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the `xpp-array` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A required object input port was left unconnected at `build()`.
    UnconnectedInput {
        /// Object label (or kind name) with the dangling port.
        object: String,
        /// Port description, e.g. `"in1"` or `"ev0"`.
        port: String,
    },
    /// Two external ports of the same netlist share a name.
    DuplicatePortName(String),
    /// An input port was wired twice (channels are point-to-point).
    InputAlreadyConnected {
        /// Object label with the doubly-driven port.
        object: String,
        /// Port description.
        port: String,
    },
    /// A netlist refers to an external port name the configuration lacks.
    UnknownPort(String),
    /// The netlist needs more resources than the array has free.
    PlacementFailed {
        /// Resource class that ran out, e.g. `"ALU slots"`.
        resource: String,
        /// Number required by the netlist.
        needed: usize,
        /// Number currently free.
        available: usize,
    },
    /// The referenced configuration does not exist (or was unloaded).
    NoSuchConfig(u32),
    /// The configuration is still loading and cannot be used yet.
    ConfigLoading(u32),
    /// `run_until_idle` exceeded its cycle budget without quiescing.
    Timeout {
        /// Cycle budget that was exhausted.
        budget: u64,
    },
    /// A FIFO preload exceeds the RAM-PAE depth, or a RAM preload is too big.
    PreloadTooLarge {
        /// Object label.
        object: String,
        /// Requested preload length.
        requested: usize,
        /// Maximum supported.
        max: usize,
    },
    /// Initial tokens on an edge exceed the channel capacity.
    TooManyInitialTokens {
        /// Number of tokens requested.
        requested: usize,
        /// Channel capacity.
        capacity: usize,
    },
    /// The netlist contains no objects.
    EmptyNetlist,
    /// A load's configuration words arrived corrupted over the bus; the
    /// configuration never passes its wake-up check and must be reloaded.
    ConfigCorrupted {
        /// Configuration id of the poisoned load.
        config: u32,
    },
    /// A configuration load was aborted mid-stream, leaving an unusable
    /// half-configured shape that must be unloaded.
    LoadAborted {
        /// Configuration id of the abandoned load.
        config: u32,
    },
    /// A configuration reports running but fired zero objects within the
    /// watchdog's cycle budget — wedged, and must be reloaded.
    ConfigWedged {
        /// Configuration id of the wedged kernel.
        config: u32,
    },
}

impl Error {
    /// True for errors that represent detected runtime faults the
    /// supervision layer should recover from (reload / retry / dead-letter),
    /// as opposed to programming errors in netlist construction, placement
    /// or port wiring.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Error::ConfigCorrupted { .. } | Error::LoadAborted { .. } | Error::ConfigWedged { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnconnectedInput { object, port } => {
                write!(f, "unconnected input port {port} on object {object}")
            }
            Error::DuplicatePortName(name) => {
                write!(f, "duplicate external port name {name:?}")
            }
            Error::InputAlreadyConnected { object, port } => {
                write!(f, "input port {port} on object {object} is already driven")
            }
            Error::UnknownPort(name) => write!(f, "no external port named {name:?}"),
            Error::PlacementFailed {
                resource,
                needed,
                available,
            } => write!(
                f,
                "placement failed: {needed} {resource} needed but only {available} free"
            ),
            Error::NoSuchConfig(id) => write!(f, "no configuration with id {id}"),
            Error::ConfigLoading(id) => {
                write!(f, "configuration {id} is still being loaded")
            }
            Error::Timeout { budget } => {
                write!(f, "array did not become idle within {budget} cycles")
            }
            Error::PreloadTooLarge {
                object,
                requested,
                max,
            } => write!(
                f,
                "preload of {requested} words on {object} exceeds the maximum of {max}"
            ),
            Error::TooManyInitialTokens {
                requested,
                capacity,
            } => write!(
                f,
                "{requested} initial tokens exceed the channel capacity of {capacity}"
            ),
            Error::EmptyNetlist => write!(f, "netlist contains no objects"),
            Error::ConfigCorrupted { config } => {
                write!(f, "configuration {config} arrived corrupted over the bus")
            }
            Error::LoadAborted { config } => {
                write!(f, "load of configuration {config} was aborted mid-stream")
            }
            Error::ConfigWedged { config } => {
                write!(
                    f,
                    "configuration {config} is wedged (running but firing nothing)"
                )
            }
        }
    }
}

impl StdError for Error {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = vec![
            Error::UnconnectedInput {
                object: "alu3".into(),
                port: "in1".into(),
            },
            Error::DuplicatePortName("x".into()),
            Error::InputAlreadyConnected {
                object: "a".into(),
                port: "in0".into(),
            },
            Error::UnknownPort("out".into()),
            Error::PlacementFailed {
                resource: "ALU slots".into(),
                needed: 9,
                available: 2,
            },
            Error::NoSuchConfig(3),
            Error::ConfigLoading(1),
            Error::Timeout { budget: 100 },
            Error::PreloadTooLarge {
                object: "ram".into(),
                requested: 600,
                max: 512,
            },
            Error::TooManyInitialTokens {
                requested: 5,
                capacity: 2,
            },
            Error::EmptyNetlist,
            Error::ConfigCorrupted { config: 7 },
            Error::LoadAborted { config: 7 },
            Error::ConfigWedged { config: 7 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn fault_classification() {
        assert!(Error::ConfigCorrupted { config: 0 }.is_fault());
        assert!(Error::LoadAborted { config: 0 }.is_fault());
        assert!(Error::ConfigWedged { config: 0 }.is_fault());
        assert!(!Error::Timeout { budget: 10 }.is_fault());
        assert!(!Error::NoSuchConfig(0).is_fault());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Send + Sync + StdError>() {}
        assert_traits::<Error>();
    }
}
