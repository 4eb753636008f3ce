//! Error type for the virtual-memory substrate.

use std::fmt;

/// Result alias used throughout the workspace's lower layers.
pub type Result<T> = std::result::Result<T, VmemError>;

/// Errors raised by the rewiring substrate.
#[derive(Debug)]
pub enum VmemError {
    /// A system call failed. Carries the call name and the OS error.
    Syscall {
        /// Name of the failing call (e.g. `"mmap"`, `"memfd_create"`).
        call: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A plain I/O error (e.g. while reading `/proc/self/maps`).
    Io(std::io::Error),
    /// The caller asked for a mapping outside the bounds of a store or view.
    OutOfBounds {
        /// Human-readable description of the violated bound.
        what: String,
    },
    /// The requested operation is not supported by this backend/platform.
    Unsupported(&'static str),
    /// `/proc/self/maps` could not be interpreted.
    MapsParse(String),
    /// No backend of this name exists on this platform.
    UnknownBackend(String),
}

impl fmt::Display for VmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmemError::Syscall { call, source } => write!(f, "{call} failed: {source}"),
            VmemError::Io(e) => write!(f, "i/o error: {e}"),
            VmemError::OutOfBounds { what } => write!(f, "out of bounds: {what}"),
            VmemError::Unsupported(what) => write!(f, "unsupported: {what}"),
            VmemError::MapsParse(line) => write!(f, "cannot parse /proc/self/maps line: {line}"),
            VmemError::UnknownBackend(name) => write!(
                f,
                "unknown backend '{name}' (available: {})",
                crate::AnyBackend::available_names().join(", ")
            ),
        }
    }
}

impl std::error::Error for VmemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmemError::Syscall { source, .. } => Some(source),
            VmemError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for VmemError {
    fn from(e: std::io::Error) -> Self {
        VmemError::Io(e)
    }
}

impl VmemError {
    /// Builds a [`VmemError::Syscall`] from the current `errno`.
    pub fn last_os_error(call: &'static str) -> Self {
        VmemError::Syscall {
            call,
            source: std::io::Error::last_os_error(),
        }
    }

    /// Builds an [`VmemError::OutOfBounds`] with a formatted description.
    pub fn out_of_bounds(what: impl Into<String>) -> Self {
        VmemError::OutOfBounds { what: what.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = VmemError::out_of_bounds("page 7 of 4");
        assert!(e.to_string().contains("page 7 of 4"));
        let e = VmemError::Unsupported("mmap on this platform");
        assert!(e.to_string().contains("unsupported"));
        let e = VmemError::MapsParse("garbage".into());
        assert!(e.to_string().contains("garbage"));
        let e: VmemError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn syscall_error_has_source() {
        use std::error::Error;
        let e = VmemError::Syscall {
            call: "mmap",
            source: std::io::Error::from_raw_os_error(libc_einval()),
        };
        assert!(e.to_string().starts_with("mmap failed"));
        assert!(e.source().is_some());
    }

    fn libc_einval() -> i32 {
        22
    }
}
