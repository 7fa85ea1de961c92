//! Minimal leveled logging for binaries.
//!
//! The workspace's library crates are print-free; its binaries emit their
//! tables and diagnostics through these macros instead of raw `println!`,
//! so verbosity is controlled in one place. The default level is
//! [`Level::Info`] — binary table output is unchanged unless the user asks
//! for more (`--verbose`) or a harness silences it.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log verbosity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable problems (stderr).
    Error = 0,
    /// Suspicious conditions worth flagging (stderr).
    Warn = 1,
    /// Normal program output: tables, results (stdout). The default.
    Info = 2,
    /// Extra diagnostics, enabled by `--verbose` (stdout).
    Debug = 3,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the global maximum level that will be emitted.
pub(crate) fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether a message at `level` would currently be emitted.
#[must_use]
pub fn enabled(level: Level) -> bool {
    level as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// Convenience for binaries: `--verbose` raises the level to
/// [`Level::Debug`], otherwise leaves the [`Level::Info`] default.
pub fn set_verbose(verbose: bool) {
    if verbose {
        set_level(Level::Debug);
    }
}

/// Logs at [`Level::Error`] to stderr.
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            eprintln!($($arg)*);
        }
    };
}

/// Logs at [`Level::Warn`] to stderr.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            eprintln!($($arg)*);
        }
    };
}

/// Logs at [`Level::Info`] to stdout.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            println!($($arg)*);
        }
    };
}

/// Logs at [`Level::Debug`] to stdout (hidden unless `--verbose`).
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            println!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_gating() {
        // Default: Info on, Debug off.
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Warn);
        assert!(!enabled(Level::Info));
        assert!(enabled(Level::Warn));
        // Restore the default for other tests in this process.
        set_level(Level::Info);
    }
}
