//! Standard output of the `repro` and `scenarios` binaries.

use std::io::{ErrorKind, Write};

/// Writes `args` to stdout. A reader that has gone away (`scenarios list
/// | head -n 1`) is not an error: the output is dropped and the command
/// carries on, so it still writes its artefacts and exits 0. Any other
/// write error ends the process with status 1. (`println!` panics in
/// both cases, with status 101 and a backtrace.)
pub fn print_stdout(args: std::fmt::Arguments<'_>) {
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

/// `println!` through [`print_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::print_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`print_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::print_stdout(format_args!($($arg)*))
    };
}
