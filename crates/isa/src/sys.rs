//! Runtime-call (syscall) numbers shared by the compiler, the guest libc and
//! the host runtime.
//!
//! A [`crate::Op::Syscall`] traps into the host runtime (`shift-core`), which
//! plays the role of the operating system *and* of the paper's policy engine:
//! calls marked as **taint sources** set tag bits for the bytes they write,
//! and calls marked as **sinks** run the configured security policies over
//! the taint of their arguments before performing the operation.
//!
//! Calling convention: arguments in `r16..=r23`, result in `r8`. String
//! arguments are passed as `(address, length)` pairs except paths, which are
//! NUL-terminated to keep the guest-libc string routines honest.

/// Terminate the program; `arg0` is the exit status.
pub const EXIT: u32 = 0;
/// Write `(arg0=addr, arg1=len)` to the diagnostic log (not a policy sink).
pub const PRINT: u32 = 1;
/// Read up to `arg1` bytes of network input into `arg0`; returns bytes read.
/// Default configuration: **taint source** (channel `network`).
pub const NET_READ: u32 = 2;
/// Send `(arg0=addr, arg1=len)` to the network peer.
pub const NET_WRITE: u32 = 3;
/// Open the NUL-terminated path at `arg0` with mode `arg1` (0 read, 1 write);
/// returns a file descriptor or -1. **Sink** for policies H1/H2.
pub const FILE_OPEN: u32 = 4;
/// Read up to `arg2` bytes from fd `arg0` into `arg1`; returns bytes read.
/// Default configuration: **taint source** (channel `disk`).
pub const FILE_READ: u32 = 5;
/// Write `(arg1=addr, arg2=len)` to fd `arg0`; returns bytes written.
pub const FILE_WRITE: u32 = 6;
/// Close fd `arg0`.
pub const FILE_CLOSE: u32 = 7;
/// Read up to `arg1` bytes of keyboard input into `arg0`; returns bytes read.
/// Default configuration: **taint source** (channel `keyboard`).
pub const KBD_READ: u32 = 8;
/// Execute the SQL statement `(arg0=addr, arg1=len)`. **Sink** for H3.
pub const SQL_EXEC: u32 = 9;
/// Run the shell command `(arg0=addr, arg1=len)`. **Sink** for H4.
pub const SYSTEM: u32 = 10;
/// Emit `(arg0=addr, arg1=len)` into the HTTP response body. **Sink** for H5.
pub const HTML_OUT: u32 = 11;
/// Return the size of the file at the NUL-terminated path `arg0`, or -1.
pub const FILE_STAT: u32 = 12;
/// Grow the heap by `arg0` bytes; returns the base address of the new block
/// (8-byte aligned). The bump allocator never frees.
pub const BRK: u32 = 13;
/// Copy program argument `arg0` into `(arg1=addr, arg2=max)`; returns its
/// length, or -1 if there is no such argument. Taintedness is configurable
/// per program (GNU tar's attack arrives through `argv`).
pub const GET_ARG: u32 = 14;
/// Returns the current simulated cycle count (diagnostics only).
pub const CLOCK: u32 = 16;
/// Raised from compiler-inserted `chk.s` recovery stubs when a guarded
/// register carried a taint tag (§3.3.3's user-level violation handling).
/// Never returns: the runtime stops the run with a `GUARD` violation.
pub const ALERT: u32 = 17;

/// Human-readable name for a runtime-call number (diagnostics).
pub fn name(num: u32) -> &'static str {
    match num {
        EXIT => "exit",
        PRINT => "print",
        NET_READ => "net_read",
        NET_WRITE => "net_write",
        FILE_OPEN => "file_open",
        FILE_READ => "file_read",
        FILE_WRITE => "file_write",
        FILE_CLOSE => "file_close",
        KBD_READ => "kbd_read",
        SQL_EXEC => "sql_exec",
        SYSTEM => "system",
        HTML_OUT => "html_out",
        FILE_STAT => "file_stat",
        BRK => "brk",
        GET_ARG => "get_arg",
        CLOCK => "clock",
        ALERT => "alert",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_unique() {
        let nums = [
            EXIT, PRINT, NET_READ, NET_WRITE, FILE_OPEN, FILE_READ, FILE_WRITE, FILE_CLOSE,
            KBD_READ, SQL_EXEC, SYSTEM, HTML_OUT, FILE_STAT, BRK, GET_ARG, CLOCK, ALERT,
        ];
        let mut sorted = nums;
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert_ne!(w[0], w[1], "duplicate syscall number {}", w[0]);
        }
    }

    #[test]
    fn names_resolve() {
        assert_eq!(name(FILE_OPEN), "file_open");
        assert_eq!(name(9999), "unknown");
    }
}
