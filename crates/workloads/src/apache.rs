//! Apache-like static-file server and its request generator (Figure 6).
//!
//! The guest server loops over network requests, parses the request line
//! with instrumented byte code (the tainted part), builds a response header
//! with `strcpy`/`strcat`/`utoa`, and streams the file out in 4 KiB chunks.
//! Transfer time is charged by the runtime's [`IoCostModel`]; the guest CPU
//! work per request is roughly constant, so — like real Apache under `ab` —
//! total time is I/O-dominated and SHIFT's overhead nearly vanishes.
//! Smaller files have proportionally more CPU per byte, which is why the
//! paper's 4 KiB column shows the largest overhead (~4.2%).

use shift_ir::{Program, ProgramBuilder, Rhs};
use shift_isa::{sys, CmpRel};

use shift_core::{Fleet, IoCostModel, Mode, Shift, TaintConfig, ViolationAction, World};

/// A served file's name in the guest filesystem.
pub const DOC_PATH: &str = "www/page";

/// Where the directory-traversal exploit escapes the docroot to. The
/// simulated filesystem does exact-name lookups, so the traversal target
/// exists under its raw traversed name.
pub const SECRET_PATH: &str = "www/../../secret";

/// The secret's content — recognisable so tests can assert it never leaks.
pub const SECRET_BYTES: &[u8] = b"TOP-SECRET-KEY-MATERIAL";

/// A benign request for the standard document.
pub fn benign_request() -> Vec<u8> {
    get_request(b"page")
}

/// The qwikiwiki-style traversal exploit aimed at the Apache guest: tainted
/// `..` path components reaching `file_open` trip policy H2.
pub fn exploit_request() -> Vec<u8> {
    get_request(b"../../secret")
}

/// Builds the server guest program.
pub fn apache_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let prefix = pb.global_str("docroot", "www/");
    let hdr_ok = pb.global_str("hdr_ok", "HTTP/1.0 200 OK\r\nContent-Length: ");
    let hdr_end = pb.global_str("hdr_end", "\r\n\r\n");
    let resp_404 = pb.global_str("resp_404", "HTTP/1.0 404 Not Found\r\n\r\n");

    pb.func("main", 0, move |f| {
        let reqslot = f.local(512);
        let req = f.local_addr(reqslot);
        let pathslot = f.local(512);
        let path = f.local_addr(pathslot);
        let hdrslot = f.local(256);
        let hdr = f.local_addr(hdrslot);
        let bufsz = f.iconst(4096);
        let filebuf = f.syscall(sys::BRK, &[bufsz]);
        let served = f.iconst(0);

        f.loop_(|f| {
            let cap = f.iconst(500);
            let n = f.syscall(sys::NET_READ, &[req, cap]);
            f.if_cmp(CmpRel::Le, n, Rhs::Imm(0), |f| f.break_());
            let end = f.add(req, n);
            let z = f.iconst(0);
            f.store1(z, end, 0);

            // Parse "GET /<name> ..." — tainted byte compares.
            let ok = f.iconst(1);
            let expect = [b'G', b'E', b'T', b' ', b'/'];
            for (k, &ch) in expect.iter().enumerate() {
                let c = f.load1(req, k as i64);
                f.if_cmp(CmpRel::Ne, c, Rhs::Imm(ch as i64), |f| f.assign_imm(ok, 0));
            }
            f.if_cmp(CmpRel::Eq, ok, Rhs::Imm(0), |f| f.continue_());

            // path = "www/" + name-up-to-space.
            let pfx = f.global_addr(prefix);
            f.call_void("strcpy", &[path, pfx]);
            let plen = f.call("strlen", &[path]);
            let i = f.iconst(5); // past "GET /"
            f.loop_(|f| {
                let sp = f.add(req, i);
                let c = f.load1(sp, 0);
                f.if_cmp(CmpRel::Eq, c, Rhs::Imm(' ' as i64), |f| f.break_());
                f.if_cmp(CmpRel::Eq, c, Rhs::Imm(0), |f| f.break_());
                let dpbase = f.add(path, plen);
                let rel = f.addi(i, -5);
                let dp = f.add(dpbase, rel);
                f.store1(c, dp, 0);
                let i1 = f.addi(i, 1);
                f.assign(i, i1);
            });
            let total = f.addi(i, -5);
            let endp0 = f.add(path, plen);
            let endp = f.add(endp0, total);
            let z2 = f.iconst(0);
            f.store1(z2, endp, 0);

            // stat → 404 or stream.
            let size = f.syscall(sys::FILE_STAT, &[path]);
            f.if_cmp(CmpRel::Lt, size, Rhs::Imm(0), |f| {
                let r404 = f.global_addr(resp_404);
                let l404 = f.call("strlen", &[r404]);
                f.syscall_void(sys::NET_WRITE, &[r404, l404]);
                f.continue_();
            });

            // Header: "HTTP/1.0 200 OK\r\nContent-Length: <size>\r\n\r\n".
            let h0 = f.global_addr(hdr_ok);
            f.call_void("strcpy", &[hdr, h0]);
            let hl = f.call("strlen", &[hdr]);
            let numdst = f.add(hdr, hl);
            let nd = f.call("utoa", &[size, numdst]);
            let hl2 = f.add(hl, nd);
            let tail = f.add(hdr, hl2);
            let he = f.global_addr(hdr_end);
            f.call_void("strcpy", &[tail, he]);
            let hlen = f.call("strlen", &[hdr]);
            f.syscall_void(sys::NET_WRITE, &[hdr, hlen]);

            // Stream the file in chunks.
            let zero = f.iconst(0);
            let fd = f.syscall(sys::FILE_OPEN, &[path, zero]);
            f.if_cmp(CmpRel::Lt, fd, Rhs::Imm(0), |f| f.continue_());
            f.loop_(|f| {
                let chunk = f.iconst(4096);
                let got = f.syscall(sys::FILE_READ, &[fd, filebuf, chunk]);
                f.if_cmp(CmpRel::Le, got, Rhs::Imm(0), |f| f.break_());
                f.syscall_void(sys::NET_WRITE, &[filebuf, got]);
            });
            f.syscall_void(sys::FILE_CLOSE, &[fd]);
            let s1 = f.addi(served, 1);
            f.assign(served, s1);
        });

        f.ret(Some(served));
    });

    pb.build().expect("apache guest is well-formed")
}

// ---- fleet serving ---------------------------------------------------------

/// The request mix a fleet connection carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApacheStream {
    /// Every request fetches [`DOC_PATH`] at this size in bytes — the
    /// Figure-6 single-file shape, partitioned across connections.
    Uniform(usize),
    /// Hits on three files of different sizes interleaved with 404s — a
    /// closer match to production traffic than the single-file Figure-6
    /// sweep. Connections start at staggered offsets in the rotation, so a
    /// fleet's instances carry near-identical load when each connection's
    /// length is a multiple of 4.
    Mixed,
}

/// The filesystem a fleet's connections share (no network queue — each
/// connection brings its own).
pub fn fleet_world(stream: ApacheStream) -> World {
    match stream {
        ApacheStream::Uniform(size) => {
            World::new().file(DOC_PATH, super::spec::prng_bytes(77, size))
        }
        ApacheStream::Mixed => World::new()
            .file("www/index", super::spec::prng_bytes(11, 2048))
            .file("www/logo", super::spec::prng_bytes(12, 8192))
            .file("www/data", super::spec::prng_bytes(13, 32768)),
    }
}

/// `GET /<name> HTTP/1.0` with its terminating blank line.
fn get_request(name: &[u8]) -> Vec<u8> {
    let mut req = b"GET /".to_vec();
    req.extend_from_slice(name);
    req.extend_from_slice(b" HTTP/1.0\r\n\r\n");
    req
}

/// Deterministic per-connection request lists for `stream`: `connections`
/// connections of `requests_per_conn` ordered requests each.
pub fn fleet_connections(
    stream: ApacheStream,
    connections: usize,
    requests_per_conn: usize,
) -> Vec<Vec<Vec<u8>>> {
    let paths: [&[u8]; 4] = [b"index", b"logo", b"data", b"missing"];
    (0..connections)
        .map(|c| {
            (0..requests_per_conn)
                .map(|i| match stream {
                    ApacheStream::Uniform(_) => benign_request(),
                    ApacheStream::Mixed => get_request(paths[(c + i) % paths.len()]),
                })
                .collect()
        })
        .collect()
}

/// Prepares an Apache fleet under `mode`: one compile + link + load, with
/// per-request isolation active on every spawned instance. Every request
/// is a transaction (machine snapshot + runtime checkpoint at `net_read`),
/// detections and faults roll the offending request back
/// (`AbortTransaction` for every policy), transfers pay server I/O costs,
/// and watchdog fuel bounds each request's instruction budget. This is the
/// one definition of the Apache serving session: the chaos registry, the
/// CLI's `serve` and the benchmarks all serve through it.
pub fn apache_fleet(mode: Mode) -> Fleet {
    let mut cfg = TaintConfig::default_secure();
    cfg.set_default_action(ViolationAction::AbortTransaction);
    let shift = Shift::new(mode)
        .with_config(cfg)
        .with_io(IoCostModel::SERVER)
        .with_insn_limit(4_000_000_000)
        .with_fuel(20_000_000);
    shift.fleet(&apache_program()).expect("apache guest compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_core::{Exit, Granularity, ServeReport, ShiftOptions};

    #[test]
    fn serves_requests_and_streams_bytes() {
        let run = serve(Mode::Uninstrumented, uniform_world(4096), &vec![benign_request(); 3]);
        assert_eq!(run.served, 3);
        // 3 × (header + 4096 bytes of body).
        let bytes_out = run.runtime.net_output.len();
        assert!(bytes_out > 3 * 4096, "bytes_out = {bytes_out}");
        assert!(run.stats.io_cycles > 0);
    }

    #[test]
    fn missing_file_gets_404_without_crashing() {
        let program = apache_program();
        let shift = Shift::new(Mode::Uninstrumented).with_io(IoCostModel::SERVER);
        let world = World::new().net(b"GET /nope HTTP/1.0\r\n\r\n".to_vec());
        let report = shift.run(&program, world).unwrap();
        assert_eq!(report.exit, Exit::Halted(0));
        assert!(report.runtime.net_output.starts_with(b"HTTP/1.0 404"));
    }

    #[test]
    fn log_and_continue_answers_every_request() {
        // The README quickstart scenario: under `LogAndContinue` the
        // traversal exploit is logged and its sink refused, but no request
        // is dropped and the server never rolls back.
        let mut cfg = TaintConfig::default_secure();
        cfg.set_default_action(ViolationAction::LogAndContinue);
        let world = World::new()
            .file(DOC_PATH, vec![7u8; 4096])
            .file(SECRET_PATH, SECRET_BYTES.to_vec())
            .net(benign_request())
            .net(exploit_request())
            .net(benign_request());
        let report = Shift::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
            .with_config(cfg)
            .serve(&apache_program(), world)
            .unwrap();
        assert_eq!(report.violations[0].policy, "H2", "{:?}", report.violations);
        assert!(report.nothing_dropped(), "dropped = {}", report.dropped);
        assert_eq!(report.recovered, 0);
        let out = &report.runtime.net_output;
        assert!(
            !out.windows(SECRET_BYTES.len()).any(|w| w == SECRET_BYTES),
            "refused sink must not leak the secret"
        );
    }

    #[test]
    fn overhead_is_io_dominated() {
        // Figure 6's core claim: instrumented vs baseline end-to-end time
        // differs by a few percent at most, even though CPU time differs by
        // 2–4×.
        let reqs = vec![benign_request(); 4];
        let base = serve(Mode::Uninstrumented, uniform_world(4096), &reqs);
        let byte = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let inst = serve(byte, uniform_world(4096), &reqs);
        assert_eq!(base.served, inst.served);
        let overhead = inst.stats.total_time() as f64 / base.stats.total_time() as f64;
        assert!(overhead < 1.25, "server overhead should be I/O-masked, got {overhead:.3}");
        let cpu_ratio = inst.stats.cycles as f64 / base.stats.cycles as f64;
        assert!(cpu_ratio > 1.5, "CPU work must still differ, got {cpu_ratio:.2}");
    }

    /// Serves `requests` in order on one [`apache_fleet`] instance over
    /// `world`.
    fn serve(mode: Mode, world: World, requests: &[Vec<u8>]) -> ServeReport {
        let fleet = apache_fleet(mode);
        let world = requests.iter().fold(world, |w, r| w.net(r.clone()));
        fleet.shift().serve_image(fleet.image(), world, &[])
    }

    /// The Figure-6 document at `file_size` bytes.
    fn uniform_world(file_size: usize) -> World {
        fleet_world(ApacheStream::Uniform(file_size))
    }

    /// The Figure-6 document plus the out-of-docroot secret the traversal
    /// exploit goes after.
    fn secret_world(file_size: usize) -> World {
        uniform_world(file_size).file(SECRET_PATH, SECRET_BYTES)
    }

    #[test]
    fn mixed_traffic_serves_hits_and_404s() {
        // 8 requests: 6 hits (2 per file) + 2 misses.
        let reqs = fleet_connections(ApacheStream::Mixed, 1, 8).remove(0);
        let run = serve(Mode::Uninstrumented, fleet_world(ApacheStream::Mixed), &reqs);
        assert_eq!(run.exit, Exit::Halted(6));
        let instrumented = serve(
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            fleet_world(ApacheStream::Mixed),
            &reqs,
        );
        assert_eq!(instrumented.exit, Exit::Halted(6), "no false positives under mixed traffic");
        let overhead = instrumented.stats.total_time() as f64 / run.stats.total_time() as f64;
        assert!(overhead < 1.15, "mixed traffic still I/O-masked: {overhead:.3}");
    }

    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn resilient_server_survives_mixed_exploit_stream() {
        // 9 requests, every third one a traversal exploit: the server must
        // detect all 3 attacks, roll each back, and serve all 6 benign
        // requests — zero dropped.
        let reqs: Vec<Vec<u8>> =
            (0..9).map(|i| if i % 3 == 2 { exploit_request() } else { benign_request() }).collect();
        let run = serve(
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            secret_world(2048),
            &reqs,
        );
        assert_eq!(run.exit, Exit::Halted(6), "{:?}", run.exit);
        assert_eq!(run.served, 6, "every benign request must be served");
        assert_eq!(run.recovered, 3, "every exploit must be rolled back");
        assert_eq!(run.dropped, 0);
        assert_eq!(run.violations.len(), 3);
        assert!(run.violations.iter().all(|v| v.policy == "H2"), "{:?}", run.violations);
        assert!(run.recovery_cycles > 0);
        let out = &run.runtime.net_output;
        assert!(!contains(out, SECRET_BYTES), "the secret must never reach the socket");
        // 6 × (200 header + 2048 body), and nothing from aborted requests.
        assert!(out.len() > 6 * 2048);
    }

    #[test]
    fn unprotected_server_leaks_the_secret() {
        // The same exploit against the uninstrumented server demonstrates
        // the attack is real: the traversal walks out of the docroot.
        let run = serve(Mode::Uninstrumented, secret_world(1024), &[exploit_request()]);
        assert_eq!(run.exit, Exit::Halted(1));
        assert!(run.violations.is_empty(), "nothing to detect without tags");
        assert!(
            contains(&run.runtime.net_output, SECRET_BYTES),
            "unprotected traversal must leak the secret"
        );
    }

    #[test]
    fn resilient_clean_stream_has_zero_recovery_overhead() {
        let reqs = vec![benign_request(); 4];
        let run = serve(
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            secret_world(4096),
            &reqs,
        );
        assert_eq!(run.exit, Exit::Halted(4));
        assert_eq!((run.served, run.recovered, run.dropped), (4, 0, 0));
        assert_eq!(run.recovery_cycles, 0);
        assert!(run.violations.is_empty());
    }

    #[test]
    fn benign_requests_raise_no_alarms() {
        // Full policy set armed; normal traffic must not trip anything.
        let byte = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let run = serve(byte, uniform_world(2048), &vec![benign_request(); 3]);
        assert_eq!(run.served, 3, "false positive stopped the server");
        assert!(run.violations.is_empty(), "{:?}", run.violations);
    }

    #[test]
    fn fleet_mixed_stream_serves_hits_and_scales_with_width() {
        // 8 connections × 4 requests, each connection a full rotation:
        // 3 hits + 1 miss per connection.
        let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let fleet = apache_fleet(mode);
        let conns = fleet_connections(ApacheStream::Mixed, 8, 4);
        let world = fleet_world(ApacheStream::Mixed);

        let one = fleet.serve(&world, &conns, 1);
        let eight = fleet.serve(&world, &conns, 8);
        // All 32 requests complete (404 answers are completed requests too);
        // each guest reports its 3 file hits on exit.
        assert_eq!(one.served, 32, "{:?}", one.exits());
        assert_eq!(eight.served, 32);
        assert!(one.exits().iter().all(|e| *e == Exit::Halted(3)));
        assert!(one.nothing_dropped() && eight.nothing_dropped());
        // Modelled results are width-independent …
        assert_eq!(one.stats.total_time(), eight.stats.total_time());
        assert_eq!(one.exits(), eight.exits());
        // … but the fleet makespan (and hence throughput) scales with width.
        assert!(
            eight.requests_per_sec() >= 3.0 * one.requests_per_sec(),
            "8-wide fleet must be ≥3× 1-wide: {:.1} vs {:.1}",
            eight.requests_per_sec(),
            one.requests_per_sec()
        );
    }

    #[test]
    fn fleet_recovers_exploits_per_instance() {
        // Seed an exploit into two connections: each instance rolls its own
        // attack back; the others never notice.
        let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
        let fleet = apache_fleet(mode);
        let mut conns = fleet_connections(ApacheStream::Uniform(1024), 4, 2);
        conns[1][0] = exploit_request();
        conns[3][1] = exploit_request();
        let world = fleet_world(ApacheStream::Uniform(1024)).file(SECRET_PATH, SECRET_BYTES);

        let report = fleet.serve(&world, &conns, 4);
        assert_eq!(report.served, 6, "{:?}", report.exits());
        assert_eq!(report.recovered, 2);
        assert!(report.nothing_dropped());
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations.iter().all(|v| v.policy == "H2"));
        // Per-connection provenance: the violations came from the seeded
        // connections, in connection order.
        assert_eq!(report.connections[1].violations.len(), 1);
        assert_eq!(report.connections[3].violations.len(), 1);
        assert_eq!(report.connections[0].violations.len(), 0);
    }
}
