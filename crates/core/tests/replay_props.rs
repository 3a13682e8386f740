//! Property tests for the replay-log serialization schema.
//!
//! The log is the repo's only durable artifact — saved reproducers must
//! survive across sessions — so the serde layer gets the strongest guard we
//! can give it: arbitrary logs (binary request payloads, every injection
//! shape, every mode key) must round-trip through render → parse exactly,
//! and malformed or mislabeled documents must fail to parse, never panic.

use std::sync::Arc;

use proptest::prelude::*;
use shift_core::replay::{
    mode_from_key, mode_key, ConnectionLog, Expected, OpenLoopLog, ReplayLog,
};
use shift_core::{IoCostModel, Mode, Source, TaintConfig, ViolationAction, World};
use shift_isa::Gpr;
use shift_machine::{Fault, Injection, NatFaultKind};

const MODE_KEYS: [&str; 7] =
    ["plain", "byte", "word", "byte-enhanced", "word-enhanced", "shadow-byte", "shadow-word"];

fn mode_strategy() -> impl Strategy<Value = Mode> {
    (0usize..MODE_KEYS.len()).prop_map(|i| mode_from_key(MODE_KEYS[i]).unwrap())
}

fn injection_strategy() -> impl Strategy<Value = Injection> {
    prop_oneof![
        (0usize..Gpr::COUNT).prop_map(|i| Injection::FlipNat { reg: Gpr::from_index(i) }),
        (any::<u64>(), any::<u8>()).prop_map(|(addr, xor)| Injection::CorruptByte { addr, xor }),
        (any::<u64>(), any::<usize>())
            .prop_map(|(addr, ip)| Injection::Fault(Fault::Unmapped { addr, ip })),
        (any::<u64>(), 1u64..16, any::<usize>())
            .prop_map(|(addr, size, ip)| Injection::Fault(Fault::Unaligned { addr, size, ip })),
        (0usize..3, any::<usize>()).prop_map(|(k, ip)| {
            let kind =
                [NatFaultKind::StoreValue, NatFaultKind::LoadAddress, NatFaultKind::StoreAddress]
                    [k];
            Injection::Fault(Fault::NatConsumption { kind, ip })
        }),
    ]
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..48)
}

fn connection_strategy() -> impl Strategy<Value = ConnectionLog> {
    (
        prop::collection::vec(payload(), 0..4),
        prop::collection::vec((any::<u64>(), injection_strategy()), 0..3),
    )
        .prop_map(|(requests, injections)| ConnectionLog { requests, injections })
}

fn expected_strategy() -> impl Strategy<Value = Expected> {
    const EXITS: [&str; 5] = [
        "halted:0",
        "halted:3",
        "violation:H3@412",
        "fault:unmapped address 0x40 at ip 7",
        "fuel-exhausted",
    ];
    const POLICIES: [&str; 3] = ["H2", "H3", "L1"];
    (
        0usize..EXITS.len(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        (0u64..8, 0u64..8, 0u64..8, 0u64..8),
        prop::collection::vec(0usize..POLICIES.len(), 0..3),
    )
        .prop_map(|(exit, state_digest, cycles, instructions, (d, s, r, dr), v)| Expected {
            exit: EXITS[exit].to_string(),
            state_digest,
            cycles,
            instructions,
            delivered: d,
            served: s,
            recovered: r,
            dropped: dr,
            violations: v.into_iter().map(|i| POLICIES[i].to_string()).collect(),
        })
}

fn world_strategy() -> impl Strategy<Value = World> {
    const NAMES: [&str; 4] = ["/www/index.html", "/etc/secret", "data.bin", "a b\"c\\d"];
    (
        prop::collection::vec((0usize..NAMES.len(), payload()), 0..3),
        prop::collection::vec(payload(), 0..3),
        prop::collection::vec(payload(), 0..2),
        prop::collection::vec(payload(), 0..2),
    )
        .prop_map(|(files, net, kbd, args)| {
            let mut w = World::new();
            for (i, data) in files {
                Arc::make_mut(&mut w.files).insert(NAMES[i].to_string(), data);
            }
            w.net_input = net.into();
            w.kbd_input = kbd.into();
            w.args = args;
            w
        })
}

fn config_strategy() -> impl Strategy<Value = TaintConfig> {
    (0usize..3, any::<bool>()).prop_map(|(a, kbd_tainted)| {
        let action = [
            ViolationAction::Terminate,
            ViolationAction::LogAndContinue,
            ViolationAction::AbortTransaction,
        ][a];
        let mut cfg = TaintConfig::default_secure();
        cfg.set_default_action(action);
        cfg.set_source(Source::Keyboard, kbd_tainted);
        cfg
    })
}

fn open_loop_strategy() -> impl Strategy<Value = OpenLoopLog> {
    const SPECS: [&str; 3] = ["poisson:500", "bursty:250:16", "diurnal:100:0.8"];
    (
        0usize..SPECS.len(),
        prop::collection::vec(any::<u64>(), 0..6),
        (1usize..16, 1usize..64, 1usize..32, 0u64..1_000_000),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                spec,
                arrivals,
                (workers, accept_cap, max_resident, quantum),
                (completed, shed, wall_cycles),
            )| OpenLoopLog {
                spec: SPECS[spec].to_string(),
                arrivals,
                workers,
                accept_cap,
                max_resident,
                quantum,
                completed,
                shed,
                wall_cycles,
            },
        )
}

fn log_strategy() -> impl Strategy<Value = ReplayLog> {
    const PROGRAMS: [&str; 3] = ["apache", "chaos-sql", "some-guest"];
    (
        (
            0usize..PROGRAMS.len(),
            mode_strategy(),
            config_strategy(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            1usize..9,
            (any::<u64>(), any::<u64>()),
        ),
        world_strategy(),
        // Generating (inputs, outcome) pairs keeps `connections` and
        // `expected` the same length without needing flat-map.
        prop::collection::vec((connection_strategy(), expected_strategy()), 1..4),
        // The vendored proptest has no `prop::option`; a bool flag plays
        // that role.
        (any::<bool>(), open_loop_strategy()),
    )
        .prop_map(
            |(
                (program, mode, config, server_io, insn_limit, fuel, workers, (seed, digest)),
                base,
                pairs,
                (with_open_loop, open_loop),
            )| {
                let (connections, expected) = pairs.into_iter().unzip();
                ReplayLog {
                    program: PROGRAMS[program].to_string(),
                    mode,
                    config,
                    io: if server_io { IoCostModel::SERVER } else { IoCostModel::FREE },
                    insn_limit,
                    fuel,
                    workers,
                    seed,
                    image_digest: digest,
                    base,
                    connections,
                    expected,
                    open_loop: with_open_loop.then_some(open_loop),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary logs — binary payloads, every injection shape, every mode —
    /// survive render → parse exactly.
    #[test]
    fn replay_log_round_trips_through_json(log in log_strategy()) {
        let text = log.render();
        let back = ReplayLog::parse(&text).expect("rendered log parses");
        prop_assert_eq!(&back, &log);
        // Rendering is deterministic, so the artifact is diff-stable.
        prop_assert_eq!(back.render(), text);
    }

    /// Arbitrary junk never panics the parser — it errors.
    #[test]
    fn parse_never_panics_on_junk(junk in prop::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&junk);
        prop_assert!(ReplayLog::parse(&text).is_err());
    }

    /// Truncating a valid document anywhere must fail cleanly, not panic or
    /// yield a half-log.
    #[test]
    fn truncated_logs_are_rejected(log in log_strategy(), pct in 5u64..95) {
        let text = log.render();
        let cut = (text.len() as u64 * pct / 100) as usize;
        let mut end = cut.min(text.len().saturating_sub(1));
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        prop_assert!(ReplayLog::parse(&text[..end]).is_err());
    }
}

#[test]
fn mode_keys_cover_every_mode() {
    for key in MODE_KEYS {
        let mode = mode_from_key(key).unwrap();
        assert_eq!(mode_key(mode), key);
    }
    assert!(mode_from_key("nonsense").is_none());
}

#[test]
fn wrong_kind_and_future_schema_are_rejected() {
    let log = ReplayLog {
        program: "apache".into(),
        mode: mode_from_key("byte").unwrap(),
        config: TaintConfig::default_secure(),
        io: IoCostModel::FREE,
        insn_limit: 1,
        fuel: 1,
        workers: 1,
        seed: 0,
        image_digest: 0,
        base: World::new(),
        connections: vec![ConnectionLog::default()],
        expected: vec![],
        open_loop: None,
    };
    let text = log.render();
    let wrong_kind = text.replacen("shift-replay-log", "something-else", 1);
    assert!(ReplayLog::parse(&wrong_kind).is_err(), "kind must be checked");
    let future = text.replacen("\"schema_version\": 1", "\"schema_version\": 999", 1);
    assert!(ReplayLog::parse(&future).is_err(), "future schema must be rejected");
}
