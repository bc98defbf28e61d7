//! Behavioural integration tests for the wormhole mesh.

use sirtm_noc::{Mesh, NodeId, PacketKind, Port, RcapCommand, RouterConfig, REDIRECT_AGE};
use sirtm_taskgraph::{GridDims, TaskId};

fn mesh(w: u16, h: u16) -> Mesh {
    Mesh::new(GridDims::new(w, h), RouterConfig::default())
}

/// A mesh whose routers absorb aged packets of their local task.
fn opportunistic_mesh(w: u16, h: u16) -> Mesh {
    let config = RouterConfig {
        opportunistic_delivery: true,
        ..RouterConfig::default()
    };
    Mesh::new(GridDims::new(w, h), config)
}

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

fn t(i: u8) -> TaskId {
    TaskId::new(i)
}

#[test]
fn single_packet_crosses_the_grid() {
    let mut m = mesh(8, 16);
    // (0,0) → (7,15): 7 + 15 = 22 hops; head needs ~1 cycle per hop plus
    // injection and delivery, payload pipelines behind.
    m.inject(n(0), n(127), t(0), PacketKind::Data, 4);
    let mut arrived_at = None;
    for c in 0..200 {
        m.step();
        if m.stats().delivered == 1 {
            arrived_at = Some(c + 1);
            break;
        }
    }
    let cycles = arrived_at.expect("packet must arrive");
    assert!(
        (22..60).contains(&cycles),
        "delivery took {cycles} cycles, expected a pipelined XY traversal"
    );
    let delivered = m.take_delivered(n(127));
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].src, n(0));
    assert_eq!(delivered[0].task, t(0));
}

#[test]
fn xy_route_monitors_count_on_path_routers_only() {
    let mut m = mesh(4, 4);
    // (0,0) → (2,0) → then south to (2,2): XY goes east first.
    m.inject(n(0), n(10), t(1), PacketKind::Data, 0);
    assert!(m.quiesce(100), "fabric must drain");
    // Path routers: n0 (inject→E), n1 (E), n2 (turn S), n6 (S) route
    // the head once for task 1; n10 delivers it.
    for on_path in [0u16, 1, 2, 6] {
        assert_eq!(
            m.monitors(n(on_path)).routed_per_task(),
            &[0, 1, 0],
            "router n{on_path} should have routed the packet"
        );
    }
    assert_eq!(m.monitors(n(10)).internal_per_task(), &[0, 1, 0]);
    // Every other router, including those a YX route would use, saw
    // nothing.
    for off_path in (0u16..16).filter(|i| ![0, 1, 2, 6, 10].contains(i)) {
        let monitors = m.monitors(n(off_path));
        assert_eq!(
            (monitors.routed_per_task(), monitors.internal_per_task()),
            (&[0, 0, 0][..], &[0, 0, 0][..]),
            "router n{off_path} is off the XY path"
        );
    }
}

#[test]
fn self_addressed_packet_delivers_locally() {
    let mut m = mesh(4, 4);
    m.inject(n(5), n(5), t(2), PacketKind::Data, 2);
    assert!(m.quiesce(50));
    let got = m.take_delivered(n(5));
    assert_eq!(got.len(), 1);
    assert_eq!(m.stats().delivered, 1);
    assert_eq!(m.monitors(n(5)).internal_per_task()[2], 1);
}

#[test]
fn wormhole_holds_circuit_until_tail() {
    // A long packet and a crossing packet that needs the same output port:
    // the second must wait for the first's tail (no flit interleaving).
    let mut m = mesh(5, 1);
    m.inject(n(0), n(4), t(0), PacketKind::Data, 6);
    // Give the first head a head start so it allocates the east ports.
    for _ in 0..3 {
        m.step();
    }
    m.inject(n(1), n(4), t(1), PacketKind::Data, 0);
    assert!(m.quiesce(200));
    assert_eq!(m.stats().delivered, 2);
    let delivered = m.take_delivered(n(4));
    // The long packet completes first despite the short one being closer.
    assert_eq!(delivered[0].task, t(0));
    assert_eq!(delivered[1].task, t(1));
}

#[test]
fn backpressure_limits_in_flight_flits() {
    // Many packets to one sink through a single column: small buffers mean
    // upstream injection stalls rather than flits being lost.
    let mut m = mesh(1, 8);
    for _ in 0..10 {
        m.inject(n(0), n(7), t(0), PacketKind::Data, 3);
    }
    assert!(m.quiesce(2000), "all packets eventually drain");
    assert_eq!(m.stats().delivered, 10);
    assert_eq!(m.stats().dropped, 0);
}

#[test]
fn rcap_config_packet_reconfigures_remote_router() {
    let mut m = mesh(4, 4);
    m.send_config(n(0), n(10), RcapCommand::SetPortEnabled(Port::West, false));
    assert!(m.quiesce(100));
    assert!(!m.router(n(10)).settings().port_enabled[Port::West.index()]);
    assert_eq!(m.stats().config_consumed, 1);
    assert_eq!(m.stats().delivered, 0, "config packets are not deliveries");
}

#[test]
fn rcap_aim_write_is_queued_for_platform() {
    let mut m = mesh(4, 4);
    m.send_config(n(3), n(12), RcapCommand::AimWrite { reg: 9, value: 42 });
    assert!(m.quiesce(100));
    assert_eq!(m.aim_writes_pending(), 1);
    assert_eq!(m.pop_aim_write(n(12)), Some((9, 42)));
    assert_eq!(m.pop_aim_write(n(12)), None);
    assert_eq!(m.aim_writes_pending(), 0);
}

#[test]
fn debug_interface_configures_without_traffic() {
    let mut m = mesh(4, 4);
    m.apply_config_direct(n(6), RcapCommand::SetPortEnabled(Port::South, false));
    assert!(!m.router(n(6)).settings().port_enabled[Port::South.index()]);
    assert_eq!(m.stats().injected, 0);
}

#[test]
fn packet_to_dead_router_is_dropped_by_recovery() {
    let mut m = mesh(4, 1);
    m.kill(n(3));
    m.inject(n(0), n(3), t(0), PacketKind::Data, 1);
    // Give the 200-cycle deadlock timeout time to trigger.
    for _ in 0..600 {
        m.step();
    }
    assert_eq!(m.stats().delivered, 0);
    assert_eq!(m.stats().dropped, 1);
    assert!(m.is_idle(), "dropped packet leaves no residue");
}

#[test]
fn disabled_port_blocks_and_recovery_cleans_up() {
    let mut m = mesh(4, 1);
    // Disable n1's east output: the packet gets stuck at n1.
    m.apply_config_direct(n(1), RcapCommand::SetPortEnabled(Port::East, false));
    m.inject(n(0), n(3), t(0), PacketKind::Data, 2);
    for _ in 0..600 {
        m.step();
    }
    assert_eq!(m.stats().dropped, 1);
    assert!(m.is_idle());
}

#[test]
fn opportunistic_delivery_absorbs_aged_packets() {
    let mut m = opportunistic_mesh(4, 1);
    // n3 is dead; n2 runs the packet's task and absorbs it once aged.
    m.kill(n(3));
    m.set_local_task(n(2), Some(t(1)));
    m.inject(n(0), n(3), t(1), PacketKind::Data, 1);
    // The packet blocks at n2 and reaches the redirect age before the
    // deadlock timeout would drop it.
    for _ in 0..600 {
        m.step();
    }
    assert_eq!(m.stats().delivered, 1, "n2 should absorb the aged packet");
    assert_eq!(m.stats().dropped, 0);
    assert!(
        m.stats().latency_max > REDIRECT_AGE,
        "absorbed only once aged: latency {}",
        m.stats().latency_max
    );
    let got = m.take_delivered(n(2));
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].dest, n(3), "header still names the dead node");
}

#[test]
fn opportunistic_delivery_ignores_wrong_task() {
    let mut m = opportunistic_mesh(4, 1);
    m.kill(n(3));
    m.set_local_task(n(2), Some(t(2))); // different task
    m.inject(n(0), n(3), t(1), PacketKind::Data, 1);
    for _ in 0..600 {
        m.step();
    }
    assert_eq!(m.stats().delivered, 0);
    assert_eq!(m.stats().dropped, 1);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut m = mesh(8, 8);
        for i in 0..32u16 {
            m.inject(
                n(i),
                n(63 - i),
                t((i % 3) as u8),
                PacketKind::Data,
                (i % 5) as u8,
            );
        }
        for _ in 0..500 {
            m.step();
        }
        m
    };
    let (m1, m2) = (run(), run());
    assert_eq!(m1.stats(), m2.stats(), "stats must replay identically");
    assert!(m1 == m2, "fabric state must replay identically");
}

#[test]
fn latency_statistics_are_sane() {
    let mut m = mesh(8, 1);
    m.inject(n(0), n(7), t(0), PacketKind::Data, 0);
    assert!(m.quiesce(100));
    let stats = m.stats();
    let mean = stats.mean_latency().expect("one delivery");
    assert!(mean >= 7.0, "7 hops minimum, got {mean}");
    assert_eq!(stats.latency_max as f64, mean, "single packet");
    assert_eq!(stats.in_flight(), 0);
}

#[test]
fn oldest_waiting_app_packet_reports_head_of_line() {
    let mut m = mesh(4, 1);
    // Block the path: n2's east port disabled so packets queue at n2/n1.
    m.apply_config_direct(n(2), RcapCommand::SetPortEnabled(Port::East, false));
    m.inject(n(0), n(3), t(2), PacketKind::Data, 1);
    for _ in 0..60 {
        m.step();
    }
    let now = m.cycle();
    let waiting = m.oldest_waiting_app_packet(n(2), now);
    let (task, age) = waiting.expect("head should be waiting at n2");
    assert_eq!(task, t(2));
    assert!(age > 10, "packet has been waiting, age {age}");
}
