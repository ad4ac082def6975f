//! Fault injection: the distributed negotiation under message loss and
//! extreme latency, and the protocol-level equal-treatment invariant.

use loadbal::core::distributed::run_distributed;
use loadbal::core::message::Msg;
use loadbal::massim::clock::SimDuration;
use loadbal::massim::network::NetworkModel;
use loadbal::prelude::*;

#[test]
fn negotiations_survive_heavy_loss() {
    for &drop in &[0.1, 0.3, 0.5] {
        let scenario = ScenarioBuilder::random(40, 0.35, 5).build();
        let outcome = run_distributed(
            &scenario,
            NetworkModel::uniform(1, 10).with_drop_probability(drop),
            11,
            SimDuration::from_ticks(300),
        );
        assert!(
            outcome.report.converged(),
            "drop {drop}: {}",
            outcome.report
        );
        assert!(
            outcome.report.final_overuse() <= outcome.report.initial_overuse(),
            "drop {drop} must not worsen the peak"
        );
    }
}

#[test]
fn loss_costs_rounds_but_not_safety() {
    let scenario = ScenarioBuilder::random(60, 0.35, 9).build();
    let clean = run_distributed(
        &scenario,
        NetworkModel::uniform(1, 10),
        13,
        SimDuration::from_ticks(300),
    );
    let lossy = run_distributed(
        &scenario,
        NetworkModel::uniform(1, 10).with_drop_probability(0.4),
        13,
        SimDuration::from_ticks(300),
    );
    // Bids can only be delayed, never retracted — monotonic concession
    // means the lossy run's final overuse is at most slightly worse.
    assert!(lossy.report.converged());
    assert!(
        lossy.report.final_overuse_fraction() <= clean.report.final_overuse_fraction() + 0.25,
        "lossy {} vs clean {}",
        lossy.report.final_overuse_fraction(),
        clean.report.final_overuse_fraction()
    );
}

#[test]
fn duplicated_messages_are_idempotent_end_to_end() {
    // An at-least-once transport duplicating half of all messages: every
    // duplicate bid/announcement must be absorbed without changing the
    // outcome, so the run matches the loss-free synchronous reference
    // exactly (fixed latency keeps rounds aligned).
    use loadbal::core::methods::AnnouncementMethod;
    for method in AnnouncementMethod::all() {
        let scenario = ScenarioBuilder::random(30, 0.35, 12).method(method).build();
        let sync = scenario.run();
        let outcome = run_distributed(
            &scenario,
            NetworkModel::uniform(1, 1).with_duplicate_probability(0.5),
            17,
            SimDuration::from_ticks(300),
        );
        assert!(
            outcome.traffic.messages_duplicated > 0,
            "{method}: duplication must actually occur"
        );
        assert_eq!(
            outcome.report.final_bids(),
            sync.final_bids(),
            "{method}: duplicated messages changed the outcome"
        );
        assert_eq!(outcome.report.status(), sync.status(), "{method}");
        assert_eq!(
            outcome.report.rounds().len(),
            sync.rounds().len(),
            "{method}: duplicated messages changed the round count"
        );
    }
}

#[test]
fn reordered_messages_still_converge_with_monotonic_bids() {
    use loadbal::core::concession::verify_bids;
    for seed in [5, 21, 33] {
        let scenario = ScenarioBuilder::random(35, 0.35, seed).build();
        let outcome = run_distributed(
            &scenario,
            NetworkModel::uniform(1, 10).with_reordering(0.4, 60),
            seed,
            SimDuration::from_ticks(300),
        );
        assert!(
            outcome.report.converged(),
            "seed {seed}: {}",
            outcome.report
        );
        // Reordering may cost rounds (late bids carry forward) but can
        // never break monotonic concession or worsen the peak.
        assert!(
            verify_bids(outcome.report.rounds()).is_ok(),
            "seed {seed}: bid retreat"
        );
        assert!(outcome.report.final_overuse() <= outcome.report.initial_overuse());
    }
}

#[test]
fn chaos_network_loss_duplication_reordering_together() {
    let scenario = ScenarioBuilder::random(40, 0.35, 27).build();
    let outcome = run_distributed(
        &scenario,
        NetworkModel::uniform(1, 15)
            .with_drop_probability(0.2)
            .with_duplicate_probability(0.2)
            .with_reordering(0.3, 40),
        31,
        SimDuration::from_ticks(400),
    );
    assert!(outcome.report.converged(), "{}", outcome.report);
    assert!(outcome.traffic.messages_dropped > 0);
    assert!(outcome.traffic.messages_duplicated > 0);
    assert!(outcome.report.final_overuse() <= outcome.report.initial_overuse());
}

#[test]
fn negotiation_survives_a_total_outage_window() {
    // The backhaul is completely down for a window covering the first
    // announcement round; the UA's deadlines ride it out and the
    // negotiation still converges afterwards.
    let scenario = ScenarioBuilder::random(25, 0.35, 8).build();
    let outcome = run_distributed(
        &scenario,
        NetworkModel::uniform(1, 5).with_outage(0, 120),
        21,
        SimDuration::from_ticks(100),
    );
    assert!(outcome.report.converged(), "{}", outcome.report);
    assert!(outcome.traffic.messages_dropped > 0, "outage must bite");
    assert!(outcome.report.final_overuse() <= outcome.report.initial_overuse());
}

#[test]
fn short_deadline_still_terminates() {
    // A deadline shorter than the round trip: every round concludes with
    // carried-forward bids; the ε rule still terminates the protocol.
    let scenario = ScenarioBuilder::random(20, 0.35, 3).build();
    let outcome = run_distributed(
        &scenario,
        NetworkModel::uniform(5, 10),
        3,
        SimDuration::from_ticks(2),
    );
    assert!(outcome.report.converged(), "{}", outcome.report);
}

/// Hands `msg` to customer `i` and its reply, if any, straight back to
/// the Utility Agent — one step of the crate-doc hand pump.
fn deliver(utility: &mut UtilityEngine, customer: &mut CustomerEngine, i: usize, msg: &Msg) {
    if let Some(reply) = customer.answer(msg) {
        utility.handle(Input::Received {
            from: i,
            msg: reply,
        });
    }
}

#[test]
fn crashed_customers_do_not_block_the_negotiation() {
    // Every third customer goes silent after its round-1 bid (crash,
    // smart-meter failure, ...). The hand pump never reaches a crashed
    // customer again and fires a round's deadline whenever replies are
    // missing. The UA's deadline mechanism must carry the negotiation to
    // a proper termination regardless, keeping each crashed customer's
    // last bid (monotonic concession allows that).
    let scenario = ScenarioBuilder::random(30, 0.35, 6).build();
    let mut utility = UtilityEngine::new(&scenario);
    let mut customers: Vec<CustomerEngine> = (0..scenario.customers.len())
        .map(|i| CustomerEngine::for_customer(&scenario, i))
        .collect();
    let crashed = |i: usize, round: u32| i.is_multiple_of(3) && round > 1;
    let mut replies_missing = false;
    utility.handle(Input::Start);
    while let Some(effect) = utility.poll_effect() {
        match effect {
            Effect::Broadcast { msg } => {
                let Msg::Announce { round, .. } = msg else {
                    panic!("reward-table rounds announce tables, got {msg}");
                };
                replies_missing = false;
                for (i, customer) in customers.iter_mut().enumerate() {
                    if crashed(i, round) {
                        replies_missing = true;
                    } else {
                        deliver(&mut utility, customer, i, &msg);
                    }
                }
            }
            // The round's deadline follows its broadcast; it fires only
            // when some reply never came.
            Effect::SetTimer { token } if replies_missing => {
                utility.handle(Input::TimerFired { token });
            }
            Effect::Send { to, msg } => deliver(&mut utility, &mut customers[to], to, &msg),
            _ => {}
        }
    }
    let report = utility.take_report();
    assert!(report.converged(), "{report}");
    let rounds = report.rounds();
    assert!(rounds.len() > 1, "the crash must outlive round 1");
    // Every round after the crash concluded on its deadline.
    assert_eq!(utility.deadline_forced_rounds(), rounds.len() as u64 - 1);
    // Crashed customers are held at their round-1 bid, to the end.
    let (first, last) = (&rounds[0], &rounds[rounds.len() - 1]);
    for i in (0..customers.len()).step_by(3) {
        assert_eq!(last.bids[i], first.bids[i], "crashed customer {i} moved");
    }
    // Live customers still produced peak reduction.
    assert!(
        last.predicted_total <= first.predicted_total,
        "peak must not grow: {} → {}",
        first.predicted_total,
        last.predicted_total
    );
}

#[test]
fn campaign_fault_matrix_every_class_terminates_and_reproduces() {
    // The season-scale fault matrix: a closed-loop winter campaign run
    // once per fault class. Every campaign must terminate with every
    // peak settled — converged within the protocol's own termination
    // rule, or concluded on the UA's deadline (which the traffic
    // counters then flag) — and the whole run, counters included, must
    // be exactly reproducible from its seed.
    use loadbal::core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};
    use powergrid::calendar::Horizon;
    use powergrid::prediction::MovingAverage;

    let homes = PopulationBuilder::new().households(25).build(4);
    let weather = WeatherModel::winter();
    let horizon = Horizon::new(5, 0, Season::Winter);
    for class in FaultClass::all() {
        let run = || {
            CampaignBuilder::new(&homes, &weather, &horizon)
                .warmup_days(2)
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(ClosedLoop)
                .report_tier(ReportTier::Settlement)
                .execution(class.mode(17))
                .build()
                .run_instrumented()
        };
        let (report, traffic) = run();
        assert!(report.negotiations() > 0, "{class}: no peaks negotiated");
        for outcome in &report.outcomes {
            // Termination is unconditional; under faults a negotiation
            // may conclude by ε-convergence or by exhausting its round
            // budget, but it always settles every customer.
            assert!(
                outcome.report.status().is_converged()
                    || outcome.report.status() == NegotiationStatus::MaxRoundsExceeded,
                "{class} {}: {}",
                outcome.label,
                outcome.report.status()
            );
            assert_eq!(
                outcome.report.settlements().len(),
                homes.len(),
                "{class} {}: every customer settles",
                outcome.label
            );
        }
        assert_eq!(traffic.negotiations as usize, report.negotiations());
        // Each class leaves exactly its own fingerprint on the wire.
        match class {
            FaultClass::Drop | FaultClass::Outage => {
                assert!(traffic.messages_dropped > 0, "{class}: fault must bite");
                assert_eq!(traffic.messages_duplicated, 0, "{class}");
            }
            FaultClass::Duplicate => {
                assert!(traffic.messages_duplicated > 0, "{class}: fault must bite");
                assert_eq!(traffic.messages_dropped, 0, "{class}");
            }
            FaultClass::Reorder => {
                assert_eq!(traffic.messages_dropped, 0, "{class}");
                assert_eq!(traffic.messages_duplicated, 0, "{class}");
            }
        }
        // Exact reproducibility: reports and counters, byte for byte.
        let (again, traffic_again) = run();
        assert_eq!(report, again, "{class}: report not reproducible");
        assert_eq!(traffic, traffic_again, "{class}: counters not reproducible");
    }
}

#[test]
fn equal_treatment_all_customers_see_identical_announcements() {
    // §6.1: "the Utility Agent communicates all Customer Agents the same
    // announcements, in compliance with Swedish law". The engine makes
    // this structural: each round's announcement leaves the
    // `UtilityEngine` as one `Effect::Broadcast`, which every execution
    // mode hands to every customer, and never as a per-customer `Send`;
    // only awards are addressed to one customer.
    let scenario = ScenarioBuilder::random(10, 0.35, 2).build();
    let mut utility = UtilityEngine::new(&scenario);
    let mut customers: Vec<CustomerEngine> = (0..scenario.customers.len())
        .map(|i| CustomerEngine::for_customer(&scenario, i))
        .collect();
    let (mut announced, mut awards) = (Vec::new(), 0);
    utility.handle(Input::Start);
    while let Some(effect) = utility.poll_effect() {
        match effect {
            Effect::Broadcast { msg } => {
                if let Msg::Announce { round, .. } = msg {
                    announced.push(round);
                }
                for (i, customer) in customers.iter_mut().enumerate() {
                    deliver(&mut utility, customer, i, &msg);
                }
            }
            Effect::Send { to, msg } => {
                assert!(
                    matches!(msg, Msg::Award { .. }),
                    "customer {to} was sent {msg} on its own"
                );
                awards += 1;
                deliver(&mut utility, &mut customers[to], to, &msg);
            }
            Effect::SetTimer { .. } => {}
        }
    }
    assert!(utility.is_settled());
    // One broadcast announcement per round, for every round concluded.
    let concluded = utility.take_report().rounds().len() as u32;
    assert_eq!(announced, (1..=concluded).collect::<Vec<_>>());
    assert_eq!(awards, customers.len(), "every customer is awarded once");
}
