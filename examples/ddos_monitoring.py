#!/usr/bin/env python3
"""DDoS monitoring: blackholing activity as a proxy for attack activity.

The paper observes that spikes in blackholing activity line up with
well-documented DDoS attacks (Figure 4(c)).  This example plays the role of
an operator or regulator monitoring the control plane:

* it simulates the weeks around the September 2016 "Krebs on Security"
  attack and the early Mirai period;
* streams the collector feeds through the inference engine;
* prints the daily count of active blackholing providers / users / prefixes
  (the ``fig4`` analysis) as an ASCII time series, and the spikes the
  ``fig4_growth`` analysis detects, annotated with the named incidents.

Run with::

    python examples/ddos_monitoring.py
"""

from __future__ import annotations

from repro.analysis.pipeline import StudyPipeline
from repro.attacks.incidents import NAMED_INCIDENTS
from repro.attacks.timeline import AttackTimelineConfig
from repro.netutils.timeutils import format_timestamp
from repro.topology.generator import TopologyConfig
from repro.workload import ScenarioConfig, ScenarioSimulator


def main() -> None:
    config = ScenarioConfig(
        topology=TopologyConfig.small(seed=5),
        attacks=AttackTimelineConfig(seed=17, base_rate_start=5.0, base_rate_end=7.0),
        start_date="2016-09-10",
        end_date="2016-10-05",
        seed=17,
    )
    print("Simulating the collector feeds around the Krebs/Mirai period ...")
    dataset = ScenarioSimulator(config).generate()
    result = StudyPipeline(dataset).run()

    daily = result.analysis("fig4").rows
    peak = max(d.prefixes for d in daily) or 1
    print("\nDaily blackholing activity (prefixes blackholed per day):")
    print(f"{'day':<12} {'prov':>5} {'users':>6} {'prefixes':>9}  activity")
    for day in daily:
        bar = "#" * int(40 * day.prefixes / peak)
        date = format_timestamp(day.day)[:10]
        print(f"{date:<12} {day.providers:>5} {day.users:>6} {day.prefixes:>9}  {bar}")

    spikes = result.analysis("fig4_growth").rows
    if spikes:
        print("\nDetected spikes:")
        for spike in spikes:
            label = spike.incident_label or "-"
            print(
                f"  {format_timestamp(spike.day)[:10]}: {spike.prefixes} blackholed "
                f"prefixes (baseline {spike.baseline:.1f}), incident: {label}"
            )

    def mean(days, field: str) -> float:
        return sum(getattr(day, field) for day in days) / len(days)

    head, tail = daily[:5], daily[-5:]
    print(
        f"\nFirst-5-days vs last-5-days averages: "
        f"prefixes {mean(head, 'prefixes'):.1f} -> {mean(tail, 'prefixes'):.1f}, "
        f"users {mean(head, 'users'):.1f} -> {mean(tail, 'users'):.1f}"
    )

    print("\nNamed incidents inside the window:")
    for incident in NAMED_INCIDENTS:
        if dataset.start <= incident.timestamp < dataset.end and not incident.sustained:
            print(f"  [{incident.label}] {incident.date}: {incident.name}")


if __name__ == "__main__":
    main()
