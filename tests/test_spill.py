"""Tests for what a run keeps of its closed observations.

The observation spill is gone: an engine keeps its closed observations in
one resident list.  A serial outcome hands that engine back, so the list
must still be readable once the run has finished and must equal the
outcome's merged observations.
"""

from __future__ import annotations

from repro.exec import ExecutionPlan


class TestSpillingExecutionParity:
    def test_serial_outcome_engine_survives_sink_cleanup(
        self, small_dataset, small_dictionary
    ):
        outcome = ExecutionPlan().run_inference(
            small_dataset.bgp_stream(),
            small_dictionary,
            end_time=small_dataset.end,
            peeringdb=small_dataset.topology.peeringdb,
        )
        assert outcome.engine is not None
        assert outcome.observations
        assert outcome.engine.observations() == outcome.observations
