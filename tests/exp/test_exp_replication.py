"""Tests for the scenario replication axis (seed sets, parity, cache)."""

from __future__ import annotations

import pytest

from repro.api.specs import RunSpec
from repro.exp import (
    expand,
    expanded_runspecs,
    get_scenario,
    replicate_seed,
    run_scenario,
    with_replications,
)


class TestWithReplications:
    def test_identity_at_one(self):
        smoke = get_scenario("smoke")
        assert with_replications(smoke, 1) is smoke
        assert with_replications(smoke, 1).key() == smoke.key()

    def test_rejects_nonpositive_with_structured_error(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match=">= 1"):
            with_replications(get_scenario("smoke"), 0)

    def test_key_changes_with_replications(self):
        smoke = get_scenario("smoke")
        keys = {with_replications(smoke, n).key() for n in (1, 2, 3)}
        assert len(keys) == 3

    def test_unreplicated_identity_has_no_replications_field(self):
        # the committed perf-check key for the smoke sweep depends on this
        assert "replications" not in get_scenario("smoke").identity()
        assert "replications" in with_replications(get_scenario("smoke"), 2).identity()


class TestReplicatedExpansion:
    def test_point_counts_and_indices(self):
        spec = with_replications(get_scenario("smoke"), 3)
        points = expand(spec)
        assert len(points) == spec.n_points() == spec.n_cells() * 3 == 12
        assert [p.index for p in points] == list(range(12))
        assert [p.replicate for p in points[:4]] == [0, 1, 2, 0]

    def test_replicate_zero_matches_unreplicated_points(self):
        smoke = get_scenario("smoke")
        base = expand(smoke)
        replicated = [p for p in expand(with_replications(smoke, 3)) if p.replicate == 0]
        assert [dict(p.params) for p in base] == [dict(p.params) for p in replicated]
        assert [p.seed for p in base] == [p.seed for p in replicated]

    def test_seeds_distinct_and_deterministic(self):
        spec = with_replications(get_scenario("smoke"), 4)
        first = [p.seed for p in expand(spec)]
        second = [p.seed for p in expand(spec)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_pinned_seed_scenarios_still_vary_across_replicates(self):
        # rollback-vs-splice pins seed=0 in base; replicates must not
        spec = with_replications(get_scenario("rollback-vs-splice"), 3)
        cell = [p for p in expand(spec) if p.index < 3]
        assert cell[0].seed == 0  # the historical pinned seed
        assert len({p.seed for p in cell}) == 3

    def test_replicate_seed_depends_on_everything(self):
        params = {"workload": "x", "seed": 0}
        assert replicate_seed("a", params, 1) != replicate_seed("b", params, 1)
        assert replicate_seed("a", params, 1) != replicate_seed("a", params, 2)
        assert replicate_seed("a", params, 1) != replicate_seed(
            "a", {"workload": "y", "seed": 0}, 1
        )
        assert 0 <= replicate_seed("a", params, 1) < 2**63

    def test_machine_runspecs_carry_replicate_seeds(self):
        spec = with_replications(get_scenario("smoke"), 2)
        docs = spec.identity()["runspecs"]
        assert len(docs) == spec.n_points()
        seeds = [doc["seed"] for doc in docs]
        assert seeds == [p.seed for p in expand(spec)]

    def test_a_replicate_runspec_is_its_own_parse_and_shares_no_dict(self):
        # each cell is parsed once; its replicates are copies with their seed
        spec = with_replications(get_scenario("chaos-storm"), 3)
        docs = expanded_runspecs(spec)
        assert docs == [RunSpec.from_params(p.params).to_json() for p in expand(spec)]
        for first, later in zip(docs[::3], docs[1::3]):
            assert later["machine"] is not first["machine"]
            assert later["machine"]["cost"] is not first["machine"]["cost"]
            assert later["faults"] is not first["faults"]


class TestReplicatedSweeps:
    def test_serial_parallel_byte_parity(self):
        spec = with_replications(get_scenario("smoke"), 2)
        serial = run_scenario(spec, workers=1)
        parallel = run_scenario(spec, workers=3)
        assert serial.to_json() == parallel.to_json()

    def test_payload_and_entries_marked(self):
        sweep = run_scenario(with_replications(get_scenario("smoke"), 2))
        payload = sweep.payload()
        assert payload["replications"] == 2
        assert [p["replicate"] for p in payload["points"][:2]] == [0, 1]

    def test_unreplicated_payload_unmarked(self):
        payload = run_scenario("smoke").payload()
        assert "replications" not in payload
        assert all("replicate" not in p for p in payload["points"])

    def test_cache_roundtrip_and_separation(self, tmp_path):
        spec = with_replications(get_scenario("smoke"), 2)
        first = run_scenario(spec, cache_dir=str(tmp_path))
        assert not first.cache_hit
        again = run_scenario(spec, cache_dir=str(tmp_path))
        assert again.cache_hit and again.to_json() == first.to_json()
        # the unreplicated sweep lands in its own cache file
        plain = run_scenario("smoke", cache_dir=str(tmp_path))
        assert plain.cache_path != first.cache_path
        assert not plain.cache_hit

    def test_replicate_zero_results_match_unreplicated(self):
        plain = run_scenario("smoke")
        replicated = run_scenario(with_replications(get_scenario("smoke"), 2))
        rep0 = [p["result"] for p in replicated.points if p["replicate"] == 0]
        assert [p["result"] for p in plain.points] == rep0

    def test_by_axes_refuses_replicated_sweeps(self):
        # a single-result index would silently pick one replicate
        sweep = run_scenario(with_replications(get_scenario("smoke"), 2))
        with pytest.raises(ValueError, match="aggregate_sweep"):
            sweep.by_axes("policy", "fault_frac")
