"""Tests for scenario specs, expansion, seeding, and the registry."""

from __future__ import annotations

import pytest

from repro.exp import all_scenarios, expand, get_scenario, point_seed
from repro.exp.points import RUNNERS
from repro.exp.scenario import ScenarioSpec, stable_hash
from repro.util.jsonio import compact_dumps


def tiny_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="tiny",
        title="tiny",
        description="test spec",
        runner="machine",
        base={"workload": "balanced:2:2:5"},
        axes={"policy": ("rollback", "splice"), "fault_frac": (0.3, 0.6)},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestExpand:
    def test_cross_product_order(self):
        points = expand(tiny_spec())
        assert len(points) == 4
        assert [(p.params["policy"], p.params["fault_frac"]) for p in points] == [
            ("rollback", 0.3),
            ("rollback", 0.6),
            ("splice", 0.3),
            ("splice", 0.6),
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_base_merged_into_every_point(self):
        for p in expand(tiny_spec()):
            assert p.params["workload"] == "balanced:2:2:5"

    def test_axis_overrides_base(self):
        spec = tiny_spec(base={"workload": "x", "policy": "none"})
        assert all(p.params["policy"] != "none" for p in expand(spec))

    def test_no_axes_single_point(self):
        spec = tiny_spec(axes={})
        assert len(expand(spec)) == 1


class TestSeeds:
    def test_seeds_deterministic_across_expansions(self):
        spec = tiny_spec()
        first = [p.seed for p in expand(spec)]
        second = [p.seed for p in expand(spec)]
        assert first == second

    def test_seeds_distinct_per_point(self):
        seeds = [p.seed for p in expand(tiny_spec())]
        assert len(set(seeds)) == len(seeds)

    def test_seed_injected_when_absent(self):
        for p in expand(tiny_spec()):
            assert p.params["seed"] == p.seed

    def test_explicit_seed_respected(self):
        spec = tiny_spec(base={"workload": "x", "seed": 42})
        assert all(p.params["seed"] == 42 for p in expand(spec))

    def test_seed_depends_on_scenario_name(self):
        params = {"policy": "rollback"}
        assert point_seed("a", params) != point_seed("b", params)

    def test_seed_is_sha_based_not_hash_based(self):
        # a fixed fingerprint guards against accidental use of hash()
        assert point_seed("demo", {"x": 1}) == point_seed("demo", {"x": 1})
        assert 0 <= point_seed("demo", {"x": 1}) < 2**63


class TestSpecKey:
    def test_key_stable(self):
        assert tiny_spec().key() == tiny_spec().key()

    def test_key_changes_with_axes(self):
        changed = tiny_spec(axes={"policy": ("rollback",)})
        assert changed.key() != tiny_spec().key()

    def test_key_changes_with_base_and_version(self):
        assert tiny_spec(base={"workload": "chain:3:5"}).key() != tiny_spec().key()
        # the identity's version is the literal 1, which keeps every existing key
        assert tiny_spec().identity()["version"] == 1

    def test_key_changes_with_runner_version(self, monkeypatch):
        # A runner semantics change must invalidate every cached sweep
        # that used the runner, without editing each spec.
        from repro.exp import points

        before = tiny_spec().key()
        monkeypatch.setitem(points.RUNNER_VERSIONS, "machine", 99)
        assert tiny_spec().key() != before

    def test_key_ignores_display_fields(self):
        assert tiny_spec(columns=("makespan",), title="x").key() == tiny_spec().key()

    def test_canonical_json_sorted(self):
        assert stable_hash({"b": 1, "a": 2}) == stable_hash({"a": 2, "b": 1})
        assert len(stable_hash({"x": 1})) == 16


class TestRegistry:
    def test_builtin_scenarios_present(self):
        names = set(all_scenarios())
        assert {
            "rollback-vs-splice",
            "overhead-faultfree",
            "multi-fault",
            "smoke",
            "fig1-fragmentation",
        } <= names

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(KeyError, match="rollback-vs-splice"):
            get_scenario("nope")

    def test_specs_are_wellformed(self):
        for name, spec in all_scenarios().items():
            assert spec.name == name
            assert spec.runner in RUNNERS
            assert spec.n_points() >= 1
            assert spec.title and spec.description
            # grid must expand and every axis must be non-empty
            assert len(expand(spec)) == spec.n_points()
            for axis, values in spec.axes.items():
                assert len(values) > 0, (name, axis)

    def test_spec_identity_is_json_serializable(self):
        for spec in all_scenarios().values():
            compact_dumps(spec.identity())
