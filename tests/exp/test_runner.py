"""Tests for the sweep runner: parity, caching, determinism."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.errors import SpecError
from repro.exp import get_scenario, replay_ledger, resume_run, run_scenario, sweep_table
from repro.exp.runner import SweepResult, result_path
from repro.exp.scenario import ScenarioSpec
from repro.util import jsonio
from repro.util.jsonio import canonical_dumps


class TestSerialParallelParity:
    def test_smoke_byte_identical_across_worker_counts(self, tmp_path):
        serial = run_scenario("smoke", workers=1, cache_dir=str(tmp_path / "s"))
        parallel = run_scenario("smoke", workers=2, cache_dir=str(tmp_path / "p"))
        assert serial.to_json() == parallel.to_json()
        with open(serial.cache_path, "rb") as a, open(parallel.cache_path, "rb") as b:
            assert a.read() == b.read()

    def test_multifault_parity_without_cache(self):
        serial = run_scenario("multi-fault", workers=1)
        parallel = run_scenario("multi-fault", workers=3)
        assert serial.to_json() == parallel.to_json()

    def test_results_ordered_by_point_index(self):
        sweep = run_scenario("smoke", workers=2)
        assert [p["index"] for p in sweep.points] == list(range(len(sweep.points)))

    @pytest.mark.parametrize(
        "spec",
        [
            # a registered name with a different grid: the pool must run
            # this spec's points, not the registered smoke's
            replace(
                get_scenario("smoke"),
                base={**get_scenario("smoke").base, "workload": "balanced:2:2:10"},
            ),
            ScenarioSpec(
                name="unregistered",
                title="unregistered",
                description="a spec the registry does not hold",
                runner="machine",
                base={"workload": "chain:6:10", "processors": 3, "victim": 2},
                axes={"policy": ("rollback", "splice"), "fault_frac": (0.5,)},
            ),
        ],
        ids=["replaced-smoke", "unregistered"],
    )
    def test_unregistered_spec_byte_identical_across_worker_counts(self, spec, tmp_path):
        serial = run_scenario(spec, workers=1, cache_dir=str(tmp_path / "s"))
        parallel = run_scenario(spec, workers=2, cache_dir=str(tmp_path / "p"))
        assert serial.to_json() == parallel.to_json()
        with open(serial.cache_path, "rb") as a, open(parallel.cache_path, "rb") as b:
            assert a.read() == b.read()
        if spec.name == "smoke":
            registered = run_scenario("smoke")
            assert serial.key != registered.key
            assert serial.results() != registered.results()


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_a_pool_narrower_than_one_is_refused_before_anything_runs(self, workers, tmp_path):
        with pytest.raises(SpecError, match=f"workers must be at least 1, got {workers}") as info:
            run_scenario("smoke", workers=workers, cache_dir=str(tmp_path / "c"))
        assert info.value.field == "workers"
        assert not os.path.exists(tmp_path / "c")
        # resume refuses it too, even for a ledger it could complete
        ledgers = str(tmp_path / "ledger")
        sweep = run_scenario("smoke", ledger_dir=ledgers)
        with pytest.raises(SpecError) as info:
            resume_run(sweep.run_id, ledger_dir=ledgers, workers=workers)
        assert info.value.field == "workers"


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        first = run_scenario("smoke", cache_dir=str(tmp_path))
        assert not first.cache_hit
        assert os.path.exists(first.cache_path)
        second = run_scenario("smoke", cache_dir=str(tmp_path))
        assert second.cache_hit
        assert second.to_json() == first.to_json()

    def test_cache_layout(self, tmp_path):
        sweep = run_scenario("smoke", cache_dir=str(tmp_path))
        spec = get_scenario("smoke")
        assert sweep.cache_path == result_path(str(tmp_path), "smoke", spec.key())
        assert sweep.cache_path.endswith(f"smoke/{spec.key()}.json")

    def test_force_recomputes(self, tmp_path):
        run_scenario("smoke", cache_dir=str(tmp_path))
        forced = run_scenario("smoke", cache_dir=str(tmp_path), force=True)
        assert not forced.cache_hit

    def test_corrupt_cache_treated_as_miss(self, tmp_path):
        first = run_scenario("smoke", cache_dir=str(tmp_path))
        with open(first.cache_path, "w") as fh:
            fh.write("{not json")
        again = run_scenario("smoke", cache_dir=str(tmp_path))
        assert not again.cache_hit
        assert again.to_json() == first.to_json()

    @pytest.mark.parametrize("text", ["[1,2]", "null", '"points"', "3"])
    def test_non_object_json_cache_treated_as_miss(self, tmp_path, text):
        # valid JSON that is not an object used to escape as AttributeError
        first = run_scenario("smoke", cache_dir=str(tmp_path))
        with open(first.cache_path, "w") as fh:
            fh.write(text)
        again = run_scenario("smoke", cache_dir=str(tmp_path))
        assert not again.cache_hit
        assert again.to_json() == first.to_json()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.update(points=[1, 2]),  # used to die in sweep_table
            lambda doc: doc.update(points=doc["points"][:3]),  # used to be a 3-row hit
            lambda doc: doc.update(points=doc["points"][::-1]),
            lambda doc: doc["points"][0].update(index="0"),
            lambda doc: doc["points"][1].update(result=[]),
            lambda doc: doc.update(key="0" * 64),
            lambda doc: doc.update(scenario="other"),
            # each of these used to be a hit, and the first crashed its reader
            lambda doc: doc["points"][0].pop("params"),
            lambda doc: doc["points"][0].update(params=list(doc["points"][0]["params"])),
            lambda doc: doc["points"][0].pop("seed"),
            lambda doc: doc["points"][1].update(index=True),
            lambda doc: doc["points"][0].update(index=0.0),
            lambda doc: doc["points"][0].update(replicate=0),
        ],
        ids=["scalars", "truncated", "reordered", "string-index", "list-result",
             "foreign-key", "foreign-scenario", "no-params", "list-params", "no-seed",
             "bool-index", "float-index", "unreplicated-replicate"],
    )
    def test_malformed_or_truncated_cache_treated_as_miss(self, tmp_path, damage):
        first = run_scenario("smoke", cache_dir=str(tmp_path))
        with open(first.cache_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        damage(doc)
        with open(first.cache_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        again = run_scenario("smoke", cache_dir=str(tmp_path))
        assert not again.cache_hit
        assert again.to_json() == first.to_json()
        assert len(sweep_table(again).splitlines()) == len(sweep_table(first).splitlines())

    def test_one_encoding_pass_hashes_and_writes(self, tmp_path, monkeypatch):
        # the sweep document is encoded once, streamed into the cache file
        # and hashed for run_finished as it is written; never rendered whole
        passes = []
        real = jsonio._batches
        monkeypatch.setattr(jsonio, "_batches", lambda o: passes.append(1) or real(o))
        encode = jsonio._encode
        monkeypatch.setattr(
            jsonio, "_encode",
            lambda o, level: pytest.fail("rendered whole") if level == 0 else encode(o, level),
        )
        monkeypatch.setattr(
            SweepResult, "to_json", lambda self: pytest.fail("rendered whole")
        )
        sweep = run_scenario(
            "smoke", cache_dir=str(tmp_path), ledger_dir=str(tmp_path / "ledger")
        )
        assert len(passes) == 1
        monkeypatch.undo()
        state = replay_ledger(sweep.ledger_path)
        with open(sweep.cache_path, "rb") as fh:
            on_disk = fh.read()
        assert state.sweep_sha256 == hashlib.sha256(on_disk).hexdigest()
        assert on_disk == sweep.to_json().encode("utf-8")
        assert os.listdir(os.path.dirname(sweep.cache_path)) == [
            os.path.basename(sweep.cache_path)  # no temp litter
        ]

    def test_failed_run_finished_append_publishes_no_cache(self, tmp_path, monkeypatch):
        # ledger first: if the run_finished record cannot be appended, the
        # streamed temp file is removed and no cache file ever appears
        from repro.errors import ReproError
        from repro.exp.ledger import LedgerWriter

        def refuse(self, digest):
            raise ReproError("cannot append to sweep ledger: injected")

        monkeypatch.setattr(LedgerWriter, "run_finished", refuse)
        with pytest.raises(ReproError, match="injected"):
            run_scenario("smoke", cache_dir=str(tmp_path), ledger_dir=str(tmp_path / "ledger"))
        assert os.listdir(tmp_path / "smoke") == []

    def test_ledger_without_cache_hashes_without_writing(self, tmp_path):
        sweep = run_scenario("smoke", ledger_dir=str(tmp_path))
        assert sweep.cache_path is None
        assert os.listdir(tmp_path) == [os.path.basename(sweep.ledger_path)]
        state = replay_ledger(sweep.ledger_path)
        assert state.sweep_sha256 == hashlib.sha256(
            sweep.to_json().encode("utf-8")
        ).hexdigest()

    def test_no_cache_dir_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep = run_scenario("smoke")
        assert sweep.cache_path is None
        assert os.listdir(tmp_path) == []

    def test_unwritable_cache_dir_one_line_repro_error(self, tmp_path):
        # a regular file where the cache tree must go (chmod is useless
        # for this under root, a blocking file is not)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="cannot write sweep cache"):
            run_scenario("smoke", cache_dir=str(blocker))

    def test_payload_is_valid_canonical_json(self, tmp_path):
        sweep = run_scenario("smoke", cache_dir=str(tmp_path))
        with open(sweep.cache_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # one encoding for every artifact: the shared canonical writer's
        assert text == sweep.to_json() == canonical_dumps(sweep.payload())
        payload = json.loads(text)
        assert payload["scenario"] == "smoke"
        assert payload["key"] == get_scenario("smoke").key()
        assert len(payload["points"]) == 4


class TestDeterminism:
    def test_repeated_runs_identical(self):
        assert run_scenario("smoke").to_json() == run_scenario("smoke").to_json()

    def test_point_seeds_recorded_and_stable(self):
        first = run_scenario("smoke")
        second = run_scenario("smoke", workers=2)
        assert [p["seed"] for p in first.points] == [p["seed"] for p in second.points]
        assert len({p["seed"] for p in first.points}) == len(first.points)


class TestSweepResult:
    def test_by_axes_single_and_multi(self):
        sweep = run_scenario("smoke")
        by_policy_frac = sweep.by_axes("policy", "fault_frac")
        assert ("rollback", 0.4) in by_policy_frac
        by_policy = sweep.by_axes("policy")
        assert set(by_policy) == {"rollback", "splice"}

    def test_results_are_json_primitives(self):
        for result in run_scenario("smoke").results():
            json.dumps(result)
            assert result["completed"] is True
            assert result["correct"] is True

    def test_sweep_table_renders_axes_and_columns(self):
        sweep = run_scenario("smoke")
        text = sweep_table(sweep)
        assert "policy" in text and "fault_frac" in text
        assert "slowdown" in text and "rollback" in text


class TestFigureScenarioParity:
    """Acceptance: two paper-figure scenarios, byte-identical across workers
    and served from cache on the second invocation."""

    @pytest.mark.parametrize("name", ["fig1-fragmentation", "overhead-faultfree"])
    def test_parity_and_cache(self, tmp_path, name):
        w1 = run_scenario(name, workers=1, cache_dir=str(tmp_path / "w1"))
        w4 = run_scenario(name, workers=4, cache_dir=str(tmp_path / "w4"))
        with open(w1.cache_path, "rb") as a, open(w4.cache_path, "rb") as b:
            assert a.read() == b.read()
        again = run_scenario(name, workers=4, cache_dir=str(tmp_path / "w1"))
        assert again.cache_hit
