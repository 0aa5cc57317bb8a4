"""The built-in hashes are the digests ``hashlib`` gives.

The package takes SHA-256 and BLAKE2b from CPython's own hash modules
(``util/jsonio.py`` and ``util/rng.py``, one owner each), so no process
maps OpenSSL.  ``hashlib`` is the judge here, in the test only: every
seed, cache key, ledger digest and search path must stay what the
``hashlib`` formulas made it.
"""

from __future__ import annotations

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro.exp.scenario import ScenarioSpec, expand, point_seed, replicate_seed, stable_hash
from repro.util.jsonio import compact_dumps, sha256_hex
from repro.util.rng import _derive_seed

PARAMS = st.dictionaries(
    st.text(max_size=8), st.one_of(st.integers(), st.floats(allow_nan=False), st.text()),
    max_size=4,
)


@given(st.text())
def test_sha256_hex_is_hashlibs(text):
    assert sha256_hex(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


@given(st.integers(min_value=0, max_value=2**64), st.text())
def test_derive_seed_is_the_hashlib_blake2b_formula(root_seed, name):
    digest = hashlib.blake2b(f"{root_seed}:{name}".encode("utf8"), digest_size=8).digest()
    assert _derive_seed(root_seed, name) == int.from_bytes(digest, "little")


@given(st.text(max_size=12), PARAMS, st.integers(min_value=1, max_value=99))
def test_scenario_identities_are_the_hashlib_formulas(name, params, replicate):
    def seed(payload):
        digest = hashlib.sha256(compact_dumps(payload).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") >> 1

    assert stable_hash(params) == hashlib.sha256(
        compact_dumps(params).encode("utf-8")
    ).hexdigest()[:16]
    assert point_seed(name, params) == seed([name, params])
    assert replicate_seed(name, params, replicate) == seed([name, params, "replicate", replicate])


@given(st.text(max_size=12), PARAMS, st.integers(min_value=2, max_value=6))
def test_every_replicate_of_a_cell_is_seeded_by_the_hashlib_formula(name, params, replications):
    spec = ScenarioSpec(
        name=name, title="", description="", runner="machine",
        base=params, axes={"axis": (1, 2)}, replications=replications,
    )
    points = expand(spec)
    assert len(points) == 2 * replications
    for point in points:
        first = points[point.index - point.replicate]
        assert first.replicate == 0
        if point.replicate:
            payload = [name, dict(first.params), "replicate", point.replicate]
            expected = int(stable_hash(payload), 16) >> 1
            assert point.seed == expected
            assert point.params == {**first.params, "seed": expected}
