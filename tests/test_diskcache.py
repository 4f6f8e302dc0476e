"""The ``.repro_cache`` module: source-fingerprinted keys, never-trusted loads.

An entry is valid only for the package source that wrote it: any edit
to a ``.py`` file of ``repro`` changes :func:`source_fingerprint`, and
with it every key, so a stale answer can never be served after a code
change.  Loads never raise: whatever bytes sit in a slot -- garbage, a
torn write, a pickle of the wrong type -- are quarantined and read as a
miss, and the slot works again on the next store.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro import diskcache
from repro.cost.configspace import CandidateSpace
from repro.cost.search import DesignSearch, SearchOutcome
from repro.diskcache import DiskCache, source_fingerprint, tree_fingerprint
from repro.experiments.runner import ExperimentRunner
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimulationResult
from repro.workloads.params import PAPER_LU, WorkloadParams
from tests.experiments.test_runner_parallel import SPECS

SPEC = SPECS[1]  # the 2-machine COW: exercises the network path
SMALL_SPACE = CandidateSpace(
    max_machines=6, memory_mb_options=(32, 64), cache_kb_options=(256,)
)
KEY = ("fuzz", 1, (2.0, None))


def _runner(small_app_kwargs, cache_dir) -> ExperimentRunner:
    return ExperimentRunner(
        app_kwargs=small_app_kwargs, jobs=1, cache_dir=cache_dir,
        metrics=MetricsRegistry(),
    )


def _lookups(registry: MetricsRegistry, kind: str, outcome: str) -> float:
    return registry.get("repro_cache_lookups_total").labels(
        kind=kind, outcome=outcome
    ).value


def _corrupt(registry: MetricsRegistry, kind: str) -> float:
    return registry.get("repro_cache_corrupt_total").labels(kind=kind).value


def _flip_one_byte(tree: Path) -> None:
    path = tree / "sim" / "memory.py"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class TestFingerprint:
    @pytest.fixture
    def tree(self, tmp_path) -> Path:
        root = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return root

    def test_copy_hashes_like_the_installed_package(self, tree):
        # The uncached function: the cached value is as old as the process.
        assert tree_fingerprint(tree) == source_fingerprint.__wrapped__()

    def test_computed_once_per_process(self):
        assert source_fingerprint() is source_fingerprint()

    @pytest.mark.parametrize(
        "edit",
        [
            _flip_one_byte,
            lambda tree: (tree / "sim" / "extra.py").write_text(""),
            lambda tree: (tree / "pool.py").unlink(),
            lambda tree: (tree / "pool.py").rename(tree / "pool2.py"),
        ],
        ids=["one-byte", "added", "removed", "renamed"],
    )
    def test_any_py_edit_changes_it(self, tree, edit):
        before = tree_fingerprint(tree)
        edit(tree)
        assert tree_fingerprint(tree) != before

    def test_other_files_do_not_count(self, tree):
        before = tree_fingerprint(tree)
        (tree / "notes.txt").write_text("not source")
        (tree / "__pycache__").mkdir()
        (tree / "__pycache__" / "pool.cpython-311.pyc").write_bytes(b"\0" * 16)
        assert tree_fingerprint(tree) == before


class TestFingerprintIsolation:
    """An entry written under one source is a miss under another."""

    def test_sim_entry(self, small_app_kwargs, tmp_path, monkeypatch):
        monkeypatch.setattr(diskcache, "source_fingerprint", lambda: "a" * 64)
        first = _runner(small_app_kwargs, tmp_path).simulate("EDGE", SPEC)
        same = _runner(small_app_kwargs, tmp_path)
        assert same.simulate("EDGE", SPEC) == first
        assert _lookups(same.metrics, "sim", "hit") == 1

        monkeypatch.setattr(diskcache, "source_fingerprint", lambda: "b" * 64)
        edited = _runner(small_app_kwargs, tmp_path)
        assert edited.simulate("EDGE", SPEC) == first
        assert _lookups(edited.metrics, "sim", "miss") == 1
        assert _lookups(edited.metrics, "sim", "hit") == 0
        assert len(list((tmp_path / "sim").glob("*.pkl"))) == 2

    def test_design_entry(self, tmp_path, monkeypatch):
        def engine() -> DesignSearch:
            return DesignSearch(
                space=SMALL_SPACE, cache_dir=tmp_path, metrics=MetricsRegistry()
            )

        monkeypatch.setattr(diskcache, "source_fingerprint", lambda: "a" * 64)
        first = engine().search(PAPER_LU, 9_000.0)
        assert engine().search(PAPER_LU, 9_000.0).stats.from_cache

        monkeypatch.setattr(diskcache, "source_fingerprint", lambda: "b" * 64)
        again = engine().search(PAPER_LU, 9_000.0)
        assert not again.stats.from_cache
        assert again.result == first.result
        assert len(list((tmp_path / "design").glob("*.pkl"))) == 2


class TestWrongTypeEntry:
    def test_wrong_type_sim_entry_is_quarantined_and_resimulated(
        self, small_app_kwargs, tmp_path
    ):
        expected = _runner(small_app_kwargs, tmp_path).simulate("EDGE", SPEC)
        (entry,) = (tmp_path / "sim").glob("*.pkl")
        impostor = pickle.dumps({"total_cycles": 1.0})
        entry.write_bytes(impostor)

        warm = _runner(small_app_kwargs, tmp_path)
        assert warm.simulate("EDGE", SPEC) == expected
        assert _corrupt(warm.metrics, "sim") == 1
        assert (tmp_path / "quarantine" / f"sim-{entry.name}").read_bytes() == impostor
        assert pickle.loads(entry.read_bytes()) == expected


@pytest.fixture(scope="module")
def valid_entries(small_app_kwargs) -> dict[str, tuple[type, object]]:
    """``kind -> (expected type, a valid value)`` for every cache kind."""
    sim = ExperimentRunner(
        app_kwargs=small_app_kwargs, jobs=1, cache_dir=None,
        metrics=MetricsRegistry(),
    ).simulate("EDGE", SPEC)
    design = DesignSearch(space=SMALL_SPACE, metrics=MetricsRegistry()).search(
        PAPER_LU, 9_000.0
    )
    return {
        "sim": (SimulationResult, sim),
        "char": (WorkloadParams, PAPER_LU),
        "sharing": (tuple, (0.25, 0.5)),
        "design": (SearchOutcome, design),
    }


#: Values a slot must never be trusted to hold: plain data, and an
#: entry that is valid for another kind.
_OTHER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=16),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=4), st.floats(allow_nan=False), max_size=4),
    st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
    st.just(PAPER_LU),
)


def _loads_as(data: bytes, expected: type) -> bool:
    try:
        return isinstance(pickle.loads(data), expected)
    except Exception:
        return False


class TestLoadFuzz:
    @pytest.mark.parametrize("kind", ["sim", "char", "sharing", "design"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bad_entry_is_quarantined_then_the_slot_works(
        self, kind, valid_entries, data
    ):
        expected, valid = valid_entries[kind]
        blob = pickle.dumps(valid)
        bad = data.draw(
            st.one_of(
                st.binary(max_size=256),
                st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
                _OTHER_VALUES.map(pickle.dumps),
            ),
            label="entry",
        )
        assume(not _loads_as(bad, expected))
        with tempfile.TemporaryDirectory() as tmp:
            registry = MetricsRegistry()
            cache = DiskCache(tmp, registry)
            path = cache.path(kind, KEY)
            path.parent.mkdir(parents=True)
            path.write_bytes(bad)

            assert cache.load(kind, KEY, expected) is None
            assert not path.exists()
            quarantined = Path(tmp) / "quarantine" / f"{kind}-{path.name}"
            assert quarantined.read_bytes() == bad
            assert _corrupt(registry, kind) == 1
            assert _lookups(registry, kind, "miss") == 1

            cache.store(kind, KEY, valid)
            assert cache.load(kind, KEY, expected) == valid
            assert _lookups(registry, kind, "hit") == 1
