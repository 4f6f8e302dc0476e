"""Mutated platform documents: a pointed ValueError or a sound spec.

The contract of :func:`repro.topology.load_platform_file`: any file
either raises ``ValueError`` naming the file, or gives a
:class:`~repro.core.platform.PlatformSpec` that round-trips through
``to_dict``/``from_dict`` (also through JSON text) and folds into its
memory hierarchy.  It never raises another exception type.  The suite
starts from valid documents in both accepted shapes and replaces,
deletes or adds values anywhere in them.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import PlatformSpec
from repro.sim.latencies import NetworkKind
from repro.topology import clump_of_smps_spec, load_platform_file
from repro.topology.canned import topology_for_spec

KB, MB = 1024, 1024 * 1024

_FLAT = (
    PlatformSpec("smp", n=4, N=1, cache_bytes=64 * KB, memory_bytes=32 * MB),
    PlatformSpec(
        "cow", n=1, N=4, cache_bytes=256 * KB, memory_bytes=64 * MB,
        network=NetworkKind.ETHERNET_100,
    ),
    PlatformSpec(
        "clump-l2", n=2, N=2, cache_bytes=64 * KB, memory_bytes=64 * MB,
        network=NetworkKind.ATM_155, l2_bytes=1 * MB,
    ),
)
_TREE = clump_of_smps_spec()

#: Valid documents: full ``to_dict`` forms, flat and with a tree, and
#: the hand-written short form over canned and deepened trees.
BASES = (
    *(spec.to_dict() for spec in _FLAT),
    _TREE.to_dict(),
    {"name": "short", "topology": _TREE.topology.to_dict()},
    {"name": "short-cow", "topology": topology_for_spec(_FLAT[1]).to_dict(), "cpu_hz": 1e8},
    {"name": "short-smp", "topology": topology_for_spec(_FLAT[2]).to_dict()},
)

#: Values a mutation writes: wrong types, non-finite and fractional
#: numbers, bools, huge counts, and in-range values that keep a
#: document valid.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.sampled_from(
        [0, 1, 2, 3, -1, 0.5, 2.5, 4.0, 64, 100, 4096, 2**63, 1e308,
         "10Mb bus", "155Mb switch", "bus", "switch", "machine", "cluster", ""]
    ),
    st.text(max_size=4),
    st.lists(st.integers(0, 4), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 4), max_size=2),
)


def _paths(node, prefix=()):
    """The path of every node of a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            if action == "replace":
                doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "replace":
            parent[path[-1]] = draw(VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.text(min_size=1, max_size=8))] = draw(VALUES)
    return doc


@pytest.fixture(scope="module")
def platform_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "platform.json"


@given(doc=mutated_documents())
@settings(max_examples=600, deadline=None)
def test_a_mutated_document_is_rejected_by_name_or_sound(platform_file, doc):
    platform_file.write_text(json.dumps(doc))
    try:
        spec = load_platform_file(platform_file)
    except ValueError as exc:
        assert str(platform_file) in str(exc)
        return
    assert PlatformSpec.from_dict(spec.to_dict()) == spec
    assert PlatformSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    hash(spec)
    spec.hierarchy()


@pytest.mark.parametrize("base", BASES, ids=lambda d: d["name"])
def test_every_base_document_loads(platform_file, base):
    platform_file.write_text(json.dumps(base))
    spec = load_platform_file(platform_file)
    assert PlatformSpec.from_dict(spec.to_dict()) == spec


def _set(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_SHORT = BASES[4]

#: The values each constructor rejects, with the message naming them.
REJECTED = [
    (_set(BASES[0], ("n",), 2.5), "n must be an integer"),
    (_set(BASES[1], ("N",), 4.0), "N must be an integer"),
    (_set(BASES[0], ("n",), True), "n must be an integer"),
    (_set(BASES[0], ("cache_bytes",), 65536.0), "cache_bytes must be an integer"),
    (_set(BASES[0], ("cache_ways",), 2.0), "cache_ways must be an integer"),
    (_set(BASES[2], ("l2_bytes",), 1048576.0), "l2_bytes must be an integer"),
    (_set(BASES[0], ("cpu_hz",), float("nan")), "cpu_hz must be positive and finite"),
    (_set(BASES[0], ("cpu_hz",), float("inf")), "cpu_hz must be positive and finite"),
    (_set(BASES[0], ("cpu_hz",), "fast"), "cpu_hz must be positive and finite"),
    (_set(_SHORT, ("cpu_hz",), float("nan")), "cpu_hz must be positive and finite"),
    (_set(_SHORT, ("topology", "count"), 2.5), "integer >= 2 subtrees"),
    (_set(_SHORT, ("topology", "child", "child", "processors"), 2.5), "integer >= 1 of processors"),
    (_set(_SHORT, ("topology", "child", "child", "processors"), True), "integer >= 1 of processors"),
    (_set(_SHORT, ("topology", "child", "child", "cache", "ways"), 2.0), "ways must be an integer"),
    (_set(_SHORT, ("topology", "child", "child", "memory", "tau_cycles"), None), "memory cost"),
    (_set(_SHORT, ("topology", "interconnect", "remote_node_cycles"), None), "interconnect costs"),
    (_set(_SHORT, ("topology", "interconnect", "label"), 7), "label string"),
    (_set(BASES[0], ("latencies", "cache_hit"), float("nan")), "latency cache_hit"),
    (_set(BASES[0], ("memory_bytes",), 64 * KB + 1), "memory must be larger than the cache"),
    (_set(BASES[0], ("name",), ["smp"]), "name must be a string"),
]


@pytest.mark.parametrize("doc, message", REJECTED)
def test_a_bad_value_is_named_where_it_is_constructed(platform_file, doc, message):
    platform_file.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message) as err:
        load_platform_file(platform_file)
    assert str(platform_file) in str(err.value)


def test_a_huge_machine_count_folds_without_expanding_the_tree(platform_file):
    doc = _set(_SHORT, ("topology", "count"), 2**62)
    platform_file.write_text(json.dumps(doc))
    spec = load_platform_file(platform_file)
    assert spec.hierarchy().total_processes == spec.total_processors


def test_deep_nesting_is_a_value_error(platform_file):
    platform_file.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        load_platform_file(platform_file)
