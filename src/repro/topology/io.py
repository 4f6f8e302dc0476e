"""Platform files: load a topology JSON/YAML into a PlatformSpec.

Two payload shapes are accepted:

* a full ``PlatformSpec.to_dict()`` document (keys ``name``, ``n``,
  ``N``, ...), round-tripping losslessly; or
* the hand-written short form ``{"name": ..., "topology": {...},
  optional "cpu_hz"}`` -- the machine shape (n, N, capacities) is
  derived from the tree so the two can never disagree.

YAML is supported only when PyYAML happens to be installed (it is not a
dependency of this project); JSON always works.  Every malformed file
raises :class:`ValueError` with a pointed message so the CLI can reject
it at the argparse layer: a spec that loads has integer counts and
sizes and finite numbers throughout (the platform and topology
constructors check each value), so it round-trips through
``to_dict``/``from_dict`` and folds into its hierarchy.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.topology.ir import topology_from_dict

__all__ = ["platform_from_dict", "load_platform_file", "load_platform_payload"]


def platform_from_dict(payload: dict):
    """Build a PlatformSpec from a parsed platform document."""
    from repro.core.platform import PlatformSpec
    from repro.sim.latencies import CPU_HZ

    if not isinstance(payload, dict):
        raise ValueError(f"platform document must be a mapping, got {type(payload).__name__}")
    if "n" in payload or "N" in payload:
        return PlatformSpec.from_dict(payload)
    if "topology" not in payload:
        raise ValueError(
            "platform document needs either a full spec (keys 'n', 'N', ...) "
            "or a 'topology' tree"
        )
    name = payload.get("name")
    if not name or not isinstance(name, str):
        raise ValueError("platform document needs a non-empty string 'name'")
    unknown = set(payload) - {"name", "topology", "cpu_hz"}
    if unknown:
        raise ValueError(f"unknown platform keys: {', '.join(sorted(unknown))}")
    topology = topology_from_dict(payload["topology"])
    return PlatformSpec.from_topology(name, topology, cpu_hz=payload.get("cpu_hz", CPU_HZ))


def _parse_text(text: str, path: Path) -> dict:
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml  # optional; not a project dependency
        except ImportError:
            raise ValueError(
                f"{path}: YAML platform files need PyYAML, which is not "
                "installed (install it with 'pip install pyyaml'); "
                "alternatively rewrite the file as JSON, which always works"
            ) from None
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: invalid YAML: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply") from None


def load_platform_payload(path: str | Path) -> dict:
    """Read and parse a platform file into its raw document (no schema).

    Shared by :func:`load_platform_file` (homogeneous ``PlatformSpec``)
    and the scheduling layer's heterogeneous loader, so both give the
    same pointed read/parse/PyYAML errors.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read platform file {path}: {exc.strerror or exc}") from None
    return _parse_text(text, path)


def load_platform_file(path: str | Path):
    """Parse a platform file; raise ValueError on any problem."""
    path = Path(path)
    payload = load_platform_payload(path)
    try:
        return platform_from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: topology nests too deeply") from None
