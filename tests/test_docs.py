"""Documentation stays linked and truthful.

A docs tree rots in two ways: a document names a file that moved or
never landed (stale cross-link), or code renames something a document
still teaches (stale content).  These tests pin both: every ``*.md``
path and every backticked ``dir/file.py`` path mentioned in the docs
must exist, the README must index every subsystem document, the metric
and package names the COST/ARCHITECTURE pages teach must still exist in
the source, and COST.md's method table lists exactly the design
engine's methods.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Every hand-written documentation page (docs/report.md is generated
#: output of the reporting pipeline, not part of the index).
DOC_PAGES = [
    "docs/ARCHITECTURE.md",
    "docs/COST.md",
    "docs/MODEL.md",
    "docs/OBSERVABILITY.md",
    "docs/RESILIENCE.md",
    "docs/SCHEDULING.md",
    "docs/SERVICE.md",
    "docs/SIMULATOR.md",
    "docs/TRACES.md",
]

_MD_LINK = re.compile(r"(?:docs/)?[A-Z][A-Z_]+\.md")

#: A backticked ``dir/file.py`` path, e.g. `core/amat.py`.
_PY_PATH = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.py)`")

#: Where a page's source paths are rooted: the repo itself, the source
#: tree (`repro/diskcache.py`), the package (`core/amat.py`), the tests
#: and the benchmarks.
_SOURCE_ROOTS = (".", "src", "src/repro", "tests", "benchmarks")


def _md_references(path: Path) -> set[str]:
    """Every README/docs-style markdown path a document mentions."""
    return set(_MD_LINK.findall(path.read_text(encoding="utf-8")))


class TestCrossLinks:
    @pytest.mark.parametrize("page", ["README.md", "DESIGN.md", *DOC_PAGES])
    def test_every_mentioned_document_exists(self, page):
        path = ROOT / page
        for ref in sorted(_md_references(path)):
            target = ROOT / ref
            # Top-level names may be referenced without their docs/ prefix
            # from within docs/ pages (e.g. DESIGN.md).
            if not target.exists() and not ref.startswith("docs/"):
                target = ROOT / "docs" / ref
            assert target.exists(), f"{page} references missing {ref}"

    @pytest.mark.parametrize("page", ["README.md", "DESIGN.md", *DOC_PAGES])
    def test_every_mentioned_source_file_exists(self, page):
        text = (ROOT / page).read_text(encoding="utf-8")
        for ref in sorted(set(_PY_PATH.findall(text))):
            assert any((ROOT / base / ref).exists() for base in _SOURCE_ROOTS), (
                f"{page} names missing {ref}"
            )

    def test_readme_indexes_every_subsystem_doc(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for page in DOC_PAGES:
            assert page in readme, f"README.md does not link {page}"

    def test_new_pages_link_back_into_the_docs_graph(self):
        # COST.md and ARCHITECTURE.md must be connected, not islands.
        cost_refs = _md_references(ROOT / "docs" / "COST.md")
        assert "docs/MODEL.md" in cost_refs
        assert "docs/RESILIENCE.md" in cost_refs
        arch_refs = _md_references(ROOT / "docs" / "ARCHITECTURE.md")
        assert {"docs/MODEL.md", "docs/SIMULATOR.md", "docs/COST.md",
                "docs/OBSERVABILITY.md", "docs/RESILIENCE.md"} <= arch_refs

    def test_service_doc_is_connected_both_ways(self):
        service_refs = _md_references(ROOT / "docs" / "SERVICE.md")
        assert {"docs/COST.md", "docs/SIMULATOR.md",
                "docs/OBSERVABILITY.md", "docs/RESILIENCE.md"} <= service_refs
        resilience_refs = _md_references(ROOT / "docs" / "RESILIENCE.md")
        assert "docs/SERVICE.md" in resilience_refs


class TestDocsMatchCode:
    def test_cost_doc_metric_names_exist_in_source(self):
        doc = (ROOT / "docs" / "COST.md").read_text(encoding="utf-8")
        search_src = (ROOT / "src/repro/cost/search.py").read_text(encoding="utf-8")
        cache_src = (ROOT / "src/repro/diskcache.py").read_text(encoding="utf-8")
        for metric, src, where in (
            ("design_candidates_total", search_src, "search.py"),
            ("design_evaluations_total", search_src, "search.py"),
            ("design_pruned_total", search_src, "search.py"),
            ("design_memo_hits_total", search_src, "search.py"),
            ("repro_cache_lookups_total", cache_src, "diskcache.py"),
            ("repro_cache_corrupt_total", cache_src, "diskcache.py"),
            ("repro_query_retries_total", search_src, "search.py"),
            ("repro_pool_degradations_total", search_src, "search.py"),
        ):
            assert metric in doc, f"COST.md no longer documents {metric}"
            assert metric in src, f"{where} no longer registers {metric}"

    def test_cost_doc_method_table_lists_the_engine_methods(self):
        from repro.cost.search import METHODS

        lines = (ROOT / "docs" / "COST.md").read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("| `method` |"))
        rows = []
        for line in lines[header + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            rows.append(re.match(r"\| `(\w+)`", line).group(1))
        assert sorted(rows) == sorted(METHODS)

    def test_architecture_doc_names_real_packages(self):
        doc = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for package in ("core", "sim", "apps", "trace", "cost",
                        "experiments", "obs", "faults", "workloads",
                        "topology"):
            assert (ROOT / "src/repro" / package / "__init__.py").exists()
            assert f"{package}/" in doc, f"ARCHITECTURE.md misses {package}/"

    def test_observability_doc_covers_every_profile_cause(self):
        from repro.obs.ledger import BENCH_FLOORS, SCHEMA as LEDGER_SCHEMA
        from repro.obs.profile import CAUSES, SCHEMA as PROFILE_SCHEMA

        doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        for cause in CAUSES:
            assert f"`{cause}`" in doc, (
                f"OBSERVABILITY.md's cause taxonomy misses {cause!r}"
            )
        assert PROFILE_SCHEMA in doc and LEDGER_SCHEMA in doc
        assert "BENCH_FLOORS" in doc
        assert "obs_overhead_pct" in BENCH_FLOORS

    def test_service_doc_pins_endpoints_and_metrics(self):
        doc = (ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        server_src = (ROOT / "src/repro/service/server.py").read_text(
            encoding="utf-8"
        )
        for route in ("/v1/predict", "/v1/design", "/v1/simulate",
                      "/metrics", "/healthz"):
            assert route in doc, f"SERVICE.md no longer documents {route}"
            assert route in server_src, f"server.py no longer serves {route}"
        for metric in ("service_requests_total", "service_shed_total",
                       "service_latency_seconds", "service_queue_depth",
                       "service_batch_size", "service_retries_total",
                       "service_breaker_state"):
            assert metric in doc, f"SERVICE.md no longer documents {metric}"
            assert metric in server_src, (
                f"server.py no longer registers {metric}"
            )

    def test_service_doc_names_every_predict_mode(self):
        from repro.core.execution import MODES

        doc = (ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        row = next(line for line in doc.splitlines() if "`/v1/predict`" in line)
        assert re.findall(r"`(\w+)`", row.split("modes", 1)[1]) == list(MODES)

    def test_service_doc_shed_reasons_match_code(self):
        from repro.service.server import SHED_STATUS

        doc = (ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        for reason in SHED_STATUS:
            assert f"`{reason}`" in doc, (
                f"SERVICE.md's shed taxonomy misses {reason!r}"
            )

    def test_service_doc_request_keys_match_the_parser(self):
        from repro.service.api import REQUEST_KEYS

        lines = (ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8").splitlines()
        header = lines.index("| key | endpoints | meaning |")
        documented: dict[str, set[str]] = {ep: set() for ep in REQUEST_KEYS}
        for line in lines[header + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            keys, endpoints = line.split("|")[1:3]
            for endpoint in endpoints.split(","):
                documented[endpoint.strip()] |= set(re.findall(r"`(\w+)`", keys))
        assert documented == {ep: set(keys) for ep, keys in REQUEST_KEYS.items()}

    def test_scheduling_doc_is_connected_both_ways(self):
        refs = _md_references(ROOT / "docs" / "SCHEDULING.md")
        assert {"docs/ARCHITECTURE.md", "docs/MODEL.md", "docs/COST.md",
                "docs/SIMULATOR.md", "docs/TRACES.md",
                "EXPERIMENTS.md"} <= refs
        arch_refs = _md_references(ROOT / "docs" / "ARCHITECTURE.md")
        assert "docs/SCHEDULING.md" in arch_refs
        cost_refs = _md_references(ROOT / "docs" / "COST.md")
        assert "docs/SCHEDULING.md" in cost_refs

    def test_scheduling_doc_policy_names_match_code(self):
        from repro.cli import _POLICY_CHOICES
        from repro.scheduling import POLICIES

        doc = (ROOT / "docs" / "SCHEDULING.md").read_text(encoding="utf-8")
        assert set(_POLICY_CHOICES) == set(POLICIES)
        for policy in POLICIES:
            assert f"`{policy}`" in doc, (
                f"SCHEDULING.md no longer documents policy {policy!r}"
            )
        # The knobs the doc teaches still exist in the source.
        catalog_src = (ROOT / "src/repro/cost/catalog.py").read_text(
            encoding="utf-8"
        )
        assert "speed_premium_per_unit" in catalog_src
        space_src = (ROOT / "src/repro/cost/configspace.py").read_text(
            encoding="utf-8"
        )
        for field in ("machine_speeds", "mix_max_machines"):
            assert field in space_src, f"configspace.py lost {field}"
            assert field in doc, f"SCHEDULING.md no longer documents {field}"

    def test_traces_doc_is_connected_both_ways(self):
        traces_refs = _md_references(ROOT / "docs" / "TRACES.md")
        assert "docs/OBSERVABILITY.md" in traces_refs
        arch_refs = _md_references(ROOT / "docs" / "ARCHITECTURE.md")
        assert "docs/TRACES.md" in arch_refs
        model_refs = _md_references(ROOT / "docs" / "MODEL.md")
        assert "docs/TRACES.md" in model_refs

    def test_traces_doc_pins_container_schema(self):
        from repro.trace.store import (
            FRAME_MAGIC,
            HEADER_BYTES,
            STORE_FORMAT,
            STORE_VERSION,
        )

        doc = (ROOT / "docs" / "TRACES.md").read_text(encoding="utf-8")
        assert STORE_FORMAT == "repro-trace-store/1"
        assert STORE_VERSION == 1
        assert FRAME_MAGIC == b"RTC1"
        assert STORE_FORMAT in doc
        assert f"HEADER_BYTES = {HEADER_BYTES}" in doc
        assert 'b"RTC1"' in doc
        assert '"<4sBIII"' in doc
        # Every documented header field is actually written by the store.
        store_src = (ROOT / "src/repro/trace/store.py").read_text(
            encoding="utf-8"
        )
        for field in ("format", "version", "address_width", "chunk_records",
                      "compression", "records", "max_address", "barriers",
                      "tail_work"):
            assert f"`{field}`" in doc, f"TRACES.md misses header field {field}"
            assert f'"{field}"' in store_src

    def test_traces_doc_metric_names_exist_in_source(self):
        doc = (ROOT / "docs" / "TRACES.md").read_text(encoding="utf-8")
        ingest_src = (ROOT / "src/repro/trace/ingest.py").read_text(
            encoding="utf-8"
        )
        for metric in (
            "trace_ingest_records_total",
            "trace_ingest_chunks_total",
            "trace_ingest_bytes_total",
            "trace_spill_events_total",
            "trace_ingest_records_per_second",
        ):
            assert metric in doc, f"TRACES.md no longer documents {metric}"
            assert metric in ingest_src, (
                f"ingest.py no longer registers {metric}"
            )

    def test_traces_doc_cli_flags_exist_in_cli(self):
        doc = (ROOT / "docs" / "TRACES.md").read_text(encoding="utf-8")
        cli_src = (ROOT / "src/repro/cli.py").read_text(encoding="utf-8")
        for flag in ("--chunk-records", "--max-live-items", "--fit-every",
                     "--tol", "--patience", "--stop-early", "--workload-dir",
                     "--convergence-out", "--gamma", "--compression",
                     "--binary-dtype"):
            assert flag in doc, f"TRACES.md no longer documents {flag}"
            assert f'"{flag}"' in cli_src, f"cli.py no longer accepts {flag}"

    def test_traces_doc_convergence_fields_match_dataclass(self):
        import dataclasses

        from repro.trace.fit import CONVERGENCE_SCHEMA, ConvergenceStep

        doc = (ROOT / "docs" / "TRACES.md").read_text(encoding="utf-8")
        assert CONVERGENCE_SCHEMA in doc
        for field in dataclasses.fields(ConvergenceStep):
            assert f"`{field.name}`" in doc, (
                f"TRACES.md misses ConvergenceStep field {field.name!r}"
            )

    def test_traces_doc_workload_schema_matches_registry(self):
        from repro.workloads.registry import WORKLOAD_SCHEMA

        assert WORKLOAD_SCHEMA == "repro-workload/1"
        doc = (ROOT / "docs" / "TRACES.md").read_text(encoding="utf-8")
        assert ".workload.json" in doc

    def test_cost_doc_examples_name_real_api(self):
        import repro.cost as cost

        doc = (ROOT / "docs" / "COST.md").read_text(encoding="utf-8")
        for name in ("DesignSearch", "DesignQuery", "pareto_frontier",
                     "upgrade_path", "optimize_cluster", "optimize_upgrade",
                     "assert_priceable"):
            assert hasattr(cost, name)
            if name in ("DesignSearch", "DesignQuery"):
                assert name in doc
