import ast
import dataclasses
from pathlib import Path

import pytest

import ecokit
from ecokit.catalog import (
    ENTRIES,
    ORACLES,
    CatalogError,
    catalog_verify,
    get_entry,
    verify_entry,
)
from ecokit.dsl import validate_spec


class TestInventory:
    def test_enough_systems(self):
        assert len(ENTRIES) >= 20

    def test_names_unique(self):
        names = [e.name for e in ENTRIES]
        assert len(set(names)) == len(names)

    def test_unknown_name(self):
        with pytest.raises(CatalogError, match="unknown system"):
            get_entry("sandpile")

    def test_no_module_but_the_catalog_names_an_entry(self):
        names = {e.name for e in ENTRIES}
        found = []
        for path in sorted(Path(ecokit.__file__).parent.glob("*.py")):
            if path.name == "catalog.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and node.value in names:
                    found.append(f"{path.name}:{node.lineno} {node.value!r}")
        assert not found

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
    def test_spec_parses_and_validates(self, entry):
        report = validate_spec(entry.spec())
        assert report.ok, report.issues

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
    def test_golden_prefix_present(self, entry):
        assert len(entry.golden) >= 8


class TestOracles:
    def test_involution_counts(self):
        assert ORACLES["involutions"].values(7) == [1, 1, 2, 4, 10, 26, 76]

    def test_bell_counts(self):
        assert ORACLES["bell"].values(8) == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_generalized_ballot_counts_cover_catalan(self):
        got = ORACLES["m_catalan"].values(len(get_entry("catalan").golden), 2)
        assert tuple(got) == get_entry("catalan").golden


class TestVerification:
    def test_full_sweep_passes(self):
        report = catalog_verify(form_order=12)
        assert report["ok"]
        assert len(report["entries"]) == len(ENTRIES)

    def test_doctored_golden_is_caught(self):
        entry = get_entry("fibonacci")
        bad = dataclasses.replace(entry, golden=entry.golden[:-1] + (999,))
        result = verify_entry(bad)
        assert not result["ok"]
        assert result["diagnostics"]
