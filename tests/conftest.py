"""Fixtures shared by every test module."""

from pathlib import Path

import pytest

from microact import io


@pytest.fixture(autouse=True)
def empty_matrix_memo():
    """Start each test with ``io.load_matrix``'s process-wide memo empty,
    so a matrix one test parsed is not a memo hit in the next."""
    io._MATRIX_MEMO.clear()


@pytest.fixture
def matrix_parses(monkeypatch) -> list:
    """The paths that ``io.load_matrix`` parses, in call order; a load
    answered from the memo adds none."""
    parses = []
    parse = io._parse_matrix

    def counting(path, raw):
        parses.append(Path(path))
        return parse(path, raw)

    monkeypatch.setattr(io, "_parse_matrix", counting)
    return parses
