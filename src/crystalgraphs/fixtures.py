"""Loader for the bundled reference tables.

The environment variable CRYSTALGRAPHS_FIXTURES may point at a directory of
replacement JSON files; otherwise the packaged copies are used.
"""

from __future__ import annotations

import json
import os

from .rootdata import int_rows

ENV_VAR = "CRYSTALGRAPHS_FIXTURES"


def load(name: str) -> dict:
    override = os.environ.get(ENV_VAR)
    if override:
        with open(os.path.join(override, name)) as fh:
            return json.load(fh)
    # imported here: it pulls in pathlib, zipfile and tempfile, which only
    # the fixture suites need
    from importlib import resources

    text = resources.files("crystalgraphs").joinpath("fixtures", name).read_text()
    return json.loads(text)


def as_column(value):
    """Type-A element ids arrive as arrays of integers, read as tuples and
    never coerced; C2 ids as strings."""
    if isinstance(value, str):
        return value
    return int_rows([value], f"fixture element id {value!r} is neither a "
                    "string nor an array of integers")[0]


def as_pair(value) -> tuple:
    return tuple(as_column(x) for x in value)
