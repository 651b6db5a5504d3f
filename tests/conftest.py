from collections import OrderedDict

import pytest

from diskbern import bivariate as biv


@pytest.fixture(autouse=True)
def empty_node_table_memo(monkeypatch):
    """Each test starts from an empty scalar node-table memo, so no test
    sees the tables, or keeps alive the callables, that another one stored."""
    monkeypatch.setattr(biv, "_node_tables", OrderedDict())
    monkeypatch.setattr(biv, "_node_table_bytes", 0)
