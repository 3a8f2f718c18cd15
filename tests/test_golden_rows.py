"""Every row of `verify --suite all --n-max 3`, pinned field by field.

The golden file holds each row's fields except `elapsed`, in report order.
To rewrite it after an intended change of rows, run
`PYTHONPATH=src python tests/test_golden_rows.py` and review the diff.
"""

import io
import json
from pathlib import Path

from hirotaverify.cli import RunConfig, cmd_verify

GOLDEN = Path(__file__).with_name("golden_verify_all_n3.json")
FIELDS = ("equation_id", "n", "order_index", "status", "witness", "term_count", "note")


def verify_rows() -> tuple[int, list[list]]:
    stream = io.StringIO()
    config = RunConfig(n_max=3, suites=["all"], report_format="json")
    code = cmd_verify(config, stream=stream)
    checks = json.loads(stream.getvalue())["checks"]
    return code, [[c[f] for f in FIELDS] for c in checks]


def test_all_suites_n3_rows_match_golden(monkeypatch):
    monkeypatch.delenv("HV_CACHE_DIR", raising=False)
    code, rows = verify_rows()
    golden = json.loads(GOLDEN.read_text())
    assert golden["fields"] == list(FIELDS)
    assert code == 0
    assert len(rows) == len(golden["rows"]) == 168
    for got, want in zip(rows, golden["rows"]):
        assert got == want


if __name__ == "__main__":
    _, rows = verify_rows()
    body = ",\n".join(json.dumps(row) for row in rows)
    GOLDEN.write_text(
        f'{{"command": "verify --suite all --n-max 3",\n "fields": {json.dumps(list(FIELDS))},\n'
        f' "rows": [\n{body}\n]}}\n'
    )
