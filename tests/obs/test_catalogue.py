"""README's metric catalogue and the source agree, name by name.

Every ``"repro_…"`` name literal under ``src/repro`` is created by one
``counter``/``gauge``/``histogram`` call; the README table must list
each of them with that type, and must list nothing the source does
not create.
"""

import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
README = SRC.parent.parent / "README.md"

ROW = re.compile(r"^\| `(repro_[a-z0-9_]+)` \| (counter|gauge|histogram) \|")
LITERAL = re.compile(r'"(repro_[a-z0-9_]+)"')
CREATED = re.compile(r'\b(counter|gauge|histogram)\(\s*"(repro_[a-z0-9_]+)"')


def _catalogue() -> dict:
    rows = [ROW.match(line) for line in README.read_text().splitlines()]
    names = [m.group(1) for m in rows if m]
    assert len(names) == len(set(names)), "a metric is listed twice"
    return {m.group(1): m.group(2) for m in rows if m}


def _source() -> tuple:
    literals: set = set()
    created: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        literals |= set(LITERAL.findall(text))
        for kind, name in CREATED.findall(text):
            created.setdefault(name, set()).add(kind)
    return literals, created


def test_every_metric_in_the_source_is_catalogued():
    literals, _ = _source()
    assert literals, "no metric literals found under src/repro"
    assert sorted(literals - set(_catalogue())) == []


def test_every_catalogued_metric_exists_with_its_type():
    literals, created = _source()
    catalogue = _catalogue()
    assert sorted(set(catalogue) - literals) == []
    for name, kind in catalogue.items():
        assert created.get(name) == {kind}, name
