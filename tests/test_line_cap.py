"""The package's size cap, checked on every test run instead of by hand."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attnrec"
# ROADMAP.md, north star "Quality of design": src/attnrec should end the round
# no larger than this, counted as `cat src/attnrec/*.py | wc -l`.
LINE_CAP = 2499


def test_package_stays_within_the_roadmap_line_cap():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_CAP, (
        f"src/attnrec holds {lines} lines (cat src/attnrec/*.py | wc -l), over the "
        f"{LINE_CAP}-line cap that ROADMAP.md's 'Quality of design' north star sets")
