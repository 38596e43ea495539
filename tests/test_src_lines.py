"""``tools/src_lines.py``: lines per module by kind, adding up to each file."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "src_lines", os.path.join(ROOT, "tools", "src_lines.py")
)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment on its own
X = """a string
that is not a docstring"""  # a trailing comment


class A:
    """One line."""

    def f(self, y):
        """Two
        lines."""
        return (y +
                1)
'''


def test_each_line_gets_one_kind():
    assert src_lines.count(SOURCE) == {
        "lines": 16, "code": 6, "docstring": 5, "comment": 1, "blank": 4,
    }


def test_each_src_module_adds_up_to_its_line_count():
    counts = src_lines.count_tree(os.path.join(ROOT, "src"))
    assert "subsketch/dataset.py" in counts
    for name, row in counts.items():
        with open(os.path.join(ROOT, "src", name), encoding="utf-8") as fh:
            assert row["lines"] == len(fh.readlines()), name
        assert sum(row[kind] for kind in src_lines.KINDS) == row["lines"], name


def test_the_table_ends_with_the_total(capsys):
    assert src_lines.main([os.path.join(ROOT, "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "lines", *src_lines.KINDS]
    total = sum(row["lines"] for row in src_lines.count_tree(os.path.join(ROOT, "src")).values())
    assert lines[-1].split()[:2] == ["total", f"{total:,}"]
