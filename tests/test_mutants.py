"""The mutation gate's table (``tests/mutants.py``) stays true to the code it mutates and the tests it names."""

import shutil

from mutants import MUTANTS, ROOT, table_faults


def test_every_snippet_occurs_once_and_every_named_test_is_defined():
    assert table_faults() == []


def test_a_stale_snippet_and_an_undefined_test_are_each_named(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", tmp_path / "tests", ignore=ignore)
    first = MUTANTS[0]
    source = tmp_path / "src" / "dca_lab" / first.file
    source.write_text(source.read_text().replace(first.snippet, first.snippet * 2))
    path, test = first.tests[0].split("::", 1)
    name = test.split("::")[-1]
    (tmp_path / path).write_text((tmp_path / path).read_text().replace(f"def {name}(", f"def renamed_{name}("))
    faults = table_faults(tmp_path)
    assert faults[0] == f"mutant 1 ({first.file}: {first.snippet.strip()!r}): the snippet occurs 2 times, not once"
    assert faults[1] == f"mutant 1: {path} does not define {name} of {first.tests[0]}"
    assert len(faults) == 2 + sum(first.tests[0] in m.tests for m in MUTANTS[1:])
