import ast
import io
import re
from pathlib import Path

import pytest

import termbench
from termbench.errors import ParseError
from termbench.outcomes import write_derived_csv
from termbench.tables import read_table, write_table

SOURCES = sorted(Path(termbench.__file__).resolve().parent.glob("*.py"))


def test_write_table_cells():
    buf = io.StringIO()
    rows = [(1, 0.1 + 0.2, None), ("x,y", 'say "hi"', 100.0), ("a\rb", "c\nd", "")]
    assert write_table(["a", "b", "c"], rows, buf) == 3
    assert buf.getvalue() == ('a,b,c\n1,0.30000000000000004,\n"x,y","say ""hi""",100.0\n'
                              '"a\rb","c\nd",\n')


def test_write_table_writes_each_row_as_it_comes():
    buf = io.StringIO()
    seen = []

    def rows():
        for i in range(3):
            seen.append(buf.getvalue())
            yield (i,)

    write_table(["n"], rows(), buf)
    assert seen == ["n\n", "n\n0\n", "n\n0\n1\n"]
    assert buf.getvalue() == "n\n0\n1\n2\n"


def test_read_table_yields_line_numbers_and_skips_blank_rows():
    text = 'a,b\n1,"x\ny"\n\n2,\n'
    assert list(read_table(["a", "b"], io.StringIO(text, newline=""))) == [
        (3, ["1", "x\ny"]), (5, ["2", ""])]


@pytest.mark.parametrize("text,found", [("a,c\n1,2\n", "['a', 'c']"), ("", "None")])
def test_read_table_rejects_a_bad_header(text, found):
    with pytest.raises(ParseError, match=re.escape(f"unexpected CSV header: {found}")) as exc:
        list(read_table(["a", "b"], io.StringIO(text)))
    assert exc.value.line_number == 1


def test_an_absent_pooled_degradation_is_an_empty_cell():
    buf = io.StringIO()
    write_derived_csv([("t", 1.5, 2.0, 0.0, None, 100.0)], buf)
    assert buf.getvalue().splitlines()[1] == "t,1.5,2.0,0.0,,100.0"


def _calls(path: Path, module: str, names: set[str]) -> list[str]:
    """`module.name(...)` calls in one source file, as "file:line module.name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == module
                and node.func.attr in names):
            found.append(f"{path.name}:{node.lineno} {module}.{node.func.attr}")
    return found


def test_one_writer_per_file_format():
    # every CSV table is written by tables.write_table and read by
    # tables.read_table, every JSON text (rows and documents) is written
    # through jsonl; json.loads may be called anywhere
    by_name = {p.name: p for p in SOURCES}
    assert len(_calls(by_name["tables.py"], "csv", {"writer"})) == 1
    assert len(_calls(by_name["tables.py"], "csv", {"reader"})) == 1
    assert len(_calls(by_name["jsonl.py"], "json", {"dumps"})) == 1
    csv_codecs = [c for p in SOURCES if p.name != "tables.py"
                  for c in _calls(p, "csv", {"writer", "DictWriter", "reader", "DictReader"})]
    json_writers = [c for p in SOURCES if p.name != "jsonl.py"
                    for c in _calls(p, "json", {"dump", "dumps"})]
    assert (csv_codecs, json_writers) == ([], [])
