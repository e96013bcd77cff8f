"""The README's code examples run and print what the README says they print."""

import contextlib
import io
import re
from pathlib import Path

from schwarz1d.cli import _GRID, _OUTPUT, _PARTITIONS, _RUN, _SWEEP
from schwarz1d.schwarz import run_parabolic, solve_reference, weighted_sup_norm
from schwarz1d.transmission import TransmissionSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_prints_divergence():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python_block("## Library use"), "README.md", "exec"), {})
    verdict, rate = out.getvalue().splitlines()[0].split()
    assert verdict == "diverged"
    assert rate.startswith("1.2077")


def test_hand_written_sweep_example_is_the_runs_first_iteration():
    # the example solves no reference; its fields' norms against one are the
    # first iteration of a run on the same plan, bit for bit
    block = python_block("The third argument of `sweep`")
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), names)
    assert out.getvalue() == block.splitlines()[-1].split("# (nodes, time levels): ")[1] + "\n"
    p, fields = names["plan"], names["fields"]
    assert p.norm_kind == "weighted-sup2"
    reference, _ = solve_reference(p)
    norms = [weighted_sup_norm(field, p.cfg.alpha, p.grid.t, reference[p.grid.nodes(l)])
             for l, field in enumerate(fields)]
    assert run_parabolic(p, reference).records[0].norms == norms


def test_readme_names_every_config_key():
    # an unknown key is an error, so the README names every key a section's table reads
    text = README.read_text(encoding="utf-8")
    keys = [f"{section}.{key}" for section, table in (("grid", _GRID), ("run", _RUN),
                                                      ("output", _OUTPUT), ("sweep", _SWEEP))
            for key in table]
    keys += [f"{section}.{kind}.{key}"
             for section, forms in (("partition", _PARTITIONS),
                                    ("transmission", TransmissionSpec._FORMS))
             for kind, (_, table) in forms.items() for key in table]
    assert [key for key in keys if f"`{key}`" not in text] == []
