"""The A/B loop that ``scripts/ab_bench.py`` and ``scripts/parzen_sweep.py``
share, driven by fake sides: nothing is simulated or tracked."""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout():
    """``scripts/_checkout.py``, imported by path; the entries it puts on
    ``sys.path`` are taken off again."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "_checkout", ROOT / "scripts" / "_checkout.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


class Fake:
    """A side that notes its name in ``log`` when it runs, takes
    ``item`` ms in its first stage and 1 ms in its second, and returns
    ``item``, or ``item + 1`` at the item ``bad``."""

    def __init__(self, name: str, log: list, bad=None):
        self.name, self.log, self.bad = name, log, bad

    def step(self, item, ms):
        self.log.append(self.name)
        ms[0] += item
        ms[1] += 1.0
        return item + (item == self.bad)


def test_equal_sides_give_each_side_a_list_of_rounds_per_stage(checkout):
    log = []
    ms = checkout.alternate(
        lambda: [Fake("a", log), Fake("b", log)], [1, 2, 3], 4, "equal", stages=2
    )
    assert ms == [[[2.0] * 4, [1.0] * 4]] * 2


def test_differing_sides_exit_naming_label_round_and_step(checkout):
    with pytest.raises(SystemExit) as info:
        checkout.alternate(
            lambda: [Fake("a", []), Fake("b", [], bad=2)], [0, 1, 2, 3], 3, "label", 2
        )
    assert info.value.code == "label, round 0, step 2: the two sides differ"


def test_the_side_that_runs_first_alternates(checkout):
    log = []
    checkout.alternate(lambda: [Fake("a", log), Fake("b", log)], [1, 2, 3], 2, "x", 2)
    assert "".join(log) == "ab" "ba" "ab" + "ba" "ab" "ba"


def test_summary_on_fixed_lists(checkout):
    assert checkout.summary([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 8.0]) == (
        2.5, 3.5, 2.5 / 3.5, 3, 5.25,
    )
    assert checkout.summary([3.0], [2.0]) == (3.0, 2.0, 1.5, 0, 0.0)


def test_load_package_refuses_a_directory_without_the_package(checkout, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        checkout.load_package(tmp_path)
    assert info.value.code == 2
    init = tmp_path.resolve() / "src" / "photontrack" / "__init__.py"
    assert capsys.readouterr().err == (
        f"error: {init} not found: not a photontrack checkout\n"
    )
