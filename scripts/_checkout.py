"""Import another checkout's ``photontrack`` beside this one's, for the
scripts that compare two checkouts in one process."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path


def load_package(checkout: Path):
    """The ``src/photontrack`` package of another checkout, imported as
    ``photontrack_against`` so that it sits beside this one's."""
    package = Path(checkout).resolve() / "src" / "photontrack"
    spec = importlib.util.spec_from_file_location(
        "photontrack_against",
        package / "__init__.py",
        submodule_search_locations=[str(package)],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
