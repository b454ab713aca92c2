"""The package namespace re-exports exactly the modules' public names."""

import gradflows
from gradflows import caputo, flows, problems, sim, special


def test_all_is_union_of_module_exports():
    modules = (caputo, flows, problems, sim, special)
    want = set().union(*(m.__all__ for m in modules)) | {"__version__"}
    assert set(gradflows.__all__) == want
    assert len(gradflows.__all__) == len(want)  # no name listed twice
    for name in gradflows.__all__:
        assert hasattr(gradflows, name), name
