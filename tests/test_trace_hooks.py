"""The benchmark's outside-in tracer (perfbench/tracer.py) wraps monocube
functions by module and attribute name.  Every name it lists must still
resolve, so a refactor that drops or renames one fails here rather than
only in a traced benchmark run."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for (name, module_name, attr, _counts) in tracer.LAYERS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"{name}: {module_name}.{attr} is not callable"
