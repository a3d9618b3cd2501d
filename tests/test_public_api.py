"""Public API surface and packaging hygiene."""

import importlib
import inspect

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_from_docstring_runs(self):
        # The __init__ docstring example must actually work.
        from repro import jpetstore_application, predict_performance

        app = jpetstore_application()
        report = predict_performance(
            app,
            n_design_points=3,
            max_population=40,
            concurrency_range=(1, 40),
            duration=20.0,
            seed=0,
        )
        assert "mvasd" in report.prediction.summary()

    def test_subpackages_importable(self):
        for sub in (
            "repro.core",
            "repro.interpolate",
            "repro.simulation",
            "repro.apps",
            "repro.loadtest",
            "repro.workflow",
            "repro.analysis",
        ):
            mod = importlib.import_module(sub)
            assert mod.__doc__, f"{sub} missing module docstring"

    def test_all_public_functions_documented(self):
        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not inspect.getdoc(obj):
                missing.append(name)
        assert not missing, f"undocumented public callables: {missing}"

    def test_solver_functions_share_result_type(self):
        from repro.core import (
            MVAResult,
            ClosedNetwork,
            Station,
            exact_multiserver_mva,
            exact_mva,
            mvasd,
            schweitzer_amva,
        )

        net = ClosedNetwork([Station("s", 0.1)], think_time=1.0)
        for solver in (exact_mva, exact_multiserver_mva, mvasd, schweitzer_amva):
            assert isinstance(solver(net, 3), MVAResult)
