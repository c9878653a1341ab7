"""API-surface hygiene: exports exist, are documented, and re-import.

A downstream user's first contact is ``from repro import ...`` and the
package ``__all__`` lists; these tests pin that surface: every exported
name resolves, everything public carries a docstring, and the version
metadata is consistent.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.crypto",
    "repro.cracking",
    "repro.core",
    "repro.store",
    "repro.linalg",
    "repro.workloads",
    "repro.analysis",
    "repro.bench",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), package_name
        for name in package.__all__:
            assert hasattr(package, name), (package_name, name)

    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__.strip()) > 20

    def test_public_objects_documented(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, (package_name, name)


class TestPublicClassesDocumented:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_methods_documented(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if not inspect.isclass(obj):
                continue
            for method_name, method in inspect.getmembers(
                obj, inspect.isfunction
            ):
                if method_name.startswith("_"):
                    continue
                assert method.__doc__, (name, method_name)


class TestVersion:
    def test_version_exported(self):
        import repro

        assert repro.__version__
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_cli_version_matches(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        import repro

        assert repro.__version__ in capsys.readouterr().out
