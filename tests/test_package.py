import subprocess
import sys

import pytest

MODULES = ("cli", "decomposition", "eta", "exceptions", "propositions", "reporting", "scanner")


def fresh_interpreter(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_and_defines_its_all(module):
    # the package root imports nothing, so each module must load what it uses
    code = (f"import etafloor.{module} as m; "
            "print([n for n in getattr(m, '__all__', ()) if not hasattr(m, n)])")
    assert fresh_interpreter(code) == "[]"


def test_package_root_exports_nothing():
    # import each name from its module: from etafloor.eta import eta_eval
    code = "import etafloor; print([n for n in vars(etafloor) if not n.startswith('_')])"
    assert fresh_interpreter(code) == "[]"


def test_cli_import_leaves_out_the_pool_machinery():
    # only a run that starts a process pool pays for importing one
    code = ("import sys, etafloor.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    assert fresh_interpreter(code) == "[]"
