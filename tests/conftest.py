import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from wiresplit import (
    DesignSpec,
    ScatteringInputs,
    default_medium,
    design_trajectories,
    integrator,
)

KERNEL_SOURCE = Path(integrator.__file__).with_name("_kernel.c")
SETUP_PY = Path(__file__).resolve().parents[1] / "setup.py"

PAPER_INPUTS = dict(v0=0.01, b=0.5e-6, x0=300e-6, tau=0.1)


@pytest.fixture(scope="session")
def medium():
    return default_medium()


@pytest.fixture(scope="session")
def paper_inputs():
    return ScatteringInputs(**PAPER_INPUTS)


@pytest.fixture(scope="session")
def triangular_design(paper_inputs):
    """(DesignResult, top branch, bottom branch) for the reference inputs."""
    spec = DesignSpec(scheme="triangular", inputs=paper_inputs)
    return design_trajectories(spec)


@pytest.fixture(scope="session")
def inverse_design(paper_inputs):
    spec = DesignSpec(scheme="inverse", inputs=paper_inputs)
    return design_trajectories(spec)


@pytest.fixture(scope="session")
def shared_design():
    """``design_trajectories(spec, control=control)``, once per (spec, control).

    The scale-family checks of the acceptance and designer suites design the
    same four specs under pure relative control (base and s = 2, both
    schemes); the two inverse ones alone take about 130k kernel steps.
    """
    cache = {}

    def design(spec, control):
        if (spec, control) not in cache:
            cache[spec, control] = design_trajectories(spec, control=control)
        return cache[spec, control]

    return design


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The C kernel built from source with setup.py's flags, loaded as a module.

    The flags are the ``extra_compile_args`` of setup.py's ``KERNEL``
    extension, read by loading setup.py as a module (its ``setup()`` call
    runs only as a script).

    It is compiled into a temporary directory, so a build left in the source
    tree (or none) does not matter. The compiler is ``CC`` from the
    environment when set, as setup.py's build takes it, else Python's
    configured one. Skips only without that compiler or ``Python.h``.
    """
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    if not Path(include, "Python.h").exists():
        pytest.skip(f"no Python.h in {include}")
    out = tmp_path_factory.mktemp("kernel") / (
        "_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    setup_spec = importlib.util.spec_from_file_location("setup", SETUP_PY)
    setup_module = importlib.util.module_from_spec(setup_spec)
    setup_spec.loader.exec_module(setup_module)
    flags = setup_module.KERNEL.extra_compile_args
    subprocess.run([*cc, *flags, "-shared", "-fPIC", f"-I{include}",
                    str(KERNEL_SOURCE), "-o", str(out)], check=True)
    # loading an extension enters it in sys.modules, where a later
    # ``from wiresplit import _kernel`` would find it: keep the entry as it was
    name = "wiresplit._kernel"
    previous = sys.modules.get(name)
    spec = importlib.util.spec_from_file_location(name, out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if previous is None:
        sys.modules.pop(name, None)
    else:
        sys.modules[name] = previous
    return module
