"""What ``import repro`` costs: no dataclass is built on the import path.

``@dataclass`` compiles each class's methods with ``exec`` at every
import, which was two thirds of the set-up time of a client run.  The
records the core packages load are plain classes (``repro._record``);
this guard fails on any new ``@dataclass`` on that path.
"""

import json
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

#: Run in a fresh interpreter, so only what these imports load is seen.
PROBE = """
import json, sys
import repro.core, repro.idl, repro.netsim, repro.services
classes, dataclasses = 0, []
for name, mod in sorted(sys.modules.items()):
    if name != "repro" and not name.startswith("repro."):
        continue
    for obj in vars(mod).values():
        if isinstance(obj, type) and obj.__module__ == name:
            classes += 1
            if hasattr(obj, "__dataclass_fields__"):
                dataclasses.append(f"{name}.{obj.__qualname__}")
print(json.dumps({"classes": classes, "dataclasses": dataclasses}))
"""


def test_core_packages_load_no_dataclass():
    r = subprocess.run([sys.executable, "-c", PROBE], cwd=SRC,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout)
    # The probe looked at the records it guards (AST, typecodes, headers...).
    assert seen["classes"] > 100
    assert seen["dataclasses"] == []
