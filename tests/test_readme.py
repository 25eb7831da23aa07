"""The README's quick-tour snippet must actually run, and the names it cites
must exist."""

from __future__ import annotations

import builtins
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pandorabox
from pandorabox import dump_instance, load_instance

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
CITED = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", README)))
MODULES = {m.name for m in pkgutil.iter_modules(pandorabox.__path__)}
# backticked words that are not names of the package: CLI commands, a
# parameter, and what the README says the package does not have
NOT_PACKAGE_NAMES = {"solve", "evaluate", "initial_best", "Rational", "dataclasses", "typing"}


def holds(obj, name: str) -> bool:
    """``obj`` has the attribute, or (a record class) the field ``name``."""
    return hasattr(obj, name) or name in getattr(obj, "_fields", ())


def resolve(obj, names: list[str]) -> bool:
    for name in names:
        if not holds(obj, name):
            return False
        obj = getattr(obj, name, None)
    return True


def test_quick_tour_executes():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks, "README lost its python example"
    for block in blocks:
        exec(compile(block, "<README>", "exec"), {})


def test_instance_document_round_trips():
    """The CLI section's instance document loads and dumps back to an equal
    instance, as it is and with the partition ``side`` the README gives."""
    (block,) = re.findall(r"```json\n(.*?)```", README, flags=re.S)
    doc = json.loads(block)
    (partition,) = re.findall(r'`(\{"kind": "partition".*?\})`', README)
    for side in (doc["side"], json.loads(partition)):
        instance = load_instance(json.dumps(dict(doc, side=side)))
        text = dump_instance(instance)
        assert json.loads(text)["side"] == side
        assert load_instance(text) == instance and dump_instance(load_instance(text)) == text


def test_module_names_resolve():
    """Every `module.name` (and `module.Class.name`) cited resolves on pandorabox.<module>."""
    cited = [name.split(".") for name in CITED if name.split(".")[0] in MODULES and "." in name]
    assert cited, "README cites no module.name"
    missing = [".".join(parts) for parts in cited
               if not resolve(importlib.import_module(f"pandorabox.{parts[0]}"), parts[1:])]
    assert not missing


def test_cited_names_exist():
    """Every other backticked name is a package export (in ``__all__``) or
    something the package holds: a module, a name in one, an attribute of an
    export.  A name removed from the package fails here until the README drops it."""
    modules = [importlib.import_module(f"pandorabox.{m}") for m in sorted(MODULES)]
    exports = [getattr(pandorabox, name) for name in pandorabox.__all__]
    missing = []
    for name in CITED:
        head, *rest = name.split(".")
        if head in pandorabox.__all__:
            found = resolve(getattr(pandorabox, head), rest)
        elif "." in name:
            continue  # outside the package, or a module.name checked above
        else:
            found = (name in MODULES or name in NOT_PACKAGE_NAMES or hasattr(builtins, name)
                     or any(holds(obj, name) for obj in (pandorabox, *modules, *exports)))
        if not found:
            missing.append(name)
    assert not missing
