"""The README's library example runs as written, and its configuration
section names exactly the keys the config schema reads."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

from horus.aggregation import AggregatorKind, HorusConfig
from horus.attacks import AttackConfig
from horus.config import _KEYS, ClientTemplate, RunConfig
from horus.sim import TaskConfig

ROOT = Path(__file__).resolve().parents[1]
# the dataclasses whose fields are the keys of a config file
SCHEMA = (RunConfig, ClientTemplate, TaskConfig, AggregatorKind, HorusConfig, AttackConfig)


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def config_key_problems(readme: str) -> list[str]:
    """Schema keys the ``### Configuration`` section never names in
    backticks, and keys its bullet list gives as `` `name` (default) ``
    that the schema lacks."""
    section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    named = {word for span in re.findall(r"`([^`]*)`", section)
             for word in re.findall(r"[A-Za-z_]\w*", span)}
    bullets = section[section.index("\n- "):]
    listed = set(re.findall(r"`(\w+)`\s*\(", bullets))
    keys = {_KEYS.get((cls, f.name), f.name)
            for cls in SCHEMA for f in dataclasses.fields(cls)}
    return ([f"unnamed: {k}" for k in sorted(keys - named)]
            + [f"not a key: {k}" for k in sorted(listed - keys)])


def test_configuration_section_matches_the_schema():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert config_key_problems(readme) == []


def test_a_stale_or_missing_key_is_caught():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stale = readme.replace("`z_override`", "`gamma_init` (1.0), `z_override`", 1)
    assert config_key_problems(stale) == ["not a key: gamma_init"]
    missing = readme.replace("`beta`", "beta", 1)
    assert config_key_problems(missing) == ["unnamed: beta"]
