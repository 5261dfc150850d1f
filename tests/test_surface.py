"""The package's exported names and README's account of why each stays."""

import os
import re

import sharelin

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_surface_section() -> str:
    text = open(README, encoding="utf-8").read()
    start = text.index("\n## Library surface\n")
    end = text.find("\n## ", start + 1)
    return text[start : None if end < 0 else end]


def test_readme_gives_every_exported_name_a_reason():
    named = set(re.findall(r"`(\w+)`", library_surface_section()))
    assert sorted(set(sharelin.__all__) - named) == []
