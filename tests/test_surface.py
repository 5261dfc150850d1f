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


def reason_list() -> str:
    """The bullet list of reasons, without its parenthesised asides."""
    section = library_surface_section()
    bullets = section[section.index("\n- ") :]
    return re.sub(r"\([^)]*\)", "", bullets)


def test_readme_gives_every_exported_name_a_reason():
    named = set(re.findall(r"`(\w+)`", library_surface_section()))
    assert sorted(set(sharelin.__all__) - named) == []


def test_readme_reasons_name_only_exported_names():
    # a name deleted from the package and left in README fails here
    named = set(re.findall(r"`(\w+)`", reason_list()))
    assert sorted(named - set(sharelin.__all__)) == []
