"""Byte identity, checked: every command of the golden matrix writes the
bytes and reports the counts that golden.json records, at --jobs 1 and 2.

See golden.py for the matrix and how to rewrite the manifest when a change
alters outputs by design.
"""

import pytest

import golden

MANIFEST = golden.load()


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    return golden.build(tmp_path_factory.mktemp("golden"))


def _versions():
    now = golden.versions()
    return ", ".join(f"{name} {now[name]} (manifest: {MANIFEST[name]})"
                     for name in ("numpy", "orjson"))


def test_the_matrix_is_the_manifests(matrix):
    assert sorted(matrix["inputs"]) == sorted(MANIFEST["inputs"])
    assert sorted(matrix["entries"]) == sorted(MANIFEST["entries"])


@pytest.mark.parametrize("name", sorted(MANIFEST["inputs"]))
def test_outputs_are_the_manifests(matrix, name):
    if matrix["inputs"][name] != MANIFEST["inputs"][name]:
        pytest.fail(f"input {name!r} is not the bytes the manifest was written "
                    f"from: its builder in golden.py changed, or a new numpy "
                    f"or orjson builds it differently, not the program; "
                    f"{_versions()}")
    changed = [key for key, entry in MANIFEST["entries"].items()
               if key.startswith(f"{name}/") and matrix["entries"][key] != entry]
    assert not changed, (
        f"{len(changed)} entries differ from golden.json ({_versions()}): "
        + "; ".join(f"{key}: {matrix['entries'][key]} != "
                    f"{MANIFEST['entries'][key]}" for key in changed))


@pytest.mark.parametrize("name", sorted(MANIFEST["inputs"]))
def test_jobs_1_and_2_agree(matrix, name):
    entries = matrix["entries"]
    differ = [key for key in entries if key.startswith(f"{name}/")
              and key.endswith("/jobs1")
              and entries[key] != entries[key[:-1] + "2"]]
    assert not differ, f"--jobs 2 differs from --jobs 1 for {differ}"
