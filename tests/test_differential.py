"""The differential harness (``tests/differential.py``) against itself: a
copy of the tree reads the same as the tree, and a copy with a mutation
planted reads differently."""

import shutil

import differential

# a solve error raised before the rows of the anchors ahead of it in its
# block: a check error of an earlier anchor then no longer comes first
_MUTATION = ("        yield batch, items\n        if batch.error is not None:\n"
             "            raise batch.error\n",
             "        if batch.error is not None:\n            raise batch.error\n"
             "        yield batch, items\n")


def _copy(tmp_path, name, mutation=None):
    tree = tmp_path / name
    shutil.copytree(differential.REPO / "src" / "bhm", tree / "src" / "bhm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is not None:
        path = tree / "src" / "bhm" / "verify.py"
        text = path.read_text()
        assert text.count(mutation[0]) == 1
        path.write_text(text.replace(*mutation))
    return tree


def test_the_harness_reads_no_difference_on_a_copy_of_the_tree(tmp_path):
    failures, differ = differential.compare(differential.REPO, _copy(tmp_path, "copy"),
                                            differential.EDGE_CASES)
    assert (failures, differ) == ([], [])


def test_the_harness_finds_a_planted_mutation(tmp_path):
    mutant = _copy(tmp_path, "mutant", _MUTATION)
    failures, differ = differential.compare(differential.REPO, mutant, differential.EDGE_CASES)
    assert differ and failures
    # listed as meant to differ, the same difference passes, and a listed
    # config of another run (seeded configs) is not read
    other_run = differential.configs(2, 1)[len(differential.EDGE_CASES):]
    assert differential.compare(differential.REPO, mutant, differential.EDGE_CASES,
                                differ + other_run)[0] == []
