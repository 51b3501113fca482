import ast
import random
from pathlib import Path

import pytest

from corewalk import oracle
from corewalk.errors import UniquenessError
from corewalk.modarith import primes_in_range
from corewalk.oracle import (
    enumerate_valid_walks,
    exhaustive_partition_search,
    iter_partitions,
    longest_walk_dp,
    max_size_walk,
    partition_counts,
)
from corewalk.partitions import Partition, is_p_core, is_p_regular
from corewalk.residue_walk import lambda_profile, partition_from_row_counts, profile_to_partition


def _collect(p):
    seen = []
    count = enumerate_valid_walks(p, seen.append)
    assert count == len(seen)
    return seen


def test_enumeration_counts_frozen():
    assert enumerate_valid_walks(3, lambda c: None) == 6
    assert enumerate_valid_walks(5, lambda c: None) == 115
    assert enumerate_valid_walks(7, lambda c: None) == 5488


def test_enumeration_caps():
    with pytest.raises(ValueError):
        enumerate_valid_walks(11, lambda c: None)
    with pytest.raises(ValueError):
        enumerate_valid_walks(4, lambda c: None)


def test_max_size_walk_frozen():
    assert max_size_walk(3) == ((2, 1), 3, 10)
    assert max_size_walk(5) == ((4, 2, 2, 3), 11, 198)
    assert max_size_walk(7) == ((6, 2, 5, 5, 2, 5), 25, 1726)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_max_size_walk_matches_profile(p):
    cand = max_size_walk(p)
    prof = lambda_profile(p)
    assert cand.m == tuple(prof.m[1:].tolist())
    assert cand.size == prof.size
    assert cand.length == int(prof.m[1:].sum())


@pytest.mark.parametrize("p", [5, 7])
def test_candidates_encode_core_regular_partitions(p):
    # every valid walk is an aligned display of a p-core p'-partition
    candidates = _collect(p)
    rng = random.Random(p)
    for cand in rng.sample(candidates, 50):
        lam = partition_from_row_counts(p, cand.m)
        assert lam.size == cand.size
        assert is_p_core(lam, p)
        assert is_p_regular(lam, p)


def test_candidate_sizes_are_distinct_at_maximum():
    sizes = sorted(c.size for c in _collect(5))
    assert sizes[-1] == 198
    assert sizes[-2] < 198


def test_longest_walk_dp_frozen():
    r = longest_walk_dp(3)
    assert (r.length, r.count, r.m) == (3, 1, (2, 1))
    assert longest_walk_dp(5).m == (4, 2, 2, 3)
    assert longest_walk_dp(13).length == int(lambda_profile(13).m[1:].sum())


@pytest.mark.parametrize("p", primes_in_range(3, 60))
def test_longest_walk_dp_matches_profile(p):
    r = longest_walk_dp(p)
    prof = lambda_profile(p)
    assert r.count == 1
    assert r.m == tuple(prof.m[1:].tolist())


def test_longest_walk_dp_caps():
    with pytest.raises(ValueError):
        longest_walk_dp(521)
    with pytest.raises(ValueError):
        longest_walk_dp(2)


def test_longest_walk_dp_without_profile_comparison():
    assert longest_walk_dp(7, compare_profile=False).length == 25


def test_iter_partitions_matches_pentagonal_counts():
    counts = partition_counts(12)
    for n in range(13):
        assert sum(1 for _ in iter_partitions(n)) == counts[n]


def test_partition_counts_frozen():
    assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_iter_partitions_respects_max_part():
    assert list(iter_partitions(4, 2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(iter_partitions(0)) == [()]


def test_exhaustive_search_finds_the_known_maximum():
    r = exhaustive_partition_search(3, 16)
    assert r.partition.parts == (4, 2, 2, 1, 1)
    assert r.size == 10


def test_exhaustive_search_agrees_with_profile_at_p3():
    prof = lambda_profile(3)
    r = exhaustive_partition_search(3, prof.size)
    assert r.partition == profile_to_partition(prof)


def test_exhaustive_search_cap_semantics():
    # cap 9 excludes the true maximum of size 10; the best below is unique
    r = exhaustive_partition_search(3, 9)
    assert r.partition.parts == (4, 2, 1, 1)
    assert r.size == 8


def test_exhaustive_search_p2():
    r = exhaustive_partition_search(2, 3)
    assert r.partition.parts == (1,)
    assert r.size == 1


def test_exhaustive_search_tie_handling():
    # (4, 2) and (2, 2, 1, 1) are both maximal up to size 6
    with pytest.raises(UniquenessError, match="2 maximal candidates of size 6"):
        exhaustive_partition_search(3, 6)


def test_exhaustive_search_budget():
    with pytest.raises(ValueError):
        exhaustive_partition_search(3, 100)
    with pytest.raises(ValueError):
        exhaustive_partition_search(4, 5)


def test_empty_cap_returns_empty_partition():
    r = exhaustive_partition_search(3, 0)
    assert r.partition == Partition(())
    assert r.size == 0


def test_oracle_stays_apart_from_the_closed_form_pipeline():
    # the routes check the pipeline, so they may not reuse it; lambda_profile
    # is what compare_profile checks against and what the benchmark wraps here
    tree = ast.parse(Path(oracle.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = [node for node in imports if isinstance(node, ast.ImportFrom) and node.level]
    assert {node.module for node in relative} <= {"errors", "modarith", "partitions", "residue_walk"}
    taken = [alias.name for node in relative if node.module == "residue_walk" for alias in node.names]
    assert taken == ["lambda_profile"]
    # every route, the minimal-pair search included, runs without it but longest_walk_dp
    routes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "minimal_pair_direct" in routes
    readers = {name for name, node in routes.items() if "lambda_profile" in _names_read(node)}
    assert readers == {"longest_walk_dp"}
    absolute = [alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names]
    absolute += [node.module for node in imports if isinstance(node, ast.ImportFrom) and not node.level]
    assert not [name for name in absolute if name.split(".")[0] == "corewalk"]


def _names_read(node: ast.AST) -> set[str]:
    """Names, attributes and imported names that appear anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_pipeline_modules_hold_only_names_the_package_reaches():
    # a public top-level name of a pipeline module must be read somewhere in
    # the package outside its own definition; reference code lives in the oracle
    package = Path(oracle.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    unreached = []
    for module in ("residue_walk", "modarith", "bounds", "partitions"):
        for node in trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                continue
            others = [stmt for tree in trees.values() for stmt in tree.body if stmt is not node]
            elsewhere = set().union(*map(_names_read, others))
            unreached += [f"{module}.{name}" for name in sorted(defined - elsewhere) if not name.startswith("_")]
    assert unreached == []


def test_defaulted_parameters_are_passed_somewhere_in_the_package():
    # a parameter with a default must be passed by some call in the package (a
    # recursive self-call counts); one that only tests set is a module constant
    # the tests patch, the way they patch modarith._BLOCK
    package = Path(oracle.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    calls: dict[str, list[ast.Call]] = {}
    for node in (sub for tree in trees.values() for sub in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            calls.setdefault(name, []).append(node)
    unpassed = []
    for module in ("residue_walk", "modarith", "bounds", "partitions", "oracle"):
        for node in trees[module].body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            defaulted = [(arg.arg, index) for index, arg in enumerate(positional) if index >= first]
            defaulted += [
                (arg.arg, None) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default
            ]
            for param, index in defaulted:
                if not any(
                    (index is not None and len(call.args) > index) or param in {kw.arg for kw in call.keywords}
                    for call in calls.get(node.name, [])
                ):
                    unpassed.append(f"{module}.{node.name}({param})")
    assert unpassed == []
