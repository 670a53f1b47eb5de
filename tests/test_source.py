"""Checks over the package source itself."""

import ast
import importlib
from pathlib import Path

import pytest

import torsiondeg

SOURCES = sorted(Path(torsiondeg.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"families.py", "gl2.py", "cli.py"}


def test_no_assert_statements_in_the_package():
    # invariant checks must survive python -O, which strips asserts
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _definitions(names):
    """Where the package defines a function or class of one of the names."""
    return [f"{path.name}:{node.lineno} {node.name}"
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in names]


def test_no_scalar_matrix_kernel_in_the_package():
    # one GL2 arithmetic kernel: per-key copies live only in the test oracles
    assert _definitions({"key_mul", "key_inv", "key_pow", "key_is_scalar",
                         "Mat2"}) == []


def test_one_row_table_kernel_in_the_package():
    # every product with a fixed right factor takes gl2._right_mul over a
    # gl2._row_table; the component product stays where both factors vary
    assert [entry.split()[1] for entry in _definitions(
        {"_row_table", "_right_mul"})] == ["_row_table", "_right_mul"]
    assert all(entry.startswith("gl2.py:") for entry in _definitions(
        {"_row_table", "_right_mul"}))


def test_one_line_action_kernel_in_the_package():
    # every reader of the line action takes gl2._line_images rows; the
    # scalar line permutation lives only in the test oracles
    assert _definitions({"Line", "all_lines", "line_permutation",
                         "stabilized_lines", "_fixed_lines_for_generators",
                         "_stabilized_line_pair_for_generators"}) == []


def test_one_spread_kernel_in_the_package():
    # the budget and density paths share the block-major
    # families._spread_block; the whole-table _spread_up is gone and the
    # two-array _spread_max lives only in the test oracles
    defined = [f"{path.name} {node.name}"
               for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_spread")]
    assert defined == ["families.py _spread_block"]
    assert not any("_spread_up" in path.read_text(encoding="utf-8")
                   for path in SOURCES)


def test_no_shift_table_in_the_package():
    # the cutoff search walks uint8 codes of the largest prime shift over
    # the blocks of families._lifted_blocks; no table of shifts is kept
    assert not any("_max_prime_shift" in path.read_text(encoding="utf-8")
                   for path in SOURCES)


def test_no_hashlib_import_in_the_package():
    # importing hashlib maps OpenSSL's libcrypto; the package takes the
    # same blake2b from _blake2
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import)
             and any(alias.name == "hashlib" for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "hashlib"]
    assert found == []


def test_one_class_registry_in_the_package():
    # every census deduplicates by fingerprint buckets and the companion
    # basis conjugacy test; the conjugate-digest table, the transporter
    # nullspace, the scalar-coset tables and the projective-center test
    # are gone, and blake2b names only fingerprints (gl2)
    banned = ("_digest", "_nullspace_mod", "mod_scalars",
              "_projective_center_trivial")
    found = [f"{path.name} {name}" for path in SOURCES
             for name in banned if name in path.read_text(encoding="utf-8")]
    assert found == []
    importers = [path.name
                 for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and any(alias.name == "blake2b" for alias in node.names)]
    assert importers == ["gl2.py"]


def test_one_normalizer_in_the_package():
    # N(H) is the transporter of H to itself: _enumeration.normalizer
    # shares its candidate test with conjugate_subgroups, and the
    # whole-group component table and the census's per-class normalizer
    # masks are gone
    assert _definitions({"_FullContext", "_Census"}) == []
    assert [entry.split(":")[0] for entry in _definitions(
        {"normalizer", "_transports"})] == ["_enumeration.py"] * 2
    callers = sorted(func.name
                     for path in SOURCES
                     for func in ast.walk(ast.parse(path.read_text("utf-8")))
                     if isinstance(func, ast.FunctionDef)
                     and any(isinstance(call, ast.Call)
                             and ast.unparse(call.func) == "_transports"
                             for call in ast.walk(func)))
    assert callers == ["conjugate_subgroups", "normalizer"]


def test_one_progression_sieve_in_the_package():
    # only families._progression_blocks sieves the progressions t s + 1,
    # so only it takes the primes up to a square root; density_upto and
    # the cutoff search's _code_histogram both read its blocks
    assert not any("_prime_shifts" in path.read_text(encoding="utf-8")
                   for path in SOURCES)
    sievers = [f"{path.name} {func.name}"
               for path in SOURCES
               for func in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(func, ast.FunctionDef)
               and any(isinstance(call, ast.Call)
                       and ast.unparse(call.func).endswith(("primes_array",
                                                            "primes_upto"))
                       and any(root in ast.unparse(call)
                               for root in ("isqrt", "_sieving_root"))
                       for call in ast.walk(func))]
    assert sievers == ["families.py _progression_blocks"]


def test_one_clause_protocol_in_the_package():
    # every clause class writes its JSON kind once (KIND) and drives a
    # walk only through walker(x); a spec orders clauses by class
    # position, so nothing outside its check dispatches on clause type
    from torsiondeg import families

    for banned in ("_clause_sort_key", ".steps("):
        assert not any(banned in path.read_text(encoding="utf-8")
                       for path in SOURCES), banned
    text = Path(families.__file__).read_text(encoding="utf-8")
    for cls in families._CLAUSES:
        assert text.count(f'"{cls.KIND}"') == 1, cls.KIND
        assert callable(cls.walker) and not hasattr(cls, "mark")
    names = {cls.__name__ for cls in families._CLAUSES} | {"_CLAUSES"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node)
                   for spec in ast.walk(tree)
                   if isinstance(spec, ast.ClassDef)
                   and spec.name == "IntegerSetSpec"
                   for method in spec.body
                   if isinstance(method, ast.FunctionDef)
                   and method.name == "__post_init__"
                   for node in ast.walk(method)}
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and ast.unparse(node.func) == "isinstance"
                  and any(getattr(name, "id", getattr(name, "attr", None))
                          in names for name in ast.walk(node.args[1]))]
    assert found == []


def test_no_fixed_j_degree_stubs_in_the_package():
    # a budget profile is (p2_c, p1_rule), all that the budget reads; the
    # growth-bound exponent searches, the exceptional prime bounds and the
    # torsion reach had no caller and are gone, and no file form names them
    banned = ("merelian_B", "si_prime_cutoff", "bound_from_template",
              "p1_exponent_merelian", "p1_exponent_j_field",
              "exponent_to_order_bound", "exceptional_prime_bound",
              "torsion_reach", "validate_profile")
    found = [f"{path.name} {name}" for path in SOURCES
             for name in banned if name in path.read_text(encoding="utf-8")]
    assert found == []


def _add_parser_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_parser"]


def test_commands_are_declared_only_in_the_table():
    # one way to declare a CLI command: the parser loop over cli.COMMANDS
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    everywhere = [name for name, tree in trees.items()
                  for _ in _add_parser_calls(tree)]
    in_loop = [loop for loop in ast.walk(trees["cli.py"])
               if isinstance(loop, ast.For)
               and "COMMANDS" in ast.unparse(loop.iter)
               and _add_parser_calls(loop)]
    assert everywhere == ["cli.py"] and len(in_loop) == 1


def test_public_names_resolve_to_their_submodule_objects():
    # the package resolves its names lazily; each is the very object its
    # defining submodule holds
    for name in torsiondeg.__all__:
        obj = getattr(torsiondeg, name)
        if name == "__version__":
            continue
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("torsiondeg."), name
        assert getattr(module, name) is obj, name
    assert set(torsiondeg.__all__) <= set(dir(torsiondeg))
    namespace = {}
    exec("from torsiondeg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(torsiondeg.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        torsiondeg.no_such_name
    assert not hasattr(torsiondeg, "primes_array")  # not exported
