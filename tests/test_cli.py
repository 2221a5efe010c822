import argparse
import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

from fixspace import bounds, linalg, matrep, perm
from fixspace.cli import (EVALUATORS, ManifestParse, _claim_seed, build_parser, main,
                          parse_manifest)
from fixspace.perm import builtin_group_names

DATA = "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_phi_records(capsys):
    code, out, _ = run(capsys, "phi", "4", "2", "--format", "records")
    assert code == 0
    assert out == "n = 4\nq = 2\nphi_star = 5\n"


def test_phi_plain_has_human_section(capsys):
    code, out, _ = run(capsys, "phi", "6", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == ""
    assert lines[-1] == "phi_star = 1"


def test_phi_overflow_is_a_range_error(capsys):
    code, out, err = run(capsys, "phi", "40", "3")
    assert (code, out, err) == (2, "", "error: q^n = 3^40 is at least 2^62\n")


def test_table_records(capsys):
    code, out, _ = run(capsys, "table", "--group", "S3", "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["group"] == "S3"
    assert rec["order"] == "6"
    assert rec["classes"] == "3"
    assert rec["degrees"] == "1,1,2"
    assert rec["character_0"].startswith("1:")


# every subcommand's options as (default, required, nargs), positionals
# included by name
SURFACE = {
    "table": {"--format": ("plain", False, None), "--group": (None, True, None)},
    "triples": {"--format": ("plain", False, None), "--group": (None, True, None),
                "--seed": (None, True, None), "--budget": (100000, False, None),
                "--p": (None, True, None), "--orders": (None, False, None)},
    "exhaustive": {"--format": ("plain", False, None), "--group": (None, True, None),
                   "--p": (None, True, None)},
    "pairs": {"--format": ("plain", False, None), "--group": (None, True, None),
              "--seed": (None, True, None), "--budget": (100000, False, None),
              "--p": (None, True, None), "--order": (None, False, None)},
    "bounds": {"--format": ("plain", False, None), "--module": (None, True, None),
               "--matgroup": (None, False, None)},
    "scott": {"--format": ("plain", False, None), "--module": (None, True, None),
              "--matgroup": (None, False, None), "--seed": (None, True, None),
              "--pairs": (1000, False, None)},
    "weights": {"--format": ("plain", False, None), "--type": (None, True, None),
                "--weight": (None, True, None)},
    "phi": {"--format": ("plain", False, None), "n": (None, True, None),
            "q": (None, True, None)},
    "verify": {"--format": ("plain", False, None), "--seed": (None, True, None),
               "--manifest": (None, True, None)},
}


def test_subcommand_surface_is_pinned():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(subs) == sorted(SURFACE)
    for name, sub in subs.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        got = {(a.option_strings[0] if a.option_strings else a.dest):
               (a.default, a.required, a.nargs) for a in actions}
        assert got == SURFACE[name], name
        assert all(len(a.option_strings) <= 1 for a in actions), name
        assert next(a for a in actions if a.dest == "format").choices == (
            "plain", "records"), name
        positionals = [a.dest for a in actions if not a.option_strings]
        assert positionals == (["n", "q"] if name == "phi" else []), name


@pytest.mark.parametrize("argv", [
    ["table", "--group", "A5"],
    ["triples", "--group", "A5", "--p", "2", "--seed", "1"],
    ["exhaustive", "--group", "A5", "--p", "5"],
    ["verify", "--manifest", f"{DATA}/claims.manifest", "--seed", "1"],
], ids=["table", "triples", "exhaustive", "verify"])
def test_no_cache_dir_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    assert "--cache-dir" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-dir", "d"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("unrecognized arguments: --cache-dir d\n")


def test_triples_exhaustive_proved_none(capsys):
    code, out, _ = run(capsys, "exhaustive", "--group", f"{DATA}/A5.grp",
                       "--p", "5", "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["mode"] == "exhaustive"
    assert rec["verdict"] == "proved_none"
    assert int(rec["generation_tests"]) >= 0


def test_triples_exhaustive_witness(capsys):
    code, out, _ = run(capsys, "exhaustive", "--group", "A5", "--p", "2",
                       "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["verdict"] == "exists_with_witness"
    assert "orders" in rec


def test_triples_random_needs_seed(capsys):
    err = unrecognized(capsys, "triples", "--group", "A5", "--p", "2")
    assert err.endswith("error: the following arguments are required: --seed")


def test_triples_random_found(capsys):
    code, out, _ = run(capsys, "triples", "--group", "A5", "--p", "2",
                       "--seed", "1", "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["verdict"] == "found"
    assert rec["mode"] == "random"
    assert set("xyz") <= set(rec)
    assert rec["subgroup_order"] == "60"
    assert all(int(o) % 2 == 1 for o in rec["orders"].split(","))


def test_triples_random_not_found_exit(capsys):
    code, out, _ = run(capsys, "triples", "--group", "A5", "--p", "5",
                       "--seed", "1", "--budget", "200", "--format", "records")
    assert code == 1
    assert records(out)["verdict"] == "not_found"


def test_triples_orders_filter(capsys):
    code, out, _ = run(capsys, "triples", "--group", "A6", "--p", "3",
                       "--seed", "2", "--orders", "4,4,4", "--format", "records")
    assert code == 0
    assert records(out)["orders"] == "4,4,4"


def test_pairs_found(capsys):
    code, out, _ = run(capsys, "pairs", "--group", "A5", "--p", "5",
                       "--seed", "1", "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["verdict"] == "found"
    assert {"x", "h", "y", "order"} <= set(rec)


def test_pairs_order_filter(capsys):
    code, out, _ = run(capsys, "pairs", "--group", "A12", "--p", "3",
                       "--seed", "3", "--order", "11", "--format", "records")
    assert code == 0
    assert records(out)["order"] == "11"


def test_bounds_mersenne(capsys):
    code, out, _ = run(capsys, "bounds", "--module", f"{DATA}/mersenne7.mod",
                       "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["min_semisimple_fixdim"] == "3"
    assert rec["dim"] == "7"
    assert rec["p"] == "7"
    assert rec["holds"] == "yes"
    assert rec["clause_half_strict"] == "pass"
    assert rec["clause_coprime_order_third"] == "skip"


def test_bounds_with_matgroup(capsys):
    code, out, _ = run(capsys, "bounds", "--module", f"{DATA}/sym2_sl2_5.mod",
                       "--matgroup", f"{DATA}/sl2_5.mat", "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["min_semisimple_fixdim"] == "1"
    assert rec["holds"] == "yes"


def test_bounds_rejects_reducible(tmp_path, capsys):
    mod = tmp_path / "perm.mod"
    mod.write_text("(perm A5 :field (gf 7))\n")
    code, _, err = run(capsys, "bounds", "--module", str(mod))
    assert code == 2
    assert "reducible" in err


@pytest.mark.parametrize("text", [
    "(deleted (perm A5) :field (gf 7)",
    "(deleted (perm A5) :field)",
    "",
])
def test_bounds_malformed_module_exits_cleanly(tmp_path, capsys, text):
    mod = tmp_path / "bad.mod"
    mod.write_text(text)
    code, out, err = run(capsys, "bounds", "--module", str(mod))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["bounds"], ["scott", "--seed", "1"]])
def test_deep_nesting_is_a_load_error(tmp_path, capsys, argv):
    # 1,500 nested forms and a gen line 100,000 brackets deep once
    # overflowed the recursive parsers with a traceback
    depth = 1500
    (tmp_path / "deep.mod").write_text(
        "(dual " * depth + "(deleted (perm A5) :field (gf 7))" + ")" * depth + "\n")
    (tmp_path / "deep.mat").write_text(
        "matgroup T field 5 dim 2\ngen " + "[" * 10 ** 5 + "]" * 10 ** 5 + "\n")
    err = rejected(capsys, *argv, "--module", str(tmp_path / "deep.mod"))
    assert err == "error: module recipe nests forms deeper than 100\n"
    err = rejected(capsys, *argv, "--module", f"{DATA}/sym2_sl2_5.mod",
                   "--matgroup", str(tmp_path / "deep.mat"))
    assert err == "error: gen line nests deeper than a matrix\n"


def refuse_to_build(*args):
    raise AssertionError("built an object past its size cap")


def test_group_file_degree_above_the_cap_is_a_load_error(tmp_path, capsys, monkeypatch):
    # a degree of 10^11 once ended in a MemoryError from perm_from_cycles
    monkeypatch.setattr(perm, "perm_from_cycles", refuse_to_build)
    (tmp_path / "big.grp").write_text("group big\ndegree 100000000000\ngen (1,2)\n")
    err = rejected(capsys, "table", "--group", str(tmp_path / "big.grp"))
    assert err == ("error: group file line 2 'degree 100000000000': "
                   "degree exceeds cap 1000000\n")


# Sym^30 of the 7-dimensional A8 module lists 1.9M monomials; the cube of
# the 11-dimensional A12 module once ran for minutes in `bounds`
@pytest.mark.parametrize("recipe, dim", [
    ("(sym 30 (deleted (perm A8)) :field (gf 11))", 1947792),
    ("(tensor (tensor (deleted (perm A12)) (deleted (perm A12))) "
     "(deleted (perm A12)) :field (gf 13))", 1331),
], ids=["sym", "tensor"])
@pytest.mark.parametrize("argv", [["bounds"], ["scott", "--seed", "1"]])
def test_module_dimension_above_the_cap_is_a_load_error(tmp_path, capsys, monkeypatch,
                                                        argv, recipe, dim):
    monkeypatch.setattr(matrep, "_compile_sym", refuse_to_build)
    monkeypatch.setattr(linalg, "kron", refuse_to_build)
    (tmp_path / "big.mod").write_text(recipe + "\n")
    err = rejected(capsys, *argv, "--module", str(tmp_path / "big.mod"))
    assert err == f"error: module dimension {dim} exceeds MAX_DIM = 1000\n"


# a 1-dimensional module keeps dimension C(s, s) = 1 at any power s, but its
# image takes s steps: this one once ran without end
@pytest.mark.parametrize("argv", [["bounds"], ["scott", "--seed", "1"]])
def test_symmetric_power_above_the_cap_is_a_load_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(matrep, "_compile_sym", refuse_to_build)
    (tmp_path / "big.mod").write_text(
        "(sym 100000000 (section (perm A5) :mode quotient :field (gf 7)))\n")
    err = rejected(capsys, *argv, "--module", str(tmp_path / "big.mod"))
    assert err == "error: symmetric power 100000000 exceeds MAX_DIM = 1000\n"


def test_bounds_malformed_matgroup_exits_cleanly(tmp_path, capsys):
    mat = tmp_path / "bad.mat"
    mat.write_text("matgroup T field 5\ngen [[1,1],[0,1]]\ngen [[0,1],[4,0]]\n")
    code, out, err = run(capsys, "bounds", "--module", f"{DATA}/sym2_sl2_5.mod",
                         "--matgroup", str(mat))
    assert code == 2
    assert out == ""
    assert err == "error: matgroup header 'matgroup T field 5' has no dim\n"


def test_scott_sweep_reports_a_violation(capsys, monkeypatch):
    # seed 2 draws one pair whose fixed dimensions exceed n, so _scott runs
    # once; made to fail, the sweep counts it and exits 1
    calls, scott = [], bounds._scott
    monkeypatch.setattr(bounds, "_scott", lambda *args: calls.append(args) or
                        scott(*args)._replace(holds=False))
    code, out, _ = run(capsys, "scott", "--module", f"{DATA}/mersenne3.mod",
                       "--seed", "2", "--pairs", "1", "--format", "records")
    rec = records(out)
    assert (code, len(calls), rec["violations"], rec["holds"]) == (1, 1, "1", "no")


def test_scott_sweep(capsys):
    code, out, _ = run(capsys, "scott", "--module", f"{DATA}/mersenne3.mod",
                       "--seed", "4", "--pairs", "50", "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["pairs"] == "50"
    assert rec["violations"] == "0"
    assert rec["holds"] == "yes"


# parameters an evaluator cannot honour exit 2 with one error line ----------


def rejected(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


@pytest.fixture
def no_search(monkeypatch):
    """Searches that fail the test if they start: a rejected parameter must
    stop the evaluator first."""
    from fixspace import gensearch

    def refuse(*args, **kwargs):
        raise AssertionError("search started on a parameter it cannot honour")

    for name in ("find_triple", "find_conjugate_pair", "exhaustive_triple_search"):
        monkeypatch.setattr(gensearch, name, refuse)


@pytest.mark.parametrize("pairs", ["-5", "0"])
def test_scott_rejects_pairs_below_one(capsys, pairs):
    err = rejected(capsys, "scott", "--module", f"{DATA}/mersenne3.mod",
                   "--seed", "4", "--pairs", pairs)
    assert f"pairs must be at least 1, got {pairs}" in err


@pytest.mark.parametrize("p", ["2", "3", "5", "7", "11"])
def test_bounds_rejects_p_other_than_field_characteristic(capsys, p):
    # p is the characteristic of the module's field: `bounds` takes no --p,
    # not even the right one
    with pytest.raises(SystemExit) as info:
        main(["bounds", "--module", f"{DATA}/mersenne7.mod", "--p", p])
    assert info.value.code == 2
    assert f"unrecognized arguments: --p {p}" in capsys.readouterr().err


def test_bounds_rejects_module_it_cannot_decide(tmp_path, capsys):
    # C3 on GF(2)^2 is irreducible but not absolutely irreducible: the
    # irreducibility search finds no verdict
    (tmp_path / "c3.mat").write_text("matgroup C3 field 2 dim 2\ngen [[0,1],[1,1]]\n")
    (tmp_path / "c3.mod").write_text("(explicit C3)\n")
    err = rejected(capsys, "bounds", "--module", str(tmp_path / "c3.mod"),
                   "--matgroup", str(tmp_path / "c3.mat"))
    assert "no verdict after" in err


def test_bounds_rejects_trivial_action(tmp_path, capsys):
    # the section resolves to the line of the all-ones vector, p = 5
    (tmp_path / "triv.mod").write_text("(section (deleted (perm A5)) :field (gf 5))\n")
    err = rejected(capsys, "bounds", "--module", str(tmp_path / "triv.mod"))
    assert err == "error: the group acts trivially on the module of dimension 1\n"


@pytest.mark.parametrize("recipe, err", [
    ("(sym 3 (perm S3) :field (gf 2 8))", "error: module of dimension 10 is reducible\n"),
    ("(section (sym 3 (perm S3)) :field (gf 2 8))",
     "error: the group acts trivially on the module of dimension 1\n"),
    ("(section (sym 3 (perm S3)) :field (gf 2 8) :mode quotient)",
     "error: module of dimension 9 is reducible\n"),
])
def test_bounds_decides_reducible_modules_over_gf256(tmp_path, capsys, recipe, err):
    # over GF(256) a random group-algebra element is rarely singular: the
    # irreducibility test finds its verdict on draws shifted by an eigenvalue
    (tmp_path / "m.mod").write_text(recipe + "\n")
    assert rejected(capsys, "bounds", "--module", str(tmp_path / "m.mod")) == err


def test_bounds_rejects_extension_field_above_table_cap(tmp_path, capsys):
    # GF(3^6) has 729 elements; linalg's tables stop at 256
    (tmp_path / "big.mod").write_text("(deleted (perm A5) :field (gf 3 6))\n")
    err = rejected(capsys, "bounds", "--module", str(tmp_path / "big.mod"))
    assert err == "error: modules over GF(3^6) are not supported: q = 729 exceeds 256\n"


def test_unknown_names_print_without_quotes(tmp_path, capsys):
    err = rejected(capsys, "table", "--group", "C2")
    assert err == f"error: unknown builtin group 'C2'; known: {builtin_group_names()}\n"
    (tmp_path / "foo.mod").write_text("(explicit FOO)\n")
    err = rejected(capsys, "bounds", "--module", str(tmp_path / "foo.mod"))
    assert err == "error: unknown matrix group 'FOO'\n"


@pytest.mark.parametrize("argv", [
    ["triples", "--group", "A5", "--p", "4", "--seed", "1"],
    ["exhaustive", "--group", "A5", "--p", "4"],
    ["triples", "--group", "A5", "--p", "1", "--seed", "1"],
    ["pairs", "--group", "A5", "--p", "1", "--seed", "1"],
    ["pairs", "--group", "A5", "--p", "6", "--seed", "1"],
])
def test_searches_reject_non_prime_p(capsys, no_search, argv):
    assert "p must be a prime" in rejected(capsys, *argv)


# a prime near 2^61: trial division would take about 10^9 steps, so each
# entry point must refuse it on its range check first
BIG_P = 2305843009213693951


def run_child(tmp_path, *argv):
    """`python -m fixspace.cli argv` in a child process that must end."""
    return subprocess.run([sys.executable, "-m", "fixspace.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=20)


@pytest.mark.parametrize("argv, err", [
    (["triples", "--group", "A5", "--p", str(BIG_P), "--seed", "1"],
     f"error: p must be below 2**31, got {BIG_P}\n"),
    (["pairs", "--group", "A5", "--p", str(BIG_P), "--seed", "1"],
     f"error: p must be below 2**31, got {BIG_P}\n"),
    (["exhaustive", "--group", "A5", "--p", str(BIG_P)],
     f"error: p must be below 2**31, got {BIG_P}\n"),
    (["phi", "2", str(BIG_P)], f"error: q^n = {BIG_P}^2 is at least 2^62\n"),
    (["bounds", "--module", "big.mod"],
     f"error: characteristic must be a prime below 2**31, got {BIG_P}\n"),
    (["bounds", "--module", "x.mod", "--matgroup", "big.mat"],
     f"error: characteristic must be a prime below 2**31, got {BIG_P}\n"),
    # q^n = 2^62 exactly is refused too
    (["phi", "31", "4"], "error: q^n = 4^31 is at least 2^62\n"),
])
def test_oversized_characteristic_is_refused_before_trial_division(tmp_path, argv, err):
    (tmp_path / "big.mod").write_text(f"(deleted (perm A5) :field (gf {BIG_P}))\n")
    (tmp_path / "big.mat").write_text(f"matgroup X field {BIG_P} dim 1\ngen [[1]]\n")
    (tmp_path / "x.mod").write_text("(explicit X)\n")
    done = run_child(tmp_path, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)


def test_oversized_characteristic_is_refused_in_process(capsys):
    # the child-process test above does not show in this process's coverage
    code, out, err = run(capsys, "pairs", "--group", "A5", "--p", str(BIG_P), "--seed", "1")
    assert (code, out, err) == (2, "", f"error: p must be below 2**31, got {BIG_P}\n")


def test_oversized_characteristic_in_a_claim_fails_it(tmp_path):
    path = write_manifest(tmp_path, f"""\
        [triple]
        kind = triples
        group = A5
        p = {BIG_P}
        orders = 2,3,5
        expect = found
        provenance = derived
    """)
    done = run_child(tmp_path, "verify", "--manifest", path, "--seed", "1")
    assert done.returncode == 1
    assert done.stdout.splitlines()[0] == (
        f"FAIL       triple: error: p must be below 2**31, got {BIG_P}")


def test_largest_supported_prime_still_runs(capsys):
    code, out, _ = run(capsys, "pairs", "--group", "A5", "--p", str(2**31 - 1),
                       "--seed", "1", "--format", "records")
    assert code == 0 and records(out)["p"] == str(2**31 - 1)


@pytest.mark.parametrize("orders", ["3,5", "3,5,5,5"])
def test_triples_reject_orders_without_three_entries(capsys, no_search, orders):
    err = rejected(capsys, "triples", "--group", "A5", "--p", "2", "--seed", "1",
                   "--orders", orders)
    assert "orders needs exactly 3 entries" in err


def unrecognized(capsys, *argv):
    """The usage error argparse gives an option the subcommand lacks, or a
    required one that is missing."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


# the exhaustive sweep is a subcommand of its own: it has no orders filter
def test_triples_reject_orders_with_exhaustive(capsys, no_search):
    err = unrecognized(capsys, "exhaustive", "--group", "A5", "--p", "2",
                       "--orders", "3,5,5")
    assert err.endswith("error: unrecognized arguments: --orders 3,5,5")


# the sweep draws nothing: it has no seed or budget, the default budget's
# value included
@pytest.mark.parametrize("flag, value", [
    ("--seed", "1"), ("--seed", "7"), ("--budget", "100000"), ("--budget", "5"),
])
def test_triples_reject_seed_and_budget_with_exhaustive(capsys, no_search, flag, value):
    err = unrecognized(capsys, "exhaustive", "--group", "A5", "--p", "5", flag, value)
    assert err.endswith(f"error: unrecognized arguments: {flag} {value}")


@pytest.mark.parametrize("argv", [
    ["triples", "--group", "A5", "--p", "2", "--seed", "1", "--orders", "2,3,5"],
    ["triples", "--group", "A5", "--p", "2", "--seed", "1", "--orders", "0,3,5"],
    ["triples", "--group", "A5", "--p", "3", "--seed", "1", "--orders", "5,5,-1"],
    ["pairs", "--group", "A5", "--p", "2", "--seed", "1", "--order", "4"],
    ["pairs", "--group", "A5", "--p", "5", "--seed", "1", "--order", "-3"],
], ids=["orders-p-divides", "orders-zero", "orders-negative", "order-p-divides",
        "order-negative"])
def test_searches_reject_orders_no_p_prime_element_has(capsys, no_search, argv):
    assert "an element order must be at least 1 and prime to p" in rejected(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ["pairs", "--group", "A5", "--p", "2", "--seed", "1", "--order", "7"],
    ["triples", "--group", "A5", "--p", "2", "--seed", "1", "--orders", "3,3,7"],
    ["triples", "--group", f"{DATA}/A5.grp", "--p", "2", "--seed", "1",
     "--orders", "3,5,9"],
], ids=["pair-order-7", "triple-orders-3-3-7", "grp-file-orders-3-5-9"])
def test_searches_reject_orders_not_dividing_the_group_order(capsys, no_search, argv):
    order = argv[-1].split(",")[-1]
    err = rejected(capsys, *argv)
    assert f"no element has order {order}, which does not divide |G| = 60" in err


@pytest.mark.parametrize("argv", [
    ["pairs", "--group", "A5", "--p", "3", "--seed", "1", "--order", "4"],
    ["triples", "--group", "A6", "--p", "5", "--seed", "1", "--orders", "6,6,6"],
    ["triples", "--group", f"{DATA}/A5.grp", "--p", "2", "--seed", "1",
     "--orders", "3,5,15"],
    # |A8| = 20,160 is past the exhaustive cap but within the class cap
    ["pairs", "--group", "A8", "--p", "5", "--seed", "1", "--order", "12"],
], ids=["pair-order-4", "triple-orders-6-6-6", "grp-file-orders-3-5-15",
        "a8-order-12"])
def test_searches_reject_composite_orders_no_class_has(capsys, no_search, argv):
    # each divides |G| but no element has it; a prime dividing |G| always
    # has an element (Cauchy), so only composite orders are looked up
    order = argv[-1].split(",")[-1]
    assert f"no element has order {order}: no class of G" in rejected(capsys, *argv)


def test_manifest_claims_reject_composite_orders_no_class_has(tmp_path, capsys):
    path = write_manifest(tmp_path, """\
        [pair-order-4]
        kind = pairs
        group = A5
        p = 3
        order = 4
        expect = found
        provenance = derived

        [triple-orders-6-6-6]
        kind = triples
        group = A6
        p = 5
        orders = 6,6,6
        expect = found
        provenance = derived
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path, "--seed", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == ("FAIL       pair-order-4: error: no element has order 4: "
                        "no class of G (|G| = 60) has it")
    assert lines[1] == ("FAIL       triple-orders-6-6-6: error: no element has "
                        "order 6: no class of G (|G| = 360) has it")


@pytest.mark.parametrize("argv", [
    ["triples", "--group", "A5", "--p", "2", "--seed", "1", "--budget", "-3"],
    ["pairs", "--group", "A5", "--p", "5", "--seed", "1", "--budget", "0"],
    ["pairs", "--group", "A5", "--p", "5", "--seed", "1", "--order", "0"],
], ids=["argv1", "argv3", "argv4"])   # fixed ids keep recorded test names valid
def test_searches_reject_counts_below_one(capsys, no_search, argv):
    assert "must be at least 1" in rejected(capsys, *argv)


def test_manifest_claims_get_the_parameter_checks(tmp_path, capsys):
    path = write_manifest(tmp_path, f"""\
        [scott]
        kind = scott
        module = {os.path.abspath(DATA)}/mersenne3.mod
        pairs = -5
        expect = zero-violations
        provenance = derived

        [triple]
        kind = triples
        group = A5
        p = 4
        expect = found
        provenance = derived

        [pair]
        kind = pairs
        group = A5
        p = 2
        order = 4
        expect = found
        provenance = derived

        [pair-order-7]
        kind = pairs
        group = A5
        p = 2
        order = 7
        expect = found
        provenance = derived

        [twist-p4]
        kind = twist-divisibility
        type = A1
        weight0 = 2
        weight1 = 1
        p = 4
        expect = holds
        provenance = derived

        [sym-p9]
        kind = sym-divisibility
        n = 3
        s = 2
        p = 9
        expect = holds
        provenance = derived
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path, "--seed", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == ("FAIL       scott: error: pairs must be at least 1, "
                        "got -5")
    assert lines[1] == "FAIL       triple: error: p must be a prime, got 4"
    assert lines[2] == ("FAIL       pair: error: an element order must be at "
                        "least 1 and prime to p = 2, got 4")
    assert lines[3] == ("FAIL       pair-order-7: error: no element has order 7, "
                        "which does not divide |G| = 60")
    assert lines[4] == "FAIL       twist-p4: error: p must be a prime, got 4"
    assert lines[5] == "FAIL       sym-p9: error: p must be a prime, got 9"


def test_weights_g2(capsys):
    code, out, _ = run(capsys, "weights", "--type", "G2", "--weight", "1,0",
                       "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["weyl_dim"] == "7"
    assert rec["entries"] == "7"
    assert rec["weight_3"] == "0,0:1"


def test_weights_bad_system_exits_cleanly(capsys):
    code, _, err = run(capsys, "weights", "--type", "E8", "--weight", "1")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# manifest parsing ----------------------------------------------------------


def test_parse_manifest_happy():
    claims = parse_manifest(textwrap.dedent("""\
        ; comment
        [first]
        kind = phi
        n = 4
        q = 2
        expect = 5
        provenance = derived

        [second]
        kind = exhaustive
        group = A5
        p = 5
        expect = proved_none
        provenance = paper
        anchor = the alternating group on five points at p = 5
    """))
    assert [c["id"] for c in claims] == ["first", "second"]
    assert claims[0]["expect"] == "5"
    assert claims[1]["anchor"].startswith("the alternating")


def test_parse_manifest_duplicate_id():
    text = "[a]\nkind = phi\nn = 4\nq = 2\nexpect = 5\nprovenance = derived\n[a]\n"
    with pytest.raises(ManifestParse) as info:
        parse_manifest(text)
    assert info.value.lineno == 7
    assert "duplicate" in str(info.value)


def test_parse_manifest_empty_id():
    with pytest.raises(ManifestParse, match="empty claim id") as info:
        parse_manifest("[ ]\nkind = phi\n")
    assert info.value.lineno == 1


def test_parse_manifest_key_outside_section():
    with pytest.raises(ManifestParse) as info:
        parse_manifest("kind = phi\n")
    assert info.value.lineno == 1


def test_parse_manifest_bad_kind():
    with pytest.raises(ManifestParse) as info:
        parse_manifest("[x]\nkind = sorcery\nexpect = 1\nprovenance = derived\n")
    assert "bad kind" in str(info.value)


A6_TRIPLE = ("[typo]\nkind = triples\ngroup = A6\np = 3\n{}\nexpect = found\n"
             "provenance = derived\n")
A5_EXCEPTION = ("[typo]\nkind = exhaustive\ngroup = A5\np = 5\n{}\n"
                "expect = proved_none\nprovenance = derived\n")
A1_TWIST = ("[typo]\nkind = twist-divisibility\ntype = A1\n"
            "weight0 = 2\nweight1 = 1\np = 5\n{}\nexpect = holds\nprovenance = derived\n")
# a module claim reads p off the module's field: a `p` key is unknown
F56_BOUND = "[typo]\nkind = bounds\nmodule = m.mod\n{}\nexpect = 3\nprovenance = derived\n"
F56_SHARP = ("[typo]\nkind = mersenne-sharp\nmodule = m.mod\n{}\n"
             "expect = 3\nprovenance = derived\n")


# fixed ids keep recorded test names valid
@pytest.mark.parametrize("template, kind, line, key", [
    (A6_TRIPLE, "triples", "oders = 4,4,4", "oders"),
    (A6_TRIPLE, "triples", "id = other", "id"),
    (A1_TWIST, "twist-divisibility", "ext = 2", "ext"),
    (A6_TRIPLE, "triples", "seed = 3", "seed"),
    (A6_TRIPLE, "triples", "exhaustive = yes", "exhaustive"),
    (A5_EXCEPTION, "exhaustive", "budget = 5", "budget"),
    (A5_EXCEPTION, "exhaustive", "orders = 3,3,5", "orders"),
    (A5_EXCEPTION, "exhaustive", "exhaustive = no", "exhaustive"),
    (F56_BOUND, "bounds", "p = 7", "p"),
    (F56_SHARP, "mersenne-sharp", "p = 7", "p"),
], ids=["oders = 4,4,4-oders", "id = other-id", "ext = 2-ext", "triple-seed",
        "triple-exhaustive", "exception-budget", "exception-orders",
        "exception-exhaustive", "bound-p", "mersenne-sharp-p"])
def test_parse_manifest_misspelled_key(template, kind, line, key):
    # `oders` in place of `orders` once ran an unrestricted search and passed
    text = template.format(line)
    with pytest.raises(ManifestParse) as info:
        parse_manifest(text)
    assert info.value.lineno == text.splitlines().index(line) + 1
    assert f"claim 'typo' of kind {kind} has unknown key {key!r}" in str(info.value)


@pytest.mark.parametrize("text, line", [
    (A6_TRIPLE.format("").replace("p = 3", "p = five"), "p = five"),
    (A6_TRIPLE.format("orders = 4,x"), "orders = 4,x"),
    (A1_TWIST.format("").replace("p = 5", "p = 5.0"), "p = 5.0"),
], ids=["p-five", "orders-4-x", "twist-p-5.0"])
def test_parse_manifest_value_that_does_not_convert(text, line):
    with pytest.raises(ManifestParse) as info:
        parse_manifest(text)
    key, _, value = line.partition(" = ")
    assert info.value.lineno == text.splitlines().index(line) + 1
    assert f"claim 'typo' has bad {key} {value!r}: invalid literal" in str(info.value)


@pytest.mark.parametrize("text, key", [
    (A6_TRIPLE.format("").replace("group = A6\n", ""), "group"),
    (A6_TRIPLE.format("").replace("p = 3\n", ""), "p"),
    (A1_TWIST.format("").replace("weight1 = 1\n", ""), "weight1"),
    ("[typo]\nkind = phi\nn = 4\nexpect = 5\nprovenance = derived\n", "q"),
], ids=["triple-group", "triple-p", "twist-weight1", "phi-q"])
def test_parse_manifest_missing_key(text, key):
    with pytest.raises(ManifestParse) as info:
        parse_manifest(text)
    assert info.value.lineno == 1
    assert str(info.value).endswith(f"claim 'typo' lacks {key}")


@pytest.mark.parametrize("text, lineno", [
    (A6_TRIPLE.format("").replace("p = 3", "p = five"), 4),
    (A6_TRIPLE.format("orders = 4,x"), 5),
    (A6_TRIPLE.format("").replace("group = A6\n", ""), 1),
], ids=["p-five", "orders-4-x", "missing-group"])
def test_verify_rejects_bad_value_at_load_time(tmp_path, capsys, text, lineno):
    path = write_manifest(tmp_path, text)
    assert f"manifest line {lineno}: " in rejected(capsys, "verify", "--manifest", path,
                                                  "--seed", "1")


def test_verify_rejects_misspelled_key_at_load_time(tmp_path, capsys):
    path = write_manifest(tmp_path, A6_TRIPLE.format("oders = 4,4,4"))
    err = rejected(capsys, "verify", "--manifest", path, "--seed", "1")
    assert "manifest line 5" in err and "'oders'" in err


def test_parse_manifest_repeated_key():
    with pytest.raises(ManifestParse) as info:
        parse_manifest(A6_TRIPLE.format("orders = 4,4,4\norders = 5,5,5"))
    assert info.value.lineno == 6
    assert "repeats key 'orders'" in str(info.value)


def test_parse_manifest_check_on_a_non_example_kind():
    # a claim's kind names its evaluator: `check` is no key of any kind
    with pytest.raises(ManifestParse) as info:
        parse_manifest(A6_TRIPLE.format("check = adjoint-section"))
    assert info.value.lineno == 5
    assert "unknown key 'check'" in str(info.value)


# an unknown or missing kind is refused at the claim's header, and so are a
# row with no PASS test (`verify`, `table`) and the names the kinds had
# before they took their evaluators' names
@pytest.mark.parametrize("kind", ["adjoint-sectoin", "example", None, "verify", "table",
                                  "triple", "pair", "exception", "bound"])
def test_parse_manifest_unknown_kind(kind):
    line = f"kind = {kind}\n" if kind else ""
    with pytest.raises(ManifestParse) as info:
        parse_manifest(f"\n[x]\n{line}expect = 1\nprovenance = derived\n")
    assert info.value.lineno == 2
    known = sorted(name for name, row in EVALUATORS.items() if row[3] is not None)
    assert str(info.value).endswith(f"claim 'x' has bad kind {kind!r}; "
                                    f"known: {', '.join(known)}")


def test_parse_manifest_missing_expect():
    with pytest.raises(ManifestParse) as info:
        parse_manifest("[x]\nkind = phi\nprovenance = derived\n")
    assert "lacks expect" in str(info.value)


def test_parse_manifest_paper_needs_anchor():
    with pytest.raises(ManifestParse) as info:
        parse_manifest("[x]\nkind = phi\nexpect = 1\nprovenance = paper\n")
    assert "anchor" in str(info.value)


def test_parse_manifest_bad_provenance():
    with pytest.raises(ManifestParse) as info:
        parse_manifest("[x]\nkind = phi\nexpect = 1\nprovenance = folklore\n")
    assert "provenance" in str(info.value)


def test_parse_manifest_unparseable_line():
    with pytest.raises(ManifestParse) as info:
        parse_manifest("[x]\nkind phi\n")
    assert info.value.lineno == 2


# the claim runner ----------------------------------------------------------


def write_manifest(tmp_path, body):
    path = tmp_path / "claims.manifest"
    path.write_text(textwrap.dedent(body))
    return str(path)


def test_verify_empty_manifest(tmp_path, capsys):
    path = write_manifest(tmp_path, "; nothing here\n")
    code, out, _ = run(capsys, "verify", "--manifest", path,
                       "--seed", "1", "--format", "records")
    assert code == 0
    rec = records(out)
    assert rec["total"] == "0"
    assert rec["failed"] == "0"


def test_verify_needs_seed(tmp_path, capsys):
    path = write_manifest(tmp_path, "")
    err = unrecognized(capsys, "verify", "--manifest", path)
    assert err.endswith("error: the following arguments are required: --seed")


def test_verify_missing_manifest(capsys):
    code, _, err = run(capsys, "verify", "--manifest", "no/such/file",
                       "--seed", "1")
    assert code == 2


def test_verify_pass_fail_unverified(tmp_path, capsys):
    path = write_manifest(tmp_path, """\
        [good-phi]
        kind = phi
        n = 4
        q = 2
        expect = 5
        provenance = derived

        [bad-phi]
        kind = phi
        n = 4
        q = 2
        expect = 6
        provenance = derived

        [too-big]
        kind = triples
        group = O7(3)
        p = 5
        expect = found
        provenance = paper
        anchor = a seven-dimensional orthogonal group triple
        scale = beyond-desk
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path, "--seed", "1")
    assert code == 1
    rec = records(out)
    assert rec["claim_good-phi"] == "PASS"
    assert rec["claim_bad-phi"] == "FAIL"
    assert rec["claim_too-big"] == "UNVERIFIED"
    assert rec["total"] == "3"
    assert rec["passed"] == "1"
    assert rec["failed"] == "1"
    assert rec["unverified"] == "1"
    assert "FAIL" in out and "phi_star = 5" in out


def test_verify_bound_claim_relative_module(tmp_path, capsys):
    (tmp_path / "m.mod").write_text("(deleted (perm F56) :field (gf 7))\n")
    path = write_manifest(tmp_path, """\
        [sharp]
        kind = bounds
        module = m.mod
        expect = 3
        provenance = derived
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path,
                       "--seed", "9", "--format", "records")
    assert code == 0
    assert records(out)["claim_sharp"] == "PASS"


def test_verify_wrong_bound_expectation_details(tmp_path, capsys):
    (tmp_path / "m.mod").write_text("(deleted (perm F56) :field (gf 7))\n")
    path = write_manifest(tmp_path, """\
        [sharp]
        kind = bounds
        module = m.mod
        expect = 2
        provenance = derived
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path, "--seed", "9")
    assert code == 1
    assert "min fixed dim 3" in out


def test_verify_crashing_claim_fails(tmp_path, capsys):
    path = write_manifest(tmp_path, """\
        [broken]
        kind = bounds
        module = missing.mod
        expect = 1
        provenance = derived
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path, "--seed", "1")
    assert code == 1
    assert "error:" in out


def test_verify_claim_errors_print_without_quotes(tmp_path, capsys):
    (tmp_path / "triv.mod").write_text("(section (deleted (perm A5)) :field (gf 5))\n")
    (tmp_path / "foo.mod").write_text("(explicit FOO)\n")
    path = write_manifest(tmp_path, """\
        [trivial]
        kind = bounds
        module = triv.mod
        expect = 1
        provenance = derived

        [unknown]
        kind = bounds
        module = foo.mod
        expect = 1
        provenance = derived
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path, "--seed", "1")
    assert code == 1
    assert "FAIL       trivial: error: the group acts trivially on the module " \
        "of dimension 1\n" in out
    assert "FAIL       unknown: error: unknown matrix group 'FOO'\n" in out


@pytest.fixture
def false_generation(monkeypatch):
    """Every subgroup claims order |G|: the known-order build the searches
    test generation with fails in the worst way."""
    monkeypatch.setattr(perm.PermGroup, "subgroup_order", lambda self, elems: self.order)


# S5 at p = 2 has no generating triple and no conjugate generating pair:
# its odd-order elements are even; under the fault the searches return
# ones that do not generate, and the independent check refuses each
@pytest.mark.parametrize("argv", [
    ["exhaustive", "--group", "S5", "--p", "2"],
    ["triples", "--group", "S5", "--p", "2", "--seed", "1"],
    ["pairs", "--group", "S5", "--p", "2", "--seed", "1"],
])
def test_a_faulty_generation_test_prints_no_certificate(capsys, false_generation, argv):
    err = rejected(capsys, *argv)
    assert err == "error: the certificate found fails the independent check\n"


def test_a_faulty_generation_test_fails_the_claim(tmp_path, capsys, false_generation):
    path = write_manifest(tmp_path, """\
        [s5-p2]
        kind = exhaustive
        group = S5
        p = 2
        expect = exists_with_witness
        provenance = derived
    """)
    code, out, _ = run(capsys, "verify", "--manifest", path, "--seed", "1")
    assert code == 1
    assert out.splitlines()[0] == (
        "FAIL       s5-p2: error: the certificate found fails the independent check")


def test_verify_byte_identical(tmp_path, capsys):
    path = write_manifest(tmp_path, """\
        [triple]
        kind = triples
        group = A5
        p = 2
        expect = found
        provenance = derived

        [pair]
        kind = pairs
        group = A5
        p = 5
        expect = found
        provenance = derived

        [eigen]
        kind = eigen-separation
        q = 9
        s = 2
        expect = distinct
        provenance = derived
    """)
    first = run(capsys, "verify", "--manifest", path, "--seed", "77")
    second = run(capsys, "verify", "--manifest", path, "--seed", "77")
    assert first == second
    assert first[0] == 0


# every subcommand-backed claim kind agrees with its subcommand --------------

# kind -> (claim keys, subcommand argv, PASS rule on the subcommand's records
# against expect, two expect values). The small budgets make the search
# verdicts depend on the seed: found for some master seeds, not for others.
MERSENNE3 = os.path.abspath(f"{DATA}/mersenne3.mod")
AGREEMENT = {
    "triples": ({"group": "A5", "p": "2", "budget": "3"},
                ["triples", "--group", "A5", "--p", "2", "--budget", "3"],
                lambda rec, expect: rec["verdict"] == expect,
                ("found", "not_found")),
    "pairs": ({"group": "A5", "p": "5", "order": "3", "budget": "2"},
              ["pairs", "--group", "A5", "--p", "5", "--order", "3", "--budget", "2"],
              lambda rec, expect: rec["verdict"] == expect,
              ("found", "not_found")),
    "exhaustive": ({"group": "A5", "p": "5"},
                   ["exhaustive", "--group", "A5", "--p", "5"],
                   lambda rec, expect: rec["verdict"] == expect,
                   ("proved_none", "exists_with_witness")),
    "bounds": ({"module": MERSENNE3},
               ["bounds", "--module", MERSENNE3],
               lambda rec, expect: (rec["min_semisimple_fixdim"] == expect
                                    and rec["holds"] == "yes"),
               ("1", "2")),
    "scott": ({"module": MERSENNE3, "pairs": "20"},
              ["scott", "--module", MERSENNE3, "--pairs", "20"],
              lambda rec, expect: rec["holds"] == "yes" and expect == "zero-violations",
              ("zero-violations", "one-violation")),
    "weights": ({"type": "B2", "weight": "1,1"},
                ["weights", "--type", "B2", "--weight", "1,1"],
                lambda rec, expect: rec["weyl_dim"] == expect == str(sum(
                    int(v.rsplit(":", 1)[1]) for k, v in rec.items()
                    if k.startswith("weight_"))),
                ("16", "15")),
    "phi": ({"n": "6", "q": "3"}, ["phi", "6", "3"],
            lambda rec, expect: rec["phi_star"] == expect,
            ("7", "13")),
}
SEEDED = ("triples", "pairs", "scott")
# the ids these tests were recorded under, before the kinds took their
# evaluators' names
RECORDED_IDS = {"triples": "triple", "pairs": "pair", "exhaustive": "exception",
                "bounds": "bound"}


def test_agreement_covers_every_kind_with_a_subcommand():
    assert set(AGREEMENT) == {name for name, (_, text, _, passes, _) in EVALUATORS.items()
                              if text is not None and passes is not None}


def test_data_manifest_kinds_are_rows_with_a_pass_test():
    with open(f"{DATA}/claims.manifest") as fh:
        kinds = {claim["kind"] for claim in parse_manifest(fh.read())}
    assert kinds <= {name for name, row in EVALUATORS.items() if row[3] is not None}
    assert {"triples", "pairs", "exhaustive", "bounds"} <= kinds


@pytest.mark.parametrize("master_seed", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(AGREEMENT),
                         ids=[RECORDED_IDS.get(k, k) for k in sorted(AGREEMENT)])
def test_verify_claim_agrees_with_subcommand(tmp_path, capsys, kind, master_seed):
    keys, argv, rule, expects = AGREEMENT[kind]
    if kind in SEEDED:
        argv = argv + ["--seed", str(_claim_seed(master_seed, 0))]
    _, out, _ = run(capsys, *argv, "--format", "records")
    rec = records(out)
    verdicts = set()
    for expect in expects:
        path = write_manifest(tmp_path, "[c]\n" + "".join(
            f"{k} = {v}\n" for k, v in {"kind": kind, **keys, "expect": expect,
                                        "provenance": "derived"}.items()))
        _, out, _ = run(capsys, "verify", "--manifest", path,
                        "--seed", str(master_seed), "--format", "records")
        want = "PASS" if rule(rec, expect) else "FAIL"
        assert records(out)["claim_c"] == want, (kind, expect, rec)
        verdicts.add(want)
    assert verdicts == {"PASS", "FAIL"}


# SHA-256 of the stdout of `fixspace verify --manifest data/claims.manifest
# --seed 42` in each format, recorded before the prime-field integer
# kernels of linalg went in. Every record and verdict of the manifest must
# stay byte-identical for a fixed seed; a change that alters any of them
# has to show why and record new digests here.
VERIFY_PINS = {
    "plain": "ef392e0c83f8f6af9c83e37cd554cfe9e545e853d8c388279df7fa2ec8f0a074",
    "records": "dc61d6efde2f2389f5b48964e6e9056465fd095ccebaaba6ebc4e8bc568b5536",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_PINS))
def test_verify_manifest_output_is_pinned(capsys, fmt):
    code, out, _ = run(capsys, "verify", "--manifest", f"{DATA}/claims.manifest",
                       "--seed", "42", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PINS[fmt]
