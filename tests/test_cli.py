"""End-to-end checks of the command line interface."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alcovecrystals import alcove, chains, cli, limits, verify
from alcovecrystals import crystalgraph as cg
from alcovecrystals import littelmann as lp
from alcovecrystals.cli import run
from alcovecrystals.rootsys import RootSystem

A2 = RootSystem.from_type("A2")
SRC = Path(__file__).resolve().parent.parent / "src"


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


def test_chain_text(capsys):
    assert run(["chain", "--type", "A2", "--weight", "1,1"]) == 0
    assert out_of(capsys) == "((α2, 0), (α1+α2, 0), (α1, 0), (α1+α2, 1))\n"


def test_chain_json(capsys):
    assert run(["chain", "--type", "A2", "--weight", "1,0", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert [e["root"] for e in doc] == [[1, 0], [1, 1]]
    assert [e["level"] for e in doc] == [0, 0]


def test_crystal_vertex_listing(capsys):
    assert run(["crystal", "--type", "A3", "--weight", "2,0,0", "--list-vertices"]) == 0
    assert out_of(capsys).splitlines() == [
        "[]",
        "[0]",
        "[3]",
        "[0, 1]",
        "[0, 4]",
        "[3, 4]",
        "[0, 1, 2]",
        "[0, 1, 5]",
        "[0, 4, 5]",
        "[3, 4, 5]",
    ]


def test_crystal_summary(capsys):
    assert run(["crystal", "--type", "A3", "--weight", "1,0,0"]) == 0
    assert out_of(capsys) == "vertices: 4\nedges: 3\ndimension: 4\n"


def test_binf_golden_walk(capsys):
    assert (
        run(
            [
                "binf",
                "--type",
                "A3",
                "--fstring",
                "2,1,3,2,2,1,3,2",
                "--show",
                "positions,weight,projection,hw-string",
            ]
        )
        == 0
    )
    assert out_of(capsys).splitlines() == [
        "positions: ((α2, -2), (α2+α3, -2), (α1+α2, -2), (α1+α2+α3, -2))",
        "weight: (0, -4, 0)",
        "projection: k = 2: ((α2, 0), (α2+α3, 2), (α1+α2, 2), (α1+α2+α3, 4))",
        "hw-string: [2, 1, 2, 1, 3, 2, 3, 2]",
    ]


def test_binf_defaults_and_json(capsys):
    assert run(["binf", "--type", "A2"]) == 0
    assert out_of(capsys) == "positions: ()\nweight: (0, 0)\n"
    assert run(["binf", "--type", "A2", "--fstring", "1", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["weight"] == [-2, 1]
    assert len(doc["positions"]) == 1


def test_project_minimal_and_explicit(capsys):
    assert run(["project", "--type", "A2", "--fstring", "1"]) == 0
    assert out_of(capsys) == "k = 1: ((α1, 0))\n"
    assert run(["project", "--type", "A2", "--fstring", "1", "--k", "2"]) == 0
    assert out_of(capsys) == "k = 2: ((α1, 1))\n"
    assert run(["project", "--type", "A2", "--fstring", "1", "--k", "0"]) == 0
    assert out_of(capsys) == "none\n"


LIFTS = [
    ("A2", 1, "1", "((α1, -1))"),
    ("B2", 1, "1,2,2", "((α1, -1), (α1+α2, -2))"),
    ("B2", 2, "1,2,2,1", "((α1, -1), (α1+α2, -2), (α1+2α2, -1))"),
    ("B2", 3, "2,1,2,1,1", "((α1, -2), (α2, -1), (α1+α2, -1))"),
    ("G2", 1, "2,1,1", "((α2, -1), (α1+α2, -2))"),
    ("G2", 2, "1,2,1,1,2", "((α1, -1), (3α1+α2, -1), (2α1+α2, -2), (3α1+2α2, -1))"),
    ("G2", 3, "1,2,2,1,1,1", "((α2, -1), (α1, -1), (2α1+α2, -3))"),
]


def test_lift_roundtrips_a_projection(capsys):
    # the word's element of B(k rho), lifted, is the word's element of
    # Al(infinity), whose projection at k it is
    for type_string, k, word, line in LIFTS:
        assert run(["lift", "--type", type_string, "--k", str(k), "--fstring", word]) == 0
        assert out_of(capsys) == f"{line}\n"
        assert run(["binf", "--type", type_string, "--fstring", word, "--show", "positions"]) == 0
        assert out_of(capsys) == f"positions: {line}\n"


def test_path_image_finite(capsys):
    assert run(["path-image", "--type", "A2", "--weight", "1,1"]) == 0
    assert out_of(capsys) == "finite: (-1, -1) for 1\n"
    assert run(["path-image", "--type", "A2", "--weight", "1,1", "--fstring", "1"]) == 0
    assert out_of(capsys) == "finite: (1, -2) for 1\n"


def test_path_image_infinity(capsys):
    assert run(["path-image", "--type", "A2", "--infinity"]) == 0
    assert out_of(capsys) == "co-extended: the rho ray then nothing\n"
    assert run(["path-image", "--type", "A2", "--infinity", "--fstring", "1"]) == 0
    assert out_of(capsys) == "co-extended: the rho ray then (-1, 2) for 1\n"
    assert run(["path-image", "--type", "A2", "--infinity", "--dual", "--estring", "1"]) == 0
    assert out_of(capsys) == "extended: (-1, 2) for 1 then the rho ray\n"


def test_path_image_json(capsys):
    assert run(
        ["path-image", "--type", "A2", "--weight", "1,1", "--format", "json"]
    ) == 0
    doc = json.loads(out_of(capsys))
    assert doc["kind"] == "finite"
    assert doc["segments"] == [{"velocity": ["-1", "-1"], "duration": "1"}]


def test_export_dot(capsys):
    assert run(["export", "--type", "A2", "--weight", "1,0", "--format", "dot"]) == 0
    text = out_of(capsys)
    assert text.startswith("digraph crystal {")
    assert text.count(" -> ") == 2


def test_export_json_window(capsys):
    assert run(
        ["export", "--type", "A2", "--infinity", "--depth", "2", "--format", "json"]
    ) == 0
    doc = json.loads(out_of(capsys))
    assert len(doc["nodes"]) == 7
    assert doc["complete"] is False


# SHA-256 of the export JSON as the enumeration of the library gave it when
# these digests were taken: any change to node order, labels, statistics or
# edges changes them.
EXPORT_DIGESTS = {
    "--type G2 --weight 2,1": "8a77d097d018c4fe81de967ce45653b3e3ef9debd9f321e239c68b261e5b0df9",
    "--type G2 --weight 2,1 --dual": "1419049c15f18780c83c2973333f308647b2a6c085fe7877f79e8a648bb5cc26",
    "--type A3 --weight 1,1,1 --dual": "4900482ed9efd1be6e2794d1c7e57878e5fb52d1bba5353f54fd3ef05e85db2e",
    "--type A2 --infinity --depth 4": "ebe5a8916eaabb657e9346332fe8b52fe680b3ca4baef8bcdcd8676f18aa1006",
    "--type A2 --infinity --depth 4 --dual": "24206487b642205834d5a7e540956b72f0e798dc9bfd19406ce5a844a6390dba",
    "--type G2 --infinity --depth 4": "3df5974165e52894934a1bea5b393019850aad12bf7113e9acff7ca8b6ea6ca0",
    "--type G2 --infinity --depth 4 --dual": "de94a8b66f87edf72815a72a2a947edc4d12f3041e57b10d5b0d6e85f9c629bf",
}


@pytest.mark.parametrize("args", list(EXPORT_DIGESTS))
def test_export_json_is_pinned_byte_for_byte(args, capsys):
    assert run(["export", *args.split(), "--format", "json"]) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == EXPORT_DIGESTS[args]


# SHA-256 of each subcommand's output, in each --format it takes, as the
# library gave it when these digests were taken: every command prints the
# document or the text it built, and nothing else.
OUTPUT_DIGESTS = {
    ("chain --type G2 --weight 2,1 --dual", "text"): "18ddd2fe16446fc32f85d8e87040b37d1f47c32fde6f2889f5267c4099d9df5f",
    ("chain --type G2 --weight 2,1 --dual", "json"): "e132e6d0a9f95cfac3df2bea0a2fac64d9644be152fe1c10bc7b12d4f3b08387",
    ("binf --type A3 --fstring 2,1,3,2,2,1,3,2 --show positions,weight,projection,hw-string", "text"): "b0a9b99acde297bddd7001ef9c9f20cd32f186711d60c28ce996d2c45c6504a3",
    ("binf --type A3 --fstring 2,1,3,2,2,1,3,2 --show positions,weight,projection,hw-string", "json"): "70c86d72e0f6b29ed15032e3d0efcfb660d02cfa788ffa184da58db6cdef2a15",
    ("project --type G2 --fstring 1,2,2,1,2", "text"): "af4372e2be35f94e4d39b83775fcf71ee2d4429a41cbf9997d27ca2d33e0282a",
    ("project --type G2 --fstring 1,2,2,1,2", "json"): "b33470743a05dea388b41f0a80b24998747dedd65da71d9885fe99541d62f0d0",
    ("project --type G2 --fstring 1,2,2,1,2 --k 3", "text"): "7488185dfaeec2464036ed89e2ab10cab43142ed524498d5add32e2d9bf64ae8",
    ("project --type G2 --fstring 1,2,2,1,2 --k 3", "json"): "90b443a9ebcb7806a5419176a246e8129f6cd44f7b08ebdc83df035ff6b84743",
    ("lift --type B2 --k 2 --fstring 1,2,2", "text"): "a307f45d65c2ffe96670112f18672ef3178764586c9f9fb32a3028aec48033cc",
    ("lift --type B2 --k 2 --fstring 1,2,2", "json"): "00f395858c39ed3fad2801f8709297f5006dfa623ed7ea5baf126016a0357c72",
    ("path-image --type G2 --weight 1,1 --fstring 2,1", "text"): "4e256df95f4404eb5bc7355d1492393d7f590e078077db291a216a0712ae8a21",
    ("path-image --type G2 --weight 1,1 --fstring 2,1", "json"): "da5a18a388dcdb90fb8aba22f4f297aa27cae5b17fd743e5e6b3bdde72b29bc1",
    ("path-image --type A3 --infinity --dual --estring 2,1,3,2", "text"): "3327fd7883ea47a37b15a0fcd9f1f0ae281cfaad3009e3ea3a2366a3ba925840",
    ("path-image --type A3 --infinity --dual --estring 2,1,3,2", "json"): "ce7cf1cc45b17e489f8176e18d3d847d3f697b5168f074ab54c4946817c4da45",
    ("export --type G2 --weight 1,1 --dual", "dot"): "b08129613a901f7e3a228c6fba2859e57cda799547f6236d15dde46758be5ac1",
    ("export --type A2 --infinity --depth 3", "dot"): "9060f9d32ff477db33d97ecfba0f0a15bf2a3fb06609984f3767d9dfc843b010",
}


@pytest.mark.parametrize("args, form", list(OUTPUT_DIGESTS), ids=[" ".join(k) for k in OUTPUT_DIGESTS])
def test_every_subcommand_output_is_pinned_byte_for_byte(args, form, capsys):
    assert run([*args.split(), "--format", form]) == 0
    assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == OUTPUT_DIGESTS[(args, form)]


def test_crystal_takes_no_format(capsys):
    # crystal has no JSON schema; export --format json writes its graph
    assert run(["crystal", "--type", "A2", "--weight", "1,1", "--format", "json"]) == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_project_without_an_image_prints_a_null_element(capsys):
    assert run(["project", "--type", "A2", "--fstring", "1", "--k", "0", "--format", "json"]) == 0
    assert json.loads(out_of(capsys)) == {"k": 0, "element": None}


def test_export_window_requires_depth(capsys):
    assert run(["export", "--type", "A2", "--infinity", "--format", "dot"]) == 2


def test_verify_individual_suites(capsys):
    for suite in ("axioms", "stembridge", "dual-iso", "limits", "profile", "duality"):
        code = run(["verify", "--type", "A2", "--suite", suite, "--depth", "3"])
        text = out_of(capsys)
        assert code == 0, text
        assert "FAIL" not in text


def test_verify_all_suites_at_depth_four(capsys):
    code = run(["verify", "--type", "A2", "--suite", "all", "--depth", "4"])
    text = out_of(capsys)
    assert code == 0, text
    assert "FAIL" not in text
    assert text.rstrip().endswith("checks")


def test_dual_iso_suite_prints_json(capsys):
    assert run(
        ["verify", "--type", "A2", "--suite", "dual-iso", "--depth", "3", "--format", "json"]
    ) == 0
    doc = json.loads(out_of(capsys))
    assert all(entry["failures"] == [] for entry in doc)
    assert sum(entry["checked"] for entry in doc) > 20


@pytest.mark.parametrize(
    "suite", ["axioms", "stembridge", "dual-iso", "limits", "profile", "duality", "all"]
)
def test_verify_json_for_every_suite(suite, capsys):
    code = run(["verify", "--type", "A2", "--suite", suite, "--depth", "2", "--format", "json"])
    doc = json.loads(out_of(capsys))
    assert doc
    for record in doc:
        assert set(record) == {"name", "checked", "failures"}
    assert code == (0 if all(not r["failures"] for r in doc) else 1)


def test_verify_reports_a_failing_identity(monkeypatch, capsys):
    # the suites reach the operators through their module, so this reaches them
    monkeypatch.setattr(alcove, "profile_f", lambda el, i: None)
    argv = ["verify", "--type", "A2", "--suite", "profile", "--depth", "2"]
    assert run(argv) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("FAIL profile operators checks")
    assert "     Al(0, 1): profile_f disagrees at (), i=2" in lines
    assert lines[-1] == "passed 1/2 checks"

    assert run([*argv, "--format", "json"]) == 1
    record, stats = json.loads(out_of(capsys))
    assert "Al(0, 1): profile_f disagrees at (), i=2" in record["failures"]
    assert stats["failures"] == []


@pytest.mark.parametrize(
    "stat, line",
    [
        ("epsilon", "Al(0, 0): epsilon disagrees with the profile at (), i=1"),
        ("phi", "Al-dual(inf) depth 2: phi disagrees with the profile at (), i=1"),
    ],
)
def test_profile_suite_checks_the_string_statistics(monkeypatch, capsys, stat, line):
    # epsilon is read primally and phi dually; off by one, each must fail
    # the profile's closed form, on the element named in the failure
    exact = getattr(alcove, stat)
    monkeypatch.setattr(alcove, stat, lambda el, i: exact(el, i) + 1)
    assert run(["verify", "--type", "A2", "--suite", "profile", "--depth", "2"]) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("ok profile operators checks")
    assert lines[1].startswith("FAIL profile statistics checks")
    assert f"     {line}" in lines
    assert lines[-1] == "passed 1/2 checks"


def test_profile_suite_catches_an_operator_wrong_only_where_enumeration_skips_it(monkeypatch, capsys):
    # Al(lam) is enumerated by lowering from its top, so its edges hold the
    # right e_i although e_op is wrong on it; the suite reads e_i off the
    # edges, and only the inverse check of each edge calls e_op there
    e_op = alcove.e_op
    wrong = lambda el, i: None if not (el.is_window or el.is_dual) else e_op(el, i)  # noqa: E731
    monkeypatch.setattr(alcove, "e_op", wrong)
    assert run(["verify", "--type", "A2", "--suite", "profile"]) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0] == "FAIL profile operators checks 512"
    assert "     Al(0, 1): ((α2, 0)): operators not inverse in direction 2" in lines
    assert lines[-2:] == ["ok profile statistics checks 256", "passed 1/2 checks"]


def test_profile_structure_violations_are_failures(monkeypatch, capsys):
    # every letter read as a folded minus breaks the structure conditions:
    # each (element, direction) with a letter fails by name, with no
    # traceback, and every check is still counted
    letters = alcove._letters
    monkeypatch.setattr(
        alcove, "_letters", lambda el, i: [(p, -1, True) for p, _, _ in letters(el, i)]
    )
    argv = ["verify", "--type", "A2", "--suite", "profile", "--depth", "2"]
    assert run(argv) == 1
    lines = out_of(capsys).splitlines()
    assert lines[:3] == [
        "FAIL profile operators checks 392",
        "     Al(0, 1): profile structure violated at (), i=2",
        "     Al(0, 1): profile structure violated at ((α2, 0)), i=1",
    ]
    assert lines[-2:] == ["ok profile statistics checks 196", "passed 1/2 checks"]
    # a profile breaking its conditions is an error of its own, not an assertion
    # that python -O drops
    el = alcove.element(chains.lex_chain(A2, (0, 1)), [])
    with pytest.raises(alcove.ProfileError, match="structure conditions"):
        alcove.profile_f(el, 2)
    assert 2 not in el.profiles


def test_a_profile_is_read_once_per_element_and_direction(monkeypatch):
    el = alcove.element(chains.lex_chain(A2, (1, 1)), [0])
    reads = []
    read = alcove._read_profile
    monkeypatch.setattr(alcove, "_read_profile", lambda el, i: reads.append(i) or read(el, i))
    for i in (1, 2):
        assert alcove.profile_f(el, i) == alcove.f_op(el, i)
        assert alcove.profile_e(el, i) == alcove.e_op(el, i)
        assert alcove._profile_data(el, i) is el.profiles[i]
    assert reads == [1, 2]


@pytest.mark.parametrize(
    "type_string, depth, profile, limits_checked",
    [
        ("A2", 2, (392, 196), 187),
        ("A2", 4, (512, 256), 606),
        ("A2", 5, (608, 304), 950),
        ("B2", 2, (880, 440), 188),
        ("B2", 4, (1024, 512), 688),
        ("B2", 5, (1152, 576), 1142),
        ("G2", 2, (5632, 2816), 188),
        ("G2", 4, (5784, 2892), 715),
        ("G2", 5, (5936, 2968), 1249),
    ],
)
def test_profile_and_limits_checked_counts(type_string, depth, profile, limits_checked, capsys):
    # the profile suite computes operators only on a truncation's boundary
    # and reads edges elsewhere; both ways count every (element, direction)
    argv = ["verify", "--type", type_string, "--depth", str(depth), "--format", "json"]
    assert run([*argv, "--suite", "profile"]) == 0
    assert tuple(record["checked"] for record in json.loads(out_of(capsys))) == profile
    assert run([*argv, "--suite", "limits"]) == 0
    assert [record["checked"] for record in json.loads(out_of(capsys))] == [limits_checked]


def test_dual_iso_failures_print_like_every_other_failure(monkeypatch, capsys):
    # map the empty element of each Al(lam) to the straight path of lam, whose
    # weight is lam, not -lam: a target node of the wrong weight where lam is
    # self-dual (A2's (1, 1)), and no target node on Al(0, 1)
    varpi = limits.varpi

    def wrong(el):
        return varpi(el) if el.positions else lp.straight_path(el.rs, el.chain.lam)

    monkeypatch.setattr(limits, "varpi", wrong)
    argv = ["verify", "--type", "A2", "--suite", "dual-iso", "--depth", "2"]
    assert run(argv) == 1
    lines = out_of(capsys).splitlines()
    assert "FAIL dual-iso Al(0, 1) -> paths checked 3" in lines
    assert "     (): weight negation" in lines

    assert run([*argv, "--format", "json"]) == 1
    doc = json.loads(out_of(capsys))
    assert all(type(f) is str for record in doc for f in record["failures"])
    assert "(): image is not a target node" in doc[1]["failures"]
    assert any("(): weight negation" in record["failures"] for record in doc)


def test_dual_iso_catches_an_operator_wrong_only_where_enumeration_skips_it(monkeypatch, capsys):
    # Al(lam) is enumerated by lowering from its top, so e_i is never applied
    # while it is built; only the inverse check of each edge calls it
    monkeypatch.setattr(alcove, "e_op", lambda el, i: None)
    assert run(["verify", "--type", "A2", "--suite", "dual-iso"]) == 1
    lines = out_of(capsys).splitlines()
    assert "FAIL dual-iso Al(1, 0) -> paths checked 3" in lines
    assert "     ((α1, 0)): operators not inverse in direction 1" in lines


def test_verify_all_runs_each_inverse_check_once(monkeypatch, capsys):
    # axioms, dual-iso and profile each need the inverse check of a graph;
    # the graph computes it once and every suite reads it
    prop = cg.CrystalGraph.__dict__["inverse_failures"]
    body, computed = prop.func, []
    monkeypatch.setattr(prop, "func", lambda graph: computed.append(id(graph)) or body(graph))
    assert run(["verify", "--type", "B2", "--suite", "all"]) == 0
    assert out_of(capsys).splitlines()[-1] == "passed 55/55 checks"
    assert len(computed) == len(set(computed)) == 22


def test_limits_suite_fails_on_a_wrongly_grown_window(monkeypatch, capsys):
    # the suite compares each operator with its step over a wider window
    # that is not renormalized back to the element itself
    el = alcove.f_op(alcove.element(chains.window(A2, 1), []), 1)
    wider = verify._widen(el, 2)
    assert wider.chain.copies == el.chain.copies + 2
    assert wider.pairs() == el.pairs() and alcove._canonical(wider) == el

    # the same positions over a primal window that grew at its start hold
    # other foldings, so the check must fail
    def unshifted(el, copies):
        chain = chains.window(el.rs, el.chain.copies + copies, el.is_dual)
        return alcove.AlcoveElement(chain, el.positions)

    monkeypatch.setattr(verify, "_widen", unshifted)
    assert run(["verify", "--type", "A2", "--suite", "limits", "--depth", "2"]) == 1
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("FAIL limits coherence checks")
    assert "     Al(inf) ((α1, -1)): +1 copies changed f_op at i=1" in lines
    assert lines[-1] == "passed 0/1 checks"


def test_limits_suite_applies_the_operators_themselves(monkeypatch, capsys):
    # e_op wrong on the non-empty elements of Al(infinity): the suite applies
    # each operator rather than reading the graph's edges, so every
    # comparison still runs and fails where the operator does
    e_op = alcove.e_op
    wrong = lambda el, i: None if el.is_window and not el.is_dual and el.positions else e_op(el, i)  # noqa: E731
    monkeypatch.setattr(alcove, "e_op", wrong)
    assert run(["verify", "--type", "A2", "--suite", "limits", "--depth", "3"]) == 1
    assert out_of(capsys).splitlines() == [
        "FAIL limits coherence checks 313",
        "     Al(inf) ((α1, -1)): +1 copies changed <lambda> at i=1",
        "     Al(inf) ((α1, -1)): +2 copies changed <lambda> at i=1",
        "     Al(inf) ((α2, -1)): +1 copies changed <lambda> at i=2",
        "     Al(inf) ((α2, -1)): +2 copies changed <lambda> at i=2",
        "     Al(inf) ((α1, -2)): +1 copies changed <lambda> at i=1",
        "passed 0/1 checks",
    ]


def test_verify_reports_are_deterministic(capsys):
    run(["verify", "--type", "A2", "--suite", "duality", "--depth", "2"])
    first = out_of(capsys)
    run(["verify", "--type", "A2", "--suite", "duality", "--depth", "2"])
    assert out_of(capsys) == first


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--type", "Z9", "--weight", "1,1"],
        ["chain", "--type", "A2", "--weight", "-1,0"],
        ["chain", "--type", "A2", "--weight", "1,1,1"],
        ["chain", "--type", "A2", "--weight", "1,x"],
        ["binf", "--type", "A2", "--fstring", "2,x"],
        ["binf", "--type", "A2", "--fstring", "5"],
        ["binf", "--type", "A2", "--fstring", "1", "--estring", "1"],
        ["binf", "--type", "A2", "--show", "nonsense"],
        ["chain", "--weight", "1,1"],
        ["path-image", "--type", "A2", "--weight", "0,0", "--fstring", "1"],
        ["lift", "--type", "A2", "--k", "0", "--fstring", "1"],
        ["verify", "--type", "A2", "--suite", "limits", "--depth", "-3"],
        ["export", "--type", "A2", "--infinity", "--depth", "-1"],
        ["project", "--type", "A2", "--fstring", "1", "--k", "-1"],
    ],
)
def test_usage_errors(argv, capsys):
    assert run(argv) == 2


@pytest.mark.parametrize("cmd", ["chain", "crystal", "path-image", "export"])
@pytest.mark.parametrize("form", [["--weight", "-1,0"], ["--weight=-1,0"]])
def test_negative_weight_reaches_dominance_check(cmd, form, capsys):
    assert run([cmd, "--type", "A2", *form]) == 2
    assert "not dominant integral" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--weight", "1,1"],
        ["crystal", "--weight", "1,1"],
        ["binf"],
        ["project"],
        ["lift", "--k", "1"],
        ["path-image", "--infinity"],
        ["export", "--infinity", "--depth", "2"],
        ["verify"],
    ],
)
def test_infinite_matrix_is_a_usage_error(argv, capsys):
    assert run([*argv, "--matrix", "2,-3;-3,2"]) == 2
    assert capsys.readouterr().err == "error: infinite root system\n"


def test_matrix_past_128_positive_roots_is_a_usage_error(capsys):
    def type_a(n):
        rows = [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
        return ";".join(",".join(map(str, row)) for row in rows)

    assert run(["chain", "--matrix", type_a(16), "--weight", ",".join("1" * 16)]) == 2
    assert capsys.readouterr().err == "error: 136 positive roots: at most 128 are supported\n"
    assert run(["chain", "--matrix", type_a(15), "--weight", "1" + ",0" * 14]) == 0
    assert out_of(capsys).count(", 0)") == 15


@pytest.mark.parametrize("cmd", ["crystal", "export"])
def test_a_crystal_past_the_node_limit_is_refused(cmd):
    # 2^120 nodes: a run in a child process, so a regression that starts
    # enumerating fails on the timeout instead of hanging the suite
    done = subprocess.run(
        [sys.executable, "-m", "alcovecrystals.cli", cmd, "--type", "E8", "--weight", "1,1,1,1,1,1,1,1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: the crystal has {2 ** 120} nodes; at most {cli.MAX_NODES} are enumerated\n"


@pytest.mark.parametrize("type_string", ["A4", "D4", "F4"])
def test_verify_refuses_a_sweep_past_the_node_limit(type_string):
    # the crystals Al(lam) of D4's sweep hold 2,034,152 nodes in all, and
    # Al(2, 2, 2, 2) alone 3^12; A4's largest crystal fits, but its 81 hold
    # 286,928.  Refused before any suite runs, in a child process so that a
    # regression fails on the timeout
    done = subprocess.run(
        [sys.executable, "-m", "alcovecrystals.cli", "verify", "--type", type_string],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    total = {"A4": 286_928, "D4": 2_034_152, "F4": 492_651_162_355}[type_string]
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: the sweep's crystals have {total} nodes; at most {cli.MAX_NODES} are enumerated\n"
    )


@pytest.mark.parametrize("type_string", ["A2", "A3", "B2", "G2", "B3", "C3"])
def test_verify_accepts_the_sweeps_within_the_node_limit(type_string, capsys):
    # the limits suite at depth 0 builds no finite crystal, so this is quick
    assert run(["verify", "--type", type_string, "--suite", "limits", "--depth", "0"]) == 0
    assert out_of(capsys).splitlines()[-1] == "passed 1/1 checks"


def test_the_verify_node_limit_is_inclusive(monkeypatch, capsys):
    # the crystals Al(lam) of the A2 sweep hold 84 nodes in all
    argv = ["verify", "--type", "A2", "--suite", "limits", "--depth", "0"]
    monkeypatch.setattr(cli, "MAX_NODES", 84)
    assert run(argv) == 0
    monkeypatch.setattr(cli, "MAX_NODES", 83)
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: the sweep's crystals have 84 nodes; at most 83 are enumerated\n"


def test_the_node_limit_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_NODES", 8)
    assert run(["crystal", "--type", "A2", "--weight", "1,1"]) == 0
    assert run(["export", "--type", "A2", "--weight", "2,0"]) == 0
    monkeypatch.setattr(cli, "MAX_NODES", 7)
    for cmd in ("crystal", "export"):
        assert run([cmd, "--type", "A2", "--weight", "1,1"]) == 2
    # a depth bounds the walk: A2's truncations at depth 1 have up to 3 nodes
    assert run(["export", "--type", "A2", "--weight", "1,1", "--depth", "1"]) == 0
    assert capsys.readouterr().err.count("at most 7 are enumerated") == 2


@pytest.mark.parametrize(
    "argv, what, size",
    [
        (["--infinity", "--depth", "4"], "the truncation at depth 4 has", 22),
        (["--infinity", "--dual", "--depth", "4"], "the truncation at depth 4 has", 22),
        (["--weight", "1,1", "--depth", "2"], "the truncation at depth 2 has up to", 7),
        (["--weight", "1,1", "--depth", "3"], "the truncation at depth 3 has up to", 8),
    ],
)
def test_truncations_meet_the_node_limit(monkeypatch, capsys, argv, what, size):
    # the count of B(infinity) to the depth, or for a finite crystal the
    # smaller of it and the Weyl dimension; the limit is inclusive
    argv = ["export", "--type", "A2", *argv]
    monkeypatch.setattr(cli, "MAX_NODES", size)
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "MAX_NODES", size - 1)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {what} {size} nodes; at most {size - 1} are enumerated\n"


def test_the_verify_truncation_limit_is_inclusive(monkeypatch, capsys):
    # B2's truncations at depth 10 have 256 nodes each, more than the 206 of
    # its crystals Al(lam); the skipped stembridge suite enumerates nothing
    argv = ["verify", "--type", "B2", "--suite", "stembridge", "--depth", "10"]
    monkeypatch.setattr(cli, "MAX_NODES", 256)
    assert run(argv) == 0
    monkeypatch.setattr(cli, "MAX_NODES", 255)
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: the sweep's truncations at depth 10 have 256 nodes each; at most 255 are enumerated\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["export", "--type", "E8", "--infinity", "--depth", "10"], "the truncation at depth 10 has 537140"),
        (
            ["export", "--type", "E8", "--weight", "1,1,1,1,1,1,1,1", "--depth", "9"],
            "the truncation at depth 9 has up to 212376",
        ),
        (["verify", "--type", "A3", "--depth", "30"], "the sweep's truncations at depth 30 have 226860"),
    ],
)
def test_a_truncation_past_the_node_limit_is_refused(argv, message):
    # a run in a child process, through the module's entry point, so a
    # regression that starts enumerating fails on the timeout
    done = subprocess.run(
        [sys.executable, "-m", "alcovecrystals.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: {message} nodes")
    assert done.stderr.endswith(f"; at most {cli.MAX_NODES} are enumerated\n")


@pytest.mark.parametrize("cmd", ["crystal", "export"])
def test_a_crystal_is_refused_before_its_chain_is_built(cmd, monkeypatch, capsys):
    # the chain of (10^8, 0) alone would take gigabytes; the Weyl dimension
    # refuses the crystal first
    def no_chain(*args):
        raise AssertionError("lex_chain called")

    monkeypatch.setattr(cli, "lex_chain", no_chain)
    monkeypatch.setattr(chains, "lex_chain", no_chain)
    assert run([cmd, "--type", "A2", "--weight", "100000000,0"]) == 2
    assert capsys.readouterr().err == (
        f"error: the crystal has 5000000150000001 nodes; at most {cli.MAX_NODES} are enumerated\n"
    )
    assert run([cmd, "--type", "A2", "--weight", "-1,0"]) == 2
    assert capsys.readouterr().err == "error: weight (-1, 0) is not dominant integral\n"


def _no_chains(monkeypatch):
    """Make every constructor of a chain for lam, or for k * rho, raise."""

    def no_chain(*args):
        raise AssertionError("a chain was built")

    for module in (cli, chains):
        monkeypatch.setattr(module, "lex_chain", no_chain)
    for module in (cli, alcove):
        monkeypatch.setattr(module, "_rho_multiple", no_chain)


@pytest.mark.parametrize(
    "argv, size",
    [
        (["chain", "--weight", "100000000,0"], 200000000),
        (["path-image", "--weight", "100000000,0"], 200000000),
        (["export", "--weight", "100000000,0", "--depth", "2"], 200000000),
        (["lift", "--fstring", "1", "--k", "100000000"], 400000000),
        (["project", "--fstring", "1", "--k", "100000000"], 400000000),
    ],
)
def test_a_long_chain_is_refused_before_it_is_built(argv, size, monkeypatch, capsys):
    _no_chains(monkeypatch)
    assert run([argv[0], "--type", "A2", *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: the chain has {size} entries; at most {cli.MAX_NODES} are built\n"


@pytest.mark.parametrize(
    "type_string, lam, size",
    [("A2", (3, 1), 8), ("B2", (2, 5), 23), ("G2", (1, 4), 46), ("A3", (2, 0, 1), 9), ("E8", (1,) + (0,) * 7, 92)],
)
def test_a_chain_is_sized_before_it_is_built(type_string, lam, size, monkeypatch, capsys):
    assert len(chains.lex_chain(RootSystem.from_type(type_string), lam)) == size
    weight = ",".join(map(str, lam))
    monkeypatch.setattr(cli, "MAX_NODES", size)
    assert run(["chain", "--type", type_string, "--weight", weight, "--format", "json"]) == 0
    assert len(json.loads(out_of(capsys))) == size
    monkeypatch.setattr(cli, "MAX_NODES", size - 1)
    _no_chains(monkeypatch)
    assert run(["chain", "--type", type_string, "--weight", weight]) == 2
    assert capsys.readouterr().err == f"error: the chain has {size} entries; at most {size - 1} are built\n"


def test_the_chain_limit_is_inclusive(monkeypatch, capsys):
    # the chain for 2 rho on A2 has 8 entries
    monkeypatch.setattr(cli, "MAX_NODES", 8)
    assert run(["lift", "--type", "A2", "--fstring", "1", "--k", "2"]) == 0
    assert out_of(capsys) == "((α1, -1))\n"
    assert run(["lift", "--type", "A2", "--fstring", "1", "--k", "3"]) == 2
    assert capsys.readouterr().err == "error: the chain has 12 entries; at most 8 are built\n"
    assert run(["project", "--type", "A2", "--fstring", "1", "--k", "2"]) == 0
    assert out_of(capsys) == "k = 2: ((α1, 1))\n"
    assert run(["project", "--type", "A2", "--fstring", "1", "--k", "3"]) == 2
    assert capsys.readouterr().err == "error: the chain has 12 entries; at most 8 are built\n"


def test_node_and_dominance_refusals_come_before_chain_refusals(monkeypatch, capsys):
    _no_chains(monkeypatch)
    monkeypatch.setattr(cli, "MAX_NODES", 2)
    assert run(["export", "--type", "A2", "--weight", "1,1", "--depth", "1"]) == 2
    assert capsys.readouterr().err == "error: the truncation at depth 1 has up to 3 nodes; at most 2 are enumerated\n"
    assert run(["chain", "--type", "A2", "--weight", "-1,300000"]) == 2
    assert capsys.readouterr().err == "error: weight (-1, 300000) is not dominant integral\n"


def test_a_deep_truncation_is_refused_without_counting_it(monkeypatch, capsys):
    # a truncation at depth d holds more than d nodes, so from a depth of
    # MAX_NODES on B(infinity) is not counted, which takes memory linear in d
    counted = cg.infinity_size

    def shallow_only(rs, depth):
        assert depth < cli.MAX_NODES
        return counted(rs, depth)

    monkeypatch.setattr(cg, "infinity_size", shallow_only)
    depth = 10**12
    assert run(["verify", "--type", "A2", "--depth", str(depth)]) == 2
    assert run(["export", "--type", "A2", "--infinity", "--depth", str(depth)]) == 2
    assert capsys.readouterr().err == (
        f"error: the sweep's truncations at depth {depth} have more than {depth} nodes each; "
        f"at most {cli.MAX_NODES} are enumerated\n"
        f"error: the truncation at depth {depth} has more than {depth} nodes; "
        f"at most {cli.MAX_NODES} are enumerated\n"
    )
    # a finite crystal's truncation is bounded by its Weyl dimension alone
    assert run(["export", "--type", "A2", "--weight", "1,1", "--depth", str(depth)]) == 0
    assert out_of(capsys).count(" -> ") == 8
    assert run(["export", "--type", "A2", "--weight", "1000,1000", "--depth", str(depth)]) == 2
    assert capsys.readouterr().err == (
        f"error: the truncation at depth {depth} has up to 1003003001 nodes; "
        f"at most {cli.MAX_NODES} are enumerated\n"
    )


def test_runs_in_a_row_share_no_options(monkeypatch, capsys):
    # the parser is built once per process; each run parses into a fresh
    # namespace, so an option given once is not carried into the next run
    seen = []
    monkeypatch.setitem(cli._DISPATCH, "verify", lambda args: seen.append(vars(args)) or 0)
    first = ["verify", "--type", "B2", "--suite", "limits", "--depth", "2", "--format", "json"]
    assert run(first) == 0
    assert run(["verify", "--depth", "-1"]) == 2
    assert run(["verify", "--type", "A2"]) == 0
    assert cli._build_parser() is cli._build_parser()
    common = {"cmd": "verify", "matrix": None}
    assert seen == [
        {**common, "type": "B2", "format": "json", "suite": "limits", "depth": 2},
        {**common, "type": "A2", "format": "text", "suite": "all", "depth": 4},
    ]


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_matrix_input(capsys):
    assert run(["chain", "--matrix", "2,-1;-1,2", "--weight", "1,1"]) == 0
    assert out_of(capsys) == "((α2, 0), (α1+α2, 0), (α1, 0), (α1+α2, 1))\n"
