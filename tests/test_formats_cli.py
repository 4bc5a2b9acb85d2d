import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import over_budget_rep
from modlift import reproduce
from modlift.cli import main
from modlift.classify import klein_witness_rep
from modlift.cyclic_lift import companion_lift, find_divisor_lift
from modlift.formats import (
    ParseError,
    family_from_tokens,
    format_algebra_element,
    format_group_table,
    format_representation,
    parse_algebra_element,
    parse_group_table,
    parse_representation,
)
from modlift.groups import GroupAuditError, OrderTooLarge, cyclic_group
from modlift.obstruction import GroupAlgebraElement, one_minus_generator
from modlift.rings import PrimeCtx


# --- formats ----------------------------------------------------------------


def test_representation_round_trip_klein():
    rep = klein_witness_rep()
    text = format_representation(rep, header="klein witness")
    assert parse_representation(text) == rep


def test_representation_round_trip_companion():
    ctx = PrimeCtx(2)
    rep, _ = companion_lift(ctx, 2, 3, find_divisor_lift(ctx, 2, 3))
    assert parse_representation(format_representation(rep)) == rep


def test_representation_parse_error_line_numbers():
    text = "p 2\nn 2\ngens 1 s\nmat s\n1 0\n1 oops\n"
    with pytest.raises(ParseError) as exc:
        parse_representation(text)
    assert "line 6" in str(exc.value)


def test_representation_requires_all_matrices():
    text = "p 2\nn 1\ngens 2 s t\nmat s\n1\n"
    with pytest.raises(ParseError):
        parse_representation(text)


def test_representation_rejects_out_of_range_entries():
    text = "p 2\nn 1\ngens 1 s\nmat s\n2\n"
    with pytest.raises(ParseError):
        parse_representation(text)


def test_group_table_round_trip():
    _, g = cyclic_group(6)
    text = format_group_table(g)
    back = parse_group_table(text)
    assert back.order == 6
    assert (back.table == g.table).all()


def test_group_table_rejects_bad_row_count():
    with pytest.raises(ParseError):
        parse_group_table("order 2\n0 1\n")


def test_algebra_element_round_trip():
    _, g = cyclic_group(9)
    elt = one_minus_generator(g, 3) ** 4
    text = format_algebra_element(elt)
    assert parse_algebra_element(text, g, 3) == elt


@pytest.mark.parametrize("mod", [0, 1, -3])
def test_algebra_element_rejects_bad_modulus(mod):
    _, g = cyclic_group(3)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        parse_algebra_element("elt 1 0 0\n", g, mod)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        GroupAlgebraElement(g, mod, [1, 0, 0])


def test_family_specs():
    for tokens, order in [
        (["C", "24"], 24),
        (["Q", "16"], 16),
        (["D", "8"], 8),
        (["CxC", "2", "4"], 8),
        (["C3xC3"], 9),
        (["C3semi", "4"], 12),
    ]:
        _, g = family_from_tokens(tokens)
        assert g.order == order
    with pytest.raises(ParseError):
        family_from_tokens(["X", "3"])
    with pytest.raises(ParseError):
        family_from_tokens(["C3semi", "3"])


# --- CLI ---------------------------------------------------------------------


def test_cli_check_klein(tmp_path, capsys):
    path = tmp_path / "klein.rep"
    path.write_text(format_representation(klein_witness_rep()))
    rc = main(["check", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: NOT_LIFTABLE" in out
    assert "REFUTE:" in out
    assert "verified: refutation ok" in out


def test_cli_check_liftable_with_certificate(tmp_path, capsys):
    ctx = PrimeCtx(2)
    rep, _ = companion_lift(ctx, 2, 3, find_divisor_lift(ctx, 2, 3))
    path = tmp_path / "jordan3.rep"
    path.write_text(format_representation(rep))
    rc = main(["check", str(path), "--oracle", "--max-brute", str(2 ** 12)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: LIFTABLE" in out
    assert "CERT: s" in out
    assert "oracle: agrees" in out


def test_cli_check_malformed(tmp_path, capsys):
    path = tmp_path / "broken.rep"
    path.write_text("p 2\nn 2\ngens 1 s\nmat s\n1 0\n")
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize(
    "header, message",
    [
        ("p x\nn 1\ngens 1 s\n", "line 1: p must be an integer"),
        ("p\nn 1\ngens 1 s\n", "line 1: p takes exactly one integer"),
        ("p 2 3\nn 1\ngens 1 s\n", "line 1: p takes exactly one integer"),
        ("p 2\nn 1 1\ngens 1 s\n", "line 2: n takes exactly one integer"),
        ("p 2\nn 1\ngens x s\n", "line 3: generator count must be an integer"),
        ("p 2\nn 1\ngens\n", "line 3: gens takes a count"),
        ("p 2\nn -1\ngens 1 s\n", "line 2: n must be at least 1"),
        ("p 2\nn 0\ngens 1 s\n", "line 2: n must be at least 1"),
        ("p 1\nn 1\ngens 1 s\n", "line 1: p must be a prime"),
    ],
)
def test_cli_check_rejects_bad_header(tmp_path, capsys, header, message):
    path = tmp_path / "bad.rep"
    path.write_text(header + "mat s\n1\n")
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert message in err


def _token_lines(tokens, max_lines):
    """Texts of up to max_lines lines, each of up to 5 of the given tokens."""
    return st.lists(st.lists(st.sampled_from(tokens), max_size=5), max_size=max_lines).map(
        lambda lines: "\n".join(" ".join(toks) for toks in lines)
    )


_FUZZ_TOKENS = ["p", "n", "gens", "rel", "mat", "#", "0", "1", "2", "3", "-1", "32749",
                "x", "s", "t", "s^-1", "^-1", "2.5", "9" * 40]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), _token_lines(_FUZZ_TOKENS, 12)))
def test_parse_representation_fuzz(text):
    try:
        parse_representation(text)
    except ParseError:
        pass


_TABLE_TOKENS = ["order", "#", "0", "1", "2", "3", "-1", "x", "2.5", str(2 ** 63), "9" * 40]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=80),
        _token_lines(_TABLE_TOKENS, 6),
        # well-formed headers over random rows reach the range check and the audit
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.one_of(st.integers(-1, n), st.integers()), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ).map(lambda rows: f"order {n}\n" + "\n".join(" ".join(map(str, r)) for r in rows))
        ),
    )
)
def test_parse_group_table_fuzz(text):
    try:
        parse_group_table(text)
    except (ParseError, GroupAuditError, OrderTooLarge):
        pass


_ELT_TOKENS = ["elt", "#", "0", "1", "2", "-1", "x", "2.5", str(2 ** 63), "-" + "9" * 40]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=60),
        _token_lines(_ELT_TOKENS, 4),
        st.lists(st.integers(), min_size=2, max_size=4).map(
            lambda coeffs: "elt " + " ".join(map(str, coeffs))
        ),
    )
)
def test_parse_algebra_element_fuzz(text):
    _, g = cyclic_group(3)
    try:
        parse_algebra_element(text, g, 3)
    except ParseError:
        pass


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--table", "{table}"], "line 3: entries must lie in [0, 2)"),
        (["theta", "C 9", "{elt}", "{elt}", "-p", "99999999999999999999"], "p must be a prime"),
        (["theta", "C 9", "{elt}", "{elt}", "-p", "0"], "p must be a prime"),
    ],
)
def test_cli_rejects_out_of_range_numbers(tmp_path, capsys, argv, message):
    table = tmp_path / "huge.tbl"
    table.write_text(f"order 2\n0 1\n1 {2 ** 63}\n")
    elt = tmp_path / "one.elt"
    elt.write_text("elt 1 0 0 0 0 0 0 0 0\n")
    rc = main([arg.format(table=table, elt=elt) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: " + message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p 2\nn 2\ngens 1 s\nrel s s\nmat s\n1 1\n1 1\n",
         "generator 's' is not invertible over F_2"),
        ("p 2\nn 2\ngens 1 s\nrel s s\nrel s s s\nmat s\n1 1\n0 1\n",
         "relator #1 does not evaluate to the identity"),
    ],
    ids=["singular-generator", "broken-relator"],
)
def test_cli_check_rejects_invalid_representation(tmp_path, capsys, text, message):
    path = tmp_path / "invalid.rep"
    path.write_text(text)
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert message in err


def test_cli_check_over_byte_budget(tmp_path, capsys):
    path = tmp_path / "big.rep"
    path.write_text(format_representation(over_budget_rep()))
    tracemalloc.start()
    try:
        rc = main(["check", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "byte budget" in err
    assert peak < 4 << 20


def test_cli_check_json(tmp_path, capsys):
    path = tmp_path / "klein.rep"
    path.write_text(format_representation(klein_witness_rep()))
    rc = main(["check", "--json", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["verdict"] == "NOT_LIFTABLE"
    assert payload["verified"] is True


def test_cli_classify_family(capsys):
    rc = main(["classify", "C", "24"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: LIFTABLE (C3xC2n)" in out


def test_cli_classify_witness_round_trip(capsys):
    rc = main(["classify", "C", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: NOT_LIFTABLE (C9)" in out
    block = out.split("WITNESS-BEGIN\n")[1].split("\nWITNESS-END")[0]
    rep = parse_representation(block)
    assert rep.n == 5
    from modlift.replift import check_lift

    assert not check_lift(rep).liftable
    assert "REFUTE:" in out


def test_cli_classify_q8_warns(capsys):
    rc = main(["classify", "Q", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: NOT_LIFTABLE (Q8)" in out
    assert "solver-certified: False" in out
    assert "warning" in out


def test_cli_classify_table(tmp_path, capsys):
    _, g = cyclic_group(10)
    path = tmp_path / "c10.tbl"
    path.write_text(format_group_table(g))
    rc = main(["classify", "--table", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: NOT_LIFTABLE (Cp)" in out


def test_cli_theta(tmp_path, capsys):
    _, g = cyclic_group(9)
    s = one_minus_generator(g, 3)
    f_path = tmp_path / "f.elt"
    h_path = tmp_path / "h.elt"
    f_path.write_text(format_algebra_element(s ** 4))
    h_path.write_text(format_algebra_element(s ** 5))
    rc = main(["theta", "C 9", str(f_path), str(h_path), "-p", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "THETA: NONZERO" in out

    # coefficients past int64 are reduced mod p, to the same element
    f_path.write_text("elt " + " ".join(str(int(c) + 3 * 2 ** 64) for c in (s ** 4).coeffs))
    assert main(["theta", "C 9", str(f_path), str(h_path), "-p", "3"]) == 0
    assert capsys.readouterr().out == out

    z_path = tmp_path / "z.elt"
    z_path.write_text(format_algebra_element(GroupAlgebraElement.zero(g, 3)))
    rc = main(["theta", "C 9", str(z_path), str(h_path), "-p", "3"])
    assert "THETA: ZERO" in capsys.readouterr().out
    assert rc == 0


def test_cli_theta_product_not_zero(tmp_path, capsys):
    _, g = cyclic_group(9)
    one_path = tmp_path / "one.elt"
    one_path.write_text(format_algebra_element(GroupAlgebraElement.one(g, 3)))
    rc = main(["theta", "C 9", str(one_path), str(one_path), "-p", "3"])
    assert rc == 2


_REGISTRY_ORDER = [
    "kernel-structure", "matrix-facts", "klein-not-2-liftable", "q8-not-2-liftable",
    "c3c3-not-3-liftable", "theta-c9", "theta-c5", "theta-c7", "theta-vanishing",
    "divisor-lifts-p2", "divisor-lifts-p3", "jordan-gap-sets", "direct-sum-law",
    "induction-klein", "induction-q8", "sylow-machinery", "catalog-verdicts",
    "catalog-certification",
]


def test_cli_reproduce_json(capsys):
    rc = main(["reproduce", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["command", "items", "status"]
    assert [item["item"] for item in payload["items"]] == _REGISTRY_ORDER
    assert all(sorted(item) == ["detail", "item", "status"] for item in payload["items"])
    failed = {item["item"] for item in payload["items"] if item["status"] == "FAIL"}
    # known red rows (see project notes): the Q8 items fail honestly
    assert failed == {"q8-not-2-liftable", "induction-q8", "catalog-certification"}
    assert payload["status"] == "FAIL"
    assert rc == 1


def test_cli_reproduce_reports_failures(monkeypatch, capsys):
    registry = {name: (lambda: (True, "stub")) for name in reproduce.REGISTRY}
    monkeypatch.setattr(reproduce, "REGISTRY", registry)
    assert main(["reproduce"]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")

    def crash():
        raise RuntimeError("boom")

    registry["klein-not-2-liftable"] = lambda: (False, "forced failure")
    registry["theta-c9"] = crash
    rc = main(["reproduce", "--json"])
    payload = json.loads(capsys.readouterr().out)
    rows = {item["item"]: (item["status"], item["detail"]) for item in payload["items"]}
    assert [item["item"] for item in payload["items"]] == _REGISTRY_ORDER
    assert rows["klein-not-2-liftable"] == ("FAIL", "forced failure")
    assert rows["theta-c9"] == ("FAIL", "exception: boom")
    assert sum(status == "FAIL" for status, _ in rows.values()) == 2
    assert payload["status"] == "FAIL"
    assert rc == 1


def test_cli_output_stability(capsys):
    main(["classify", "C", "9"])
    first = capsys.readouterr().out
    main(["classify", "C", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_check_multiple_files_buffered(tmp_path, capsys):
    from modlift.cyclic_lift import jordan_companion_rep
    from modlift.rings import PrimeCtx

    a = tmp_path / "a.rep"
    b = tmp_path / "b.rep"
    a.write_text(format_representation(klein_witness_rep()))
    b.write_text(format_representation(jordan_companion_rep(PrimeCtx(2), 2, 2)))
    rc = main(["check", str(a), str(b)])
    out = capsys.readouterr().out
    assert rc == 0
    # one complete report per file, in order
    assert out.index("a.rep") < out.index("b.rep")
    assert "NOT_LIFTABLE" in out and "VERDICT: LIFTABLE" in out


def test_cli_theta_with_table_file(tmp_path, capsys):
    _, g = cyclic_group(9)
    tbl = tmp_path / "c9.tbl"
    tbl.write_text(format_group_table(g))
    s = one_minus_generator(g, 3)
    f_path = tmp_path / "f.elt"
    h_path = tmp_path / "h.elt"
    f_path.write_text(format_algebra_element(s ** 4))
    h_path.write_text(format_algebra_element(s ** 5))
    rc = main(["theta", str(tbl), str(f_path), str(h_path), "-p", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "THETA: NONZERO" in out
