"""Text formats shared by the CLI: representations, multiplication tables,
group-algebra elements, and family specs.

Representation files are line oriented:

    p 2
    n 4
    gens 2 s t
    rel s s
    rel t t
    rel s t s^-1 t^-1
    mat s
    1 0 1 0
    ...
    mat t
    ...

Words are whitespace-separated tokens ``name`` or ``name^-1``, so
generator names must be distinct and must not end in ``^-1``.  Lines
starting with ``#`` (and blank lines) are ignored everywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import Error
from .groups import (
    FiniteGroup,
    Presentation,
    Word,
    cyclic_group,
    dihedral,
    direct_product_cyclic,
    elementary_abelian,
    generalized_quaternion,
    semidirect_c3_c2n,
)
from .obstruction import GroupAlgebraElement
from .replift import Representation
from .rings import Mat, PrimeCtx


class ParseError(Error):
    """Malformed input at a 1-based line, or None when no one line is at fault."""

    def __init__(self, line: Optional[int], msg: str):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line


def _logical_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line.split()


def word_from_tokens(tokens: Sequence[str], names: Sequence[str], line: int) -> Word:
    name_index = {nm: i for i, nm in enumerate(names)}
    letters = []
    for tok in tokens:
        if tok.endswith("^-1"):
            base, sign = tok[:-3], -1
        else:
            base, sign = tok, 1
        if base not in name_index:
            raise ParseError(line, f"unknown generator {base!r}")
        letters.append((name_index[base], sign))
    return tuple(letters)


def word_to_tokens(word: Word, names: Sequence[str]) -> str:
    return " ".join(names[g] if e == 1 else f"{names[g]}^-1" for g, e in word)


def _int_token(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"{what} must be an integer, got {tok!r}") from None


def _single_int(toks: Sequence[str], line: int) -> int:
    if len(toks) != 2:
        raise ParseError(line, f"{toks[0]} takes exactly one integer")
    return _int_token(toks[1], line, toks[0])


def parse_representation(text: str) -> Representation:
    ctx = None
    n = None
    names: Optional[tuple] = None
    rel_tokens = []
    mats = {}
    current: Optional[str] = None
    pending_rows = []
    headers = set()
    lines = list(_logical_lines(text))
    i = 0
    while i < len(lines):
        lineno, toks = lines[i]
        key = toks[0]
        if key in ("p", "n", "gens"):
            # mat blocks need all three, so this also rejects one after a mat block
            if key in headers:
                raise ParseError(lineno, f"repeated {key} line")
            headers.add(key)
        if key == "p":
            try:
                ctx = PrimeCtx(_single_int(toks, lineno))
            except ValueError as e:
                raise ParseError(lineno, str(e)) from None
        elif key == "n":
            n = _single_int(toks, lineno)
            if n < 1:
                raise ParseError(lineno, f"n must be at least 1, got {n}")
        elif key == "gens":
            if len(toks) < 2:
                raise ParseError(lineno, "gens takes a count followed by the generator names")
            count = _int_token(toks[1], lineno, "generator count")
            names = tuple(toks[2:])
            if len(names) != count:
                raise ParseError(lineno, f"expected {count} generator names, got {len(names)}")
            seen = set()
            for nm in names:
                if nm in seen:
                    raise ParseError(lineno, f"duplicate generator name {nm!r}")
                if nm.endswith("^-1"):
                    raise ParseError(lineno, f"generator name {nm!r} ends in '^-1'")
                seen.add(nm)
        elif key == "rel":
            rel_tokens.append((lineno, toks[1:]))
        elif key == "mat":
            if ctx is None or n is None or names is None:
                raise ParseError(lineno, "p, n and gens must precede mat blocks")
            if len(toks) != 2:
                raise ParseError(lineno, "mat takes exactly one generator name")
            current = toks[1]
            if current not in names:
                raise ParseError(lineno, f"unknown generator {current!r}")
            if current in mats:
                raise ParseError(lineno, f"duplicate matrix for {current!r}")
            pending_rows = []
            for r in range(n):
                i += 1
                if i >= len(lines):
                    raise ParseError(lineno, f"matrix for {current!r} is truncated")
                rowno, row = lines[i]
                try:
                    vals = [int(v) for v in row]
                except ValueError:
                    raise ParseError(rowno, "matrix rows must be integers") from None
                if len(vals) != n:
                    raise ParseError(rowno, f"expected {n} entries, got {len(vals)}")
                if any(not 0 <= v < ctx.p for v in vals):
                    raise ParseError(rowno, f"entries must lie in [0, {ctx.p})")
                pending_rows.append(vals)
            mats[current] = pending_rows
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
        i += 1
    if ctx is None:
        raise ParseError(None, "missing p line")
    if n is None:
        raise ParseError(None, "missing n line")
    if names is None:
        raise ParseError(None, "missing gens line")
    relators = tuple(word_from_tokens(toks, names, lineno) for lineno, toks in rel_tokens)
    pres = Presentation(names, relators)
    missing = [nm for nm in names if nm not in mats]
    if missing:
        raise ParseError(None, f"missing matrices for {missing}")
    gen_mats = tuple(Mat(ctx.p, mats[nm]) for nm in names)
    return Representation(ctx, pres, gen_mats, n)


def format_representation(rep: Representation, header: Optional[str] = None) -> str:
    out = []
    if header:
        out.append(f"# {header}")
    out.append(f"p {rep.ctx.p}")
    out.append(f"n {rep.n}")
    out.append(f"gens {rep.num_gens} {' '.join(rep.presentation.names)}".rstrip())
    for w in rep.presentation.relators:
        out.append(f"rel {word_to_tokens(w, rep.presentation.names)}")
    for nm, m in zip(rep.presentation.names, rep.gen_mats):
        out.append(f"mat {nm}")
        for row in m.rows():
            out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def parse_group_table(text: str) -> FiniteGroup:
    lines = list(_logical_lines(text))
    if not lines or lines[0][1][0] != "order":
        raise ParseError(lines[0][0] if lines else None, "expected 'order N' header")
    lineno, toks = lines[0]
    try:
        order = int(toks[1])
    except (IndexError, ValueError):
        raise ParseError(lineno, "expected 'order N' header") from None
    if len(lines) - 1 != order:
        raise ParseError(lineno, f"expected {order} table rows, got {len(lines) - 1}")
    table = []
    for rowno, row in lines[1:]:
        try:
            vals = [int(v) for v in row]
        except ValueError:
            raise ParseError(rowno, "table rows must be integers") from None
        if len(vals) != order:
            raise ParseError(rowno, f"expected {order} entries, got {len(vals)}")
        if any(not 0 <= v < order for v in vals):
            raise ParseError(rowno, f"entries must lie in [0, {order})")
        table.append(vals)
    return FiniteGroup(table)


def format_group_table(g: FiniteGroup) -> str:
    out = [f"order {g.order}"]
    for row in g.table:
        out.append(" ".join(str(int(v)) for v in row))
    return "\n".join(out) + "\n"


def parse_algebra_element(text: str, group: FiniteGroup, mod: int) -> GroupAlgebraElement:
    GroupAlgebraElement.check_modulus(mod)
    values = []
    saw_elt = False
    for lineno, toks in _logical_lines(text):
        if not saw_elt:
            if toks[0] != "elt":
                raise ParseError(lineno, "expected 'elt' header")
            saw_elt = True
            toks = toks[1:]
        try:
            # reduced as Python integers, so any size of integer is accepted
            values.extend(int(v) % mod for v in toks)
        except ValueError:
            raise ParseError(lineno, "coefficients must be integers") from None
    if not saw_elt:
        raise ParseError(None, "missing 'elt' header")
    if len(values) != group.order:
        raise ParseError(None, f"expected {group.order} coefficients, got {len(values)}")
    return GroupAlgebraElement(group, mod, values)


def format_algebra_element(elt: GroupAlgebraElement) -> str:
    return "elt " + " ".join(str(int(v)) for v in elt.coeffs) + "\n"


# family spec grammar: C n | Q 2^n | D 2^n | CxC a b | C3xC3 | C3semi 2^n
def family_from_tokens(tokens: Sequence[str]) -> tuple:
    """(display name, FiniteGroup) from a family spec."""
    if not tokens:
        raise ParseError(None, "empty family spec")
    tag = tokens[0]
    args = []
    for t in tokens[1:]:
        try:
            args.append(int(t))
        except ValueError:
            raise ParseError(None, f"family parameter {t!r} is not an integer") from None
    if tag == "C" and len(args) == 1:
        _, g = cyclic_group(args[0])
    elif tag == "Q" and len(args) == 1:
        _, g = generalized_quaternion(args[0])
    elif tag == "D" and len(args) == 1:
        _, g = dihedral(args[0])
    elif tag == "CxC" and len(args) == 2:
        _, g = direct_product_cyclic(args[0], args[1])
    elif tag == "C3xC3" and not args:
        _, g = elementary_abelian(3, 2)
    elif tag == "C3semi" and len(args) == 1:
        m = args[0]
        n = m.bit_length() - 1
        if m < 2 or m != 1 << n:
            raise ParseError(None, "C3semi takes a power of two")
        _, g = semidirect_c3_c2n(n)
    else:
        raise ParseError(None, f"unrecognized family spec {' '.join(tokens)!r}")
    name = g.name or " ".join(tokens)
    return name, g
