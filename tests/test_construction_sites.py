"""Every big-integer construction in the package names what bounds it.

The walk lists each `**`, `pow(` and `<<` in src/lacunary whose operands
are not all literals, except a shift by a literal under 256, as (module,
enclosing function, source text).  SITES names the bound of each site,
led by its kind:

- `gate`: a `check_power` (or `gated_pow`) call that runs before it;
- `operand`: an operand bounded by construction, such as a number the
  caller already holds or a width under a constant;
- `materialize`: `PurePower.materialize`, bounded by each caller;
- `reference`: code that no command reaches.

A new site fails the test until its bound is named here, and a site that
goes leaves the table with it.  The walk counts 49 sites: 17 `**` and 32
`<<`.  Every power built through `gated_pow` counts as its one `x ** e`
site.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lacunary"
KINDS = ("gate", "operand", "materialize", "reference")

_ENCLOSURE = "k is an enclosure's precision, which on_grid gates as 2**k"
_DIVISION = "under bits(a) + bits(b) of the division's own operands"

SITES = [
    ("interval", "RationalInterval.dyadic", "1 << k", f"operand: {_ENCLOSURE}"),
    ("interval", "RationalInterval.dyadic", "1 << k", f"operand: {_ENCLOSURE}"),
    ("intmath", "gated_pow", "x ** e", "gate: check_power in gated_pow"),
    ("intmath", "_PowerTable.power", "b ** e",
     "operand: e <= 1, or at most _LEAF_BITS bits"),
    ("intmath", "decimal_str.rebuild", "hi << h", "operand: at most m, a piece of n"),
    ("intmath", "introot", "1 << w", "operand: w = ceil(bits(n)/k) <= bits(n)"),
    ("intmath", "introot", "1 << w - s", "operand: at most 2**64"),
    ("intmath", "introot", "above << s", "operand: at most 2**w"),
    ("intmath", "introot", "x ** (k - 1)",
     "operand: x <= 2**w, so under bits(n) + k < 2 * bits(n) bits"),
    ("intmath", "introot", "x ** k", "operand: x is the floor root, so x**k <= n"),
    ("intmath", "_floor_times_pow10.scaled", "x << t + s - k",
     "operand: the floor it returns, whose width w sets"),
    ("intmath", "int_divmod", "b << n", f"operand: {_DIVISION}"),
    ("intmath", "int_divmod", "r << s", f"operand: {_DIVISION}"),
    ("intmath", "int_divmod", "1 << s", f"operand: {_DIVISION}"),
    ("intmath", "int_divmod", "q_hi << s", f"operand: {_DIVISION}"),
    ("intmath", "_div2n1n", "1 << half_n", f"operand: {_DIVISION}"),
    ("intmath", "_div2n1n", "q1 << half_n", f"operand: {_DIVISION}"),
    ("intmath", "_div3n2n", "1 << n", f"operand: {_DIVISION}"),
    ("intmath", "_div3n2n", "b1 << n", f"operand: {_DIVISION}"),
    ("intmath", "_div3n2n", "r << n", f"operand: {_DIVISION}"),
    ("logenc", "ln_mantissa", "zn << w",
     "operand: zn <= den, and w = prec + _GUARD, the caller's precision"),
    ("logenc", "ln_mantissa", "zn << w",
     "operand: zn <= den, and w = prec + _GUARD, the caller's precision"),
    ("logenc", "ln_mantissa", "1 << _STOP", "operand: a constant"),
    ("logenc", "_ln_modest_int", "1 << e", "operand: e = bits(b) - 1, so 2**e <= b"),
    ("measure", "MeasureBound.bound", "self.base ** self.exponent",
     "reference: the CLI never reads MeasureBound.bound"),
    ("measure", "find_n1", "t.degree ** 2",
     "operand: the degree is at most MAX_NUMBER_CHARS digits, so under 2**20 bits squared"),
    ("measure", "_certify_dominance", "t.degree ** 2",
     "operand: the degree is at most MAX_NUMBER_CHARS digits, so under 2**20 bits squared"),
    ("powercmp", "PurePower.materialize", "self.base ** self.exp",
     "materialize: power_vs_threshold, at most bits(t) + exp; bits(), after the "
     "caller's check_power; the schedule's step, after power_vs_threshold"),
    ("schedule", "PowerSchedule.__init__", "1 << budget_bits",
     "operand: budget_bits <= MATERIALIZE_BITS, refused above"),
    ("schedule", "PowerSchedule.exponent", "root ** (e // g)",
     "operand: a_m**(1/v), under the cached a_m"),
    ("series", "BinaryGrid.inverse_power", "1 << m",
     "gate: m <= j, gated as 2**j in on_grid"),
    ("series", "BinaryGrid.inverse_power", "o ** a", "gate: check_power(g, a)"),
    ("series", "LacunarySeries.partial_sum", "self.base ** a_n",
     "gate: check_power in checked_exponent"),
    ("series", "LacunarySeries.partial_sum", "self.base ** (a_n - self.schedule.exponent(k))",
     "gate: check_power in checked_exponent"),
    ("series", "digits_from_interval", "10 ** digits",
     "reference: no command calls digits_from_interval"),
    ("witness", "_gap_dyadic", "conv.p << got.j",
     "gate: p < q, gated in checked_exponent, and 2**j, gated in on_grid"),
    ("witness", "GapBound.__new__", "gated_pow(*power) << shift",
     "gate: gated_pow(g2, a_{n+1}), and shift <= GUARD_BITS"),
    ("witness", "gap_bound", "1 << GUARD_BITS", "operand: a constant"),
    ("witness", "_roth_check", "conv.q ** u", "gate: check_power(f'q_{n}', u)"),
    ("witness", "_roth_check", "gap.hi ** v", "gate: check_power('gap.hi', v)"),
    ("witness", "_exponent_interval", "1 << j_hi", f"operand: j_hi <= k, and {_ENCLOSURE}"),
    ("witness", "_exponent_interval", "1 << j_lo", f"operand: j_lo <= k, and {_ENCLOSURE}"),
    ("witness", "_index_record", "bound.numerator << k",
     f"gate: gap_bound's gated_pow(g2, a_1) bounds the numerator, and {_ENCLOSURE}"),
    ("witness", "_quotient_display_forms", "qq ** du", "gate: check_power('(q1*q2)', du)"),
    ("witness", "_quotient_display_forms", "1 << (j + 2) * dv",
     "gate: check_power('gap.hi', dv, j + 1), plus dv bits"),
    ("witness", "_quotient_display_forms", "num * qp ** du << GUARD_BITS * dv",
     "gate: check_power on gap.hi**dv * (q1*p2)**du, plus GUARD_BITS * dv bits"),
    ("witness", "_quotient_display_forms", "qp ** du", "gate: check_power('(q1*p2)', du)"),
    ("witness", "_quotient_display_forms",
     "gated_pow(4 * ((1 << GUARD_BITS) + h2), dv, '(4*(1+theta2))') << j * dv",
     "gate: check_power('gap.hi', dv, j + 1)"),
    ("witness", "_quotient_display_forms", "1 << GUARD_BITS", "operand: a constant"),
]


def _literal(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant)


def _construction(node) -> bool:
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "pow"
    if not isinstance(node, (ast.BinOp, ast.AugAssign)) or not isinstance(
            node.op, (ast.Pow, ast.LShift)):
        return False
    left = node.left if isinstance(node, ast.BinOp) else node.target
    right = node.right if isinstance(node, ast.BinOp) else node.value
    small_shift = (isinstance(node.op, ast.LShift) and isinstance(right, ast.Constant)
                   and right.value < 256)
    return not (_literal(left) and _literal(right)) and not small_shift


def construction_sites() -> list:
    """(module, enclosing function, source text) of each site, in file order."""
    sites = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, scope + (child.name,))
                continue
            if _construction(child):
                sites.append((module, ".".join(scope), ast.unparse(child)))
            walk(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, ())
    return sites


def test_every_construction_site_names_its_bound():
    found = sorted(construction_sites())
    named = sorted(site[:3] for site in SITES)
    unnamed = [s for s in found if s not in named]
    gone = [s for s in named if s not in found]
    assert found == named, (unnamed, gone)
    assert all(bound.split(":")[0] in KINDS for *_, bound in SITES)
