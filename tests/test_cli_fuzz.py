"""Property test: any spec text and flags end in exit 0, 1 or 2, never an exception.

Drives ``cli.run`` in-process over named specs whose parameter is small or
one digit repeated 4000-5000 times (all zeros among them), on both sides of
the 4300 digits ``int()`` converts, ``perm:`` strings (elementary
abelian C2^k up to k = 7, where C2^7 has more subgroups than
``lattice.MAX_SUBGROUPS``, and random cycles), and malformed
text, under subgroups, spec, marks, residual, ring-spec, fibers and member
with good and bad ``--prime`` values (a prime above 10^18 and 2^64 among
them), good and bad ``marks --level`` and ``member --ideal``/``--level``/
``--element`` values, every ``--format`` and ``--max-order`` values on both
sides of ``groups.MAX_ORDER``.
"""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from btspec.cli import run

from conftest import C2_7

# str(int) refuses more than 4300 digits, so long parameters are built as strings.
LONG = st.builds(lambda d, k: d * k, st.sampled_from("0123456789"), st.integers(4000, 5000))
NAMED = st.builds(
    "{}{}".format, st.sampled_from("CDQSA"), st.one_of(st.integers(-1, 9).map(str), LONG)
)
ELEMENTARY = st.integers(1, 7).map(
    lambda k: "perm:" + ";".join(f"({2 * i} {2 * i + 1})" for i in range(k))
)
CYCLES = st.lists(
    st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True).map(
        lambda pts: "(" + " ".join(map(str, pts)) + ")"
    ),
    min_size=1,
    max_size=3,
).map(lambda gens: "perm:" + ";".join(gens))
MALFORMED = st.text(alphabet="CDQSAperm:();,x -0123456789", max_size=16)
SPECS = st.one_of(NAMED, ELEMENTARY, CYCLES, MALFORMED)

COMMANDS = st.tuples(
    st.one_of(
        st.sampled_from([["subgroups"], ["spec"], ["marks"]]),
        st.one_of(st.integers(-1, 8), st.sampled_from([10**18 + 3, 2**64])).map(
            lambda p: ["residual", "--prime", str(p)]
        ),
        st.integers(-1, 8).map(lambda p: ["ring-spec", "--prime", str(p)]),
        st.sampled_from([*map(str, range(9)), "GENERIC", "junk"]).map(
            lambda p: ["fibers", "--prime", p]
        ),
        st.sampled_from(["e", "C2", "C3", "junk"]).map(lambda l: ["marks", "--level", l]),
        st.tuples(
            st.sampled_from(["e,0", "e,2", "C2,3", "e,6", "e,x", "e", "junk,2"]),
            st.sampled_from(["e", "C2", "junk"]),
            st.sampled_from(["1", "1,0", "2,-1", "x", ""]),
        ).map(lambda f: ["member", "--ideal", f[0], "--level", f[1], "--element", f[2]]),
    ),
    st.sampled_from(["text", "json", "dot"]),
).map(lambda cf: [*cf[0], "--format", cf[1]])
MAX_ORDERS = st.sampled_from(["0", "24", "60", "128", "200", "4097", "1000000"])


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=SPECS, command=COMMANDS, max_order=MAX_ORDERS)
@example(spec=C2_7, command=["spec"], max_order="128")
@example(spec="S8", command=["subgroups"], max_order="50000")
@example(spec="C" + "9" * 4400, command=["subgroups"], max_order="24")
@example(spec="A4", command=["residual", "--prime", str(10**18 + 3)], max_order="24")
@example(spec="A4", command=["marks", "--level", "K4"], max_order="24")
@example(
    spec="A4",
    command=["member", "--ideal", "K4,2", "--level", "A4", "--element", "0,0,1,0,0"],
    max_order="24",
)
def test_cli_exits_cleanly(spec, command, max_order):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--no-cache", "--max-order", max_order, command[0], spec, *command[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
