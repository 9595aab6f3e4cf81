"""The numeric flags of the CLI under generated input, run in process.

Each case calls ``cli.main(argv)`` on ``kernel eval``, ``monomial eval``,
``monomial pole-probe`` or ``linear-rh`` with numbers drawn from the extremes
of the float range (subnormals, ±0, 1e154, 1e308, inf, nan) and ordinary
values, and checks the CLI's contract: exit 0, 1 or 2; JSON on stdout for 0
and 1; no NaN in an exit-0 payload; and one JSON error on stderr for 2.
pyproject.toml turns a RuntimeWarning into an error, so a numpy warning on
any path fails the case too.  The draws are derandomized, so a run is
repeatable.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from armould import cli

FUZZ = settings(derandomize=True, database=None, deadline=None)

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e-154, 1e154, 1e308, -1e308, math.inf, -math.inf, math.nan]
# the extremes, ordinary values, and any float, subnormals included
reals = st.sampled_from(EXTREMES) | st.sampled_from([0.5, 1.0, 2.0, -2.0, 3.0, 1e-5, 100.0]) | st.floats()
complexes = reals.map(repr) | st.builds(lambda re, im: f"{re!r}{im:+}i", reals, reals)
# word and forest literals stay short: each letter is one more nested fold
words = st.lists(st.sampled_from(["1", "2", "3/2", "1+i"]), min_size=1, max_size=2).map(lambda ls: "(" + ",".join(ls) + ")")
forests = st.sampled_from(["1", "2(1)", "1;2", "1+i(3/2)"])


def _leaves(payload, path=()):
    if isinstance(payload, dict):
        for k, v in payload.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(payload, list):
        for v in payload:
            yield from _leaves(v, path)
    else:
        yield path, payload


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2:
        assert out == "", argv
        lines = err.strip().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}, (argv, err)
        return
    payload = json.loads(out)
    assert err == "", (argv, err)
    if rc == 0:
        # the README documents no NaN field for these four commands
        for path, value in _leaves(payload):
            assert "nan" not in str(value).lower(), (argv, path, value)
        # f_eval agrees with the closed form where both are computed (3.1e-14
        # at worst over 1,187 accepted draws), so a wrong oracle shows here
        assert float(payload.get("f_vs_oracle_rel", 0.0)) <= 1e-12, (argv, payload)


def _flag(name, value):
    # --flag=value, so that argparse never reads a value like -inf as a flag
    return f"--{name}={value if isinstance(value, str) else repr(value)}"


@FUZZ
@given(c=reals, omega=reals, y=st.none() | complexes, x=st.none() | complexes, oracle=st.booleans())
@example(c=0.0, omega=1e308, y="2", x=None, oracle=False)
@example(c=2.0, omega=5e-324, y=None, x="1e-154+46j", oracle=True)
@example(c=0.3, omega=1e-308, y=None, x="0", oracle=True)
# found by this test: a g whose phase overflows, non-finite and subnormal y,
# a subnormal c and an omega^2 that overflows in the oracle, and nodes that
# underflow at a huge x
@example(c=0.0, omega=2.0, y="0.0+1e+308i", x=None, oracle=False)
@example(c=0.0, omega=5e-324, y="inf", x=None, oracle=False)
@example(c=0.0, omega=5e-324, y="5e-324", x=None, oracle=False)
@example(c=5e-324, omega=0.5, y=None, x="1.0", oracle=True)
@example(c=0.5, omega=1.3407807929942597e154, y=None, x="0.0", oracle=True)
@example(c=0.0, omega=5e-324, y=None, x="1e+308", oracle=False)
def test_kernel_eval(c, omega, y, x, oracle):
    argv = ["kernel", "eval", _flag("c", c), _flag("omega", omega)]
    argv += [_flag("y", y)] if y is not None else []
    argv += [_flag("x", x)] if x is not None else []
    argv += ["--oracle"] if oracle else []
    _run(argv)


@FUZZ
@given(item=words.map(lambda w: ("word", w)) | forests.map(lambda f: ("forest", f)), z=complexes, c=reals)
@example(item=("word", "(1,2)"), z="-2", c=1e-160)
@example(item=("word", "(1,2)"), z="5e-30+1j", c=8e-169)
# found by this test, and a c whose rays span more than the float range
@example(item=("forest", "1"), z="-5e-324", c=2.61182048647827e-116)
@example(item=("word", "(1,2)"), z="-2", c=2e-153)
def test_monomial_eval(item, z, c):
    _run(["monomial", "eval", _flag(*item), _flag("z", z), _flag("c", c)])


@FUZZ
@given(omega=reals, c=reals)
def test_pole_probe(omega, c):
    _run(["monomial", "pole-probe", _flag("omega", omega), _flag("c", c)])


@FUZZ
@given(lam1=complexes, lam2=complexes, a12=complexes, a21=complexes, c=reals, r_max=st.integers(0, 3))
@example(lam1="0.0", lam2="0.5", a12="1e+308", a21="0.5", c=0.0, r_max=3)
def test_linear_rh(lam1, lam2, a12, a21, c, r_max):
    argv = ["linear-rh", _flag("lambda1", lam1), _flag("lambda2", lam2), _flag("a12", a12), _flag("a21", a21)]
    _run(argv + [_flag("c", c), _flag("r-max", r_max)])
