"""A block read between two central points, I or -I, is read once.

``meyer.local_signature`` treats a prefix of -I as a block point, as it
does I.  The argument: Meyer's cocycle identity telescopes over a block
B = T_1 ... T_m with product P_B, read from any prefix Z,

    sum_j tau(Z P_{j-1}, T_j) = sigma_loc(B) + tau(Z, P_B),

and tau vanishes on {I, -I}^2.  These tests pin both facts with the
general cocycle ``meyer_tau``, and hold the walk to the per-letter
oracle in ``tests/local_signature_oracle`` on drawn words that pass
through -I and on the benchmark's ladder and conjugated words (the
fixture words are in ``tests/test_block_signature.py``).
"""

import sys
import types
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcgcalc import fixture_path, meyer, parser, system as system_module, words
from mcgcalc import symplectic as sp
from mcgcalc.meyer import local_signature, meyer_tau
from mcgcalc.parser import parse_system, parse_word
from mcgcalc.words import push_forward_word
from tests import local_signature_oracle as oracle
from tests.test_block_signature import assert_same_as_oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def central(g):
    identity = sp.mat_identity(2 * g)
    return identity, tuple(tuple(-x for x in row) for row in identity)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_tau_vanishes_on_plus_minus_identity(g):
    for z in central(g):
        for p in central(g):
            assert meyer_tau(z, p) == 0


def read_from(z, steps):
    """The Meyer sum of the steps read from the prefix z, one general
    cocycle per letter, minus the null-homologous letters."""
    total = 0
    for u, s in steps:
        if any(u):
            total += meyer_tau(z, sp.transvection(u, s))
            z = sp.twist_product(z, ((u, s),))
        else:
            total -= 1
    return total


small_class = st.tuples(*[st.integers(-2, 2)] * 4)
step = st.tuples(small_class, st.sampled_from([1, -1]))


@given(z_twists=st.lists(step, max_size=6), block=st.lists(step, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_block_read_from_any_prefix_telescopes(g2, z_twists, block):
    identity = sp.mat_identity(4)
    z = sp.twist_product(identity, z_twists)
    sigma, product = local_signature(g2, block)
    assert product == sp.twist_product(identity, block)
    event("Z central" if z in central(2) else "Z not central")
    assert read_from(z, block) == sigma + meyer_tau(z, product)


@pytest.fixture(scope="module")
def g3n():
    """The genus-3 fixture plus one null-homologous curve ``n``."""
    return parse_system(fixture_path("genus3_chain.mcg").read_text() + "curve n = 0\n")


def halves(system, texts):
    return [list(parse_word(system, text).letters) for text in texts]


@pytest.fixture(scope="module")
def lib2(g2):
    # the halves of the chain relator and of rho both act as -I
    return g2, {
        "halves": halves(g2, ["c1 c2 c3 c4 c5^2 c4 c3 c2 c1", "c5 c4 c3 c2 c1^2 c2 c3 c4 c5"]),
        "nulls": [(g2.letter("k"), 1), (g2.letter("del"), 1)],
        "conj": ["c1", "c2", "c3", "c4", "c5"],
        "opaque": None,
    }


@pytest.fixture(scope="module")
def lib3(g3n):
    return g3n, {
        "halves": halves(g3n, ["c1 c2 c3 c4 c5 c6 c7^2 c6 c5 c4 c3 c2 c1"]),
        "nulls": [(g3n.letter("n"), 1)],
        "conj": ["c1", "c2", "c3", "f1", "t"],
        "opaque": (g3n.letter("x1"), 1),
    }


@st.composite
def through_minus_identity(draw, system, lib):
    """A word that passes through -I: a half H (perhaps with null letters
    inside), then H^k, H [W]H H, a partial repeat, or a near miss (H with
    one letter's sign changed), and perhaps an opaque letter."""
    half = list(draw(st.sampled_from(lib["halves"])))
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(half)))
        half[pos:pos] = [draw(st.sampled_from(lib["nulls"]))]
    shape = draw(st.sampled_from(["power", "conjugate", "partial", "near miss"]))
    event(shape)
    runs = draw(st.integers(1, 4))
    if shape == "power":
        pairs = half * runs
    elif shape == "conjugate":
        conj = draw(st.lists(st.tuples(st.sampled_from(lib["conj"]), st.sampled_from([1, -1])),
                             min_size=1, max_size=4))
        twisted = push_forward_word(system.word(conj), system.word(half))
        pairs = half + list(twisted.letters) + half
    elif shape == "partial":
        pairs = half * runs + half[: draw(st.integers(0, len(half) - 1))]
    else:
        i = draw(st.integers(0, len(half) - 1))
        letter, sign = half[i]
        miss = half[:i] + [(letter, -sign)] + half[i + 1:]
        pairs = half * runs + miss + half * draw(st.integers(0, 2))
    if lib["opaque"] and draw(st.booleans()):
        pos = draw(st.integers(0, len(pairs)))
        pairs[pos:pos] = [lib["opaque"]]
    return pairs


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_words_through_minus_identity_match_oracle_genus2(lib2, data):
    system, lib = lib2
    assert_same_as_oracle(system, data.draw(through_minus_identity(system, lib)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_words_through_minus_identity_match_oracle_genus3(lib3, data):
    system, lib = lib3
    assert_same_as_oracle(system, data.draw(through_minus_identity(system, lib)))


@pytest.fixture
def applied(monkeypatch):
    """The steps the walk applies to its prefix, through the one rank-1 routine."""
    seen = []
    real = sp._twist_rows

    def spy(rows, twists):
        twists = list(twists)
        seen.extend(twists)
        real(rows, twists)

    monkeypatch.setattr(sp, "_twist_rows", spy)
    return seen


def test_near_miss_after_minus_identity_is_read(g2, applied):
    # the same classes with one sign changed is another block: it is read
    # letter by letter, and the walk jumps again only past true repeats;
    # the miss never closes, so it is read again from its prefix -I
    half = list(parse_word(g2, "c5 c4 c3 c2 c1^2 c2 c3 c4 c5").letters)
    letter, sign = half[3]
    miss = half[:3] + [(letter, -sign)] + half[4:]
    pairs = half * 3 + miss
    steps = sp._known_classes(g2, pairs)
    sigma, product = local_signature(g2, steps)
    assert applied == steps[: len(half)] + steps[3 * len(half):] * 2
    assert (sigma, product) == oracle.local_signature(g2, pairs)


def perfbench_words(builder, tmp_path):
    """The words a benchmark builder writes, parsed: (system, word) pairs."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    prog = types.SimpleNamespace(
        parser=parser, system=system_module, words=words, meyer=meyer, fixture_path=fixture_path)
    cases = []
    for op in getattr(workloads, builder)(prog, tmp_path, 1):
        path, name = op.argv[1], op.argv[2]
        system = parse_system(Path(path).read_text(), path)
        cases.append((system, system.words[name]))
    return cases


@pytest.mark.parametrize("builder", ["build_ladder", "build_conjugated"])
def test_benchmark_words_match_oracle(builder, tmp_path):
    cases = perfbench_words(builder, tmp_path)
    assert len(cases) >= 9
    for system, w in cases:
        sigma, product = assert_same_as_oracle(system, w.letters)
        assert product == sp.mat_identity(2 * system.genus)

