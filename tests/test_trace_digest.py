"""Trace.digest is pinned: checkpoint keys are derived from it.

``Trace.digest`` hashes each instruction's ``json.dumps(record,
sort_keys=True)`` plus a newline.  The committed digests below were
produced by that loop for every member of every registered suite at
``SCALE``; :func:`reference_digest` keeps the loop itself, and the
hand-built traces hit the records a faster encoder could render
differently: escaped labels, ``None`` against ``0``, every srcs length,
and the odd field types ``Instruction`` accepts (``dest=True``, a float
``pc``, a bool in ``srcs``) that encode unlike the ints they equal.
"""

import enum
import hashlib
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.trace.trace import Trace
from repro.workloads.registry import get_suite, suite_names

#: Suite scale of the committed digests.
SCALE = 0.05

#: ``(suite, member) -> sha256`` of the member's trace at ``SCALE``.
PINNED_DIGESTS = {
    ("branch-storm", "storm_even"): "a0e72c508a1537958bc8e995690fe8e22de2689b8ea59bc926ac2705c8b22d5b",
    ("branch-storm", "storm_biased"): "cb7d6dbcbfa573a85498a4b6c2fafe6f3b82f725e92b36eefefe899caea05663",
    ("branch-storm", "storm_dense"): "3116d1d88596a944491c8c152b59da3947be67a9010c21659833094ed9e3ebfc",
    ("chase-xl", "chase_cold"): "035103abd0e05a0b6a6f00177862f91c49947af67ddfba495cd7ac7a682eff05",
    ("chase-xl", "chase_warm"): "9a0361e872d406733acba8bd488032527bdaf325ae294a602f0608f53d8cd7b5",
    ("chase-xl", "chase_mlp"): "ee86ae387e1b0538f95769d8fa8976c128bbc8a2e6471c32e6975dd763866e4b",
    ("chase-xl", "chase_work"): "8602d7a530d967733437147cc83c6246f12f539e254c59d4d5c6d3b9b07a2acd",
    ("integer_like", "pointer_chase"): "c55174828b70241ca48bd8c712220436acc297bc9ef6c2f84e980f61cce552bf",
    ("integer_like", "branchy_int"): "44135e81b422353805c9930093f981a2f3a4aedf12fc75c267d2ab41aa093249",
    ("integer_like", "mixed"): "bfe86e6e297fa116274e67dbc7ed30c70f985a11e4062de5209acf371890f678",
    ("pointer-chase", "chase_cold"): "ef303393181ebd3012a2fd669fec0dbd0b70b19c33dcc3c00b4b0ab9ece70c24",
    ("pointer-chase", "chase_warm"): "9c92335e3bf27f8d81e4a604580dcfe29a280a829ac2e9664c1f74b85dc16192",
    ("pointer-chase", "chase_mlp"): "87d4879c47301a5d9b6a90cadd854f90624edee1f9f52bffedeba32cb961d529",
    ("pointer-chase", "chase_work"): "fea7a70343fe6d7ee24375be73f94ebb5dad2a8ef76a7b2c177bd0117179efa9",
    ("server-mix", "phased"): "53bd405cb138de2b905a4d921baf99d018acfafead2fd849a8f5bd240fd78a34",
    ("server-mix", "interleaved"): "72a3a4a8f83dd7a76e2314b929b6de94858a7dfb455d23a9d2f5e1c8c654f019",
    ("server-mix", "bursty"): "c1ae387265474b9f91e9716c3cbb93109fa7b061dcd70f1ac09e81efce083c3e",
    ("server-mix-xl", "phased"): "e6f051535c11fd2f67b0dc0627d505d96fb45ca4961af62bd9ac60d7ad0664bd",
    ("server-mix-xl", "interleaved"): "2416e32def6d0ef6749114fdc2f59eb2743e2e78d72c7ada4478c5f1a7dd559d",
    ("server-mix-xl", "bursty"): "48752b47e5a97d3c961b89dc5bbdee9d6a999c1bf0bda29c8434fd0baba57b8c",
    ("spec2000fp-xl", "daxpy"): "8fb3639d1a25fc7b590f805f1994f041f2f4a029573a01f610e43a1a2cd95d31",
    ("spec2000fp-xl", "triad"): "8807e448a89222aa643568bede14400e62e8cdc2130fb6d09d031958bb288938",
    ("spec2000fp-xl", "stencil3"): "966771be0869766b31b690e2e11d7bfe72be3a0b8b132e02a9a910512ba9fa6d",
    ("spec2000fp-xl", "reduction"): "ef16f1ab15ab43be8aefe7ceb6627fba56677754a79a2e203ecffc1da0b005de",
    ("spec2000fp-xl", "gather"): "11c663025c0432ad95a5625c170c7b08a1501de70fa2891c65df4767c06f456e",
    ("spec2000fp-xl", "matvec"): "8b5c41c9b755e08089a27d4d467a71c72d15726ef292c03a9fcdd4e2306e5a02",
    ("spec2000fp-xl", "blocked"): "f0f065b7d958a8fbd9bbef8d3e9d7a84c43b819127c7dfd101d3a81470e73052",
    ("spec2000fp-xl", "fp_compute"): "ebf5113889ff22f94def6118f19a2bac97c618239e23e3045d7c464d2815e142",
    ("spec2000fp_like", "daxpy"): "542726c23712dc3166d35a880ba89e78d276a27a1b8b6a6e41dd76313dc17878",
    ("spec2000fp_like", "triad"): "f5031b29d662ec1b666b474bc91e87f222f7e1e0ff10c2216966a22f884d9666",
    ("spec2000fp_like", "stencil3"): "c911aff508c6a0ca9674c84516d1c2f35a92f85df862ab2af633493ea5692c5c",
    ("spec2000fp_like", "reduction"): "7486fc089ea0a56e7a8eb3a2727f5f596a115be26259ec97d495e1828c3a759f",
    ("spec2000fp_like", "gather"): "e4f6ab6b6f712a8db74383196f8432bf211d9032ba57e86528543b099390928c",
    ("spec2000fp_like", "matvec"): "5946b65801bf2e37c31ec8ebce12972608d8e1598c264ac434446f174d8273d0",
    ("spec2000fp_like", "blocked"): "01e9981d8e094ffd62a332c112a1d63268a0387897cb8c4094b4aca8ac9b876a",
    ("spec2000fp_like", "fp_compute"): "8a657f1123050a804ecd64e59401fc0b5946b242ae5c243b66f86b86c36eee37",
}


def reference_digest(trace):
    """The record-by-record JSON loop every digest is defined by."""
    hasher = hashlib.sha256()
    for instr in trace:
        hasher.update(json.dumps(instr.to_record(), sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def test_every_registered_suite_member_is_pinned():
    members = {
        (name, member.name) for name in suite_names() for member in get_suite(name)
    }
    assert members == set(PINNED_DIGESTS)


@pytest.mark.parametrize("suite", sorted({suite for suite, _ in PINNED_DIGESTS}))
def test_suite_digests_are_pinned(suite):
    traces = get_suite(suite).build(scale=SCALE)
    assert {member: trace.digest() for member, trace in traces.items()} == {
        member: digest for (name, member), digest in PINNED_DIGESTS.items() if name == suite
    }


class _Hex(int):
    """An int subclass that prints in hex, unlike the decimal JSON writes."""

    def __str__(self):
        return hex(self)

    def __format__(self, spec):
        return hex(self)

    __repr__ = __str__


@dataclass(frozen=True, slots=True)
class _Tagged(Instruction):
    """A subclass whose record carries one more field."""

    tag: str = "extra"

    def to_record(self):
        return {**Instruction.to_record(self), "tag": self.tag}


class _ForeignOp(enum.Enum):
    CUSTOM = "custom"


def _instr(**fields):
    fields.setdefault("pc", 0x400)
    fields.setdefault("op", OpClass.INT_ALU)
    return Instruction(**fields)


HAND_BUILT = {
    "labels": [
        _instr(label='say "hi"'),
        _instr(label="back\\slash"),
        _instr(label="caf\u00e9 \u03bb \u2603 \U0001f600"),
        _instr(label="}, {"),
        _instr(label='"}, {"pc": 1, "x": "'),
        _instr(label="tab\tnew\nline\x00"),
        _instr(label=""),
    ],
    "none-and-zero": [
        _instr(dest=None),
        _instr(dest=0),
        _instr(op=OpClass.LOAD, dest=0, mem_addr=0),
        _instr(op=OpClass.STORE, mem_addr=0, srcs=(0,)),
        _instr(op=OpClass.BRANCH, branch_target=None),
        _instr(op=OpClass.BRANCH, branch_taken=True, branch_target=0),
        _instr(pc=0, mem_size=0),
    ],
    "srcs-lengths": [
        _instr(srcs=()),
        _instr(srcs=(5,)),
        _instr(srcs=(1, 33, 63)),
        _instr(srcs=(7, 7)),
    ],
    "branches-and-exceptions": [
        _instr(op=OpClass.BRANCH, branch_taken=True, branch_target=0x1000),
        _instr(op=OpClass.BRANCH, branch_taken=False, branch_target=0x1000),
        _instr(op=OpClass.LOAD, dest=40, mem_addr=0xDEAD00, raises_exception=True),
        _instr(op=OpClass.FP_STORE, mem_addr=8, mem_size=4, srcs=(33, 2)),
        _instr(op=OpClass.NOP, pc=-4),
        _instr(pc=2**70, mem_size=2**40),
    ],
    # Each odd value hashes and compares equal to an int the fast path
    # renders, so it comes right after (and before) that int.
    "odd-types": [
        _instr(dest=1),
        _instr(dest=True),
        _instr(dest=1),
        _instr(srcs=(1,)),
        _instr(srcs=(True,)),
        _instr(srcs=(1,)),
        _instr(srcs=(2, False)),
        _instr(srcs=(2, 0)),
        _instr(srcs=(1.0,)),
        _instr(pc=4096.0),
        _instr(pc=4096),
        _instr(pc=True),
        _instr(op=OpClass.LOAD, dest=1, mem_addr=64.0),
        _instr(op=OpClass.BRANCH, branch_taken=1, branch_target=8),
        _instr(op=OpClass.BRANCH, branch_taken=True, branch_target=8.0),
        _instr(raises_exception=1),
        _instr(raises_exception=0),
        _instr(mem_size=8.0),
        _instr(mem_size=True),
        _instr(label=None),
        _instr(label=1),
        _instr(label=True),
        _instr(srcs=[3, 4]),
        _instr(op=OpClass.BRANCH, branch_target=True),
        _instr(op=OpClass.BRANCH, branch_target=float("inf")),
        _instr(mem_addr=False),
        _instr(mem_addr=float("nan")),
        _instr(pc=_Hex(4096)),
        _instr(dest=_Hex(3)),
        _instr(srcs=(_Hex(3),)),
        _instr(srcs=(3,)),
        _Tagged(pc=0x400, op=OpClass.INT_ALU),
        _instr(op=_ForeignOp.CUSTOM),
    ],
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_traces_hash_like_the_json_loop(case):
    trace = Trace(HAND_BUILT[case])
    assert trace.digest() == reference_digest(trace)


def test_odd_records_across_chunk_boundaries():
    """Thousands of alternating int and odd records, spanning several
    sha256 updates, still hash like the loop."""
    odd = HAND_BUILT["odd-types"]
    trace = Trace([odd[i % len(odd)] for i in range(9001)])
    assert trace.digest() == reference_digest(trace)


_reg = st.integers(min_value=0, max_value=63)
_odd_number = st.one_of(st.booleans(), st.floats(), _reg.map(float), _reg.map(_Hex))
_odd_reg = st.one_of(st.booleans(), st.floats(0, 63.5), _reg.map(_Hex))

#: A value each field accepts that is not its plain type.
_ODD = {
    "pc": _odd_number,
    "dest": _odd_reg,
    "srcs": st.lists(st.one_of(_reg, _odd_reg), min_size=1, max_size=3).map(tuple),
    "mem_addr": _odd_number,
    "mem_size": _odd_number,
    "branch_taken": st.sampled_from([0, 1, None, 1.0]),
    "branch_target": _odd_number,
    "raises_exception": st.sampled_from([0, 1, None, 1.0]),
    "label": st.one_of(st.none(), st.integers(), st.booleans()),
}


@st.composite
def _instructions(draw):
    """A plain record, or one with a single field of an odd type."""
    op = draw(st.sampled_from(list(OpClass)))
    store = op in (OpClass.STORE, OpClass.FP_STORE)
    memory = store or op in (OpClass.LOAD, OpClass.FP_LOAD)
    fields = {
        "pc": draw(st.integers(-(2**64), 2**64)),
        "op": op,
        "dest": None if store else draw(st.one_of(st.none(), _reg)),
        "srcs": tuple(draw(st.lists(_reg, max_size=3))),
        "mem_addr": draw(st.integers(0, 2**48) if memory else st.none()),
        "mem_size": draw(st.sampled_from([1, 2, 4, 8])),
        "branch_taken": draw(st.booleans()),
        "branch_target": draw(st.one_of(st.none(), st.integers(0, 2**32))),
        "raises_exception": draw(st.booleans()),
        "label": draw(st.text(max_size=12)),
    }
    odd = draw(st.sampled_from([None, *_ODD]))
    if odd is not None and not (odd == "dest" and store):
        fields[odd] = draw(_ODD[odd])
    if op is OpClass.BRANCH and fields["branch_taken"] and fields["branch_target"] is None:
        fields["branch_target"] = 0
    return Instruction(**fields)


@settings(max_examples=40, deadline=None)
@given(st.lists(_instructions(), min_size=1, max_size=40))
def test_random_records_hash_like_the_json_loop(instrs):
    trace = Trace(instrs)
    assert trace.digest() == reference_digest(trace)
