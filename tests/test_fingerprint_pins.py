"""Literal cache fingerprints, taken at the commit before the variant
fold (PR 12's parent): a refactor of machine identity must not move
them, or every cached result and every ledger ``run_id`` is orphaned.

A pin may change only together with ``CACHE_VERSION`` — or, for one
machine, when the PR says which configurations it re-keys and why.
"""

import pytest

from repro import make_machine
from repro.net.faults import CrashEvent, FaultPlan
from repro.net.overhead import OverheadPreset

#: name -> (make_machine arguments, fingerprint(1), fingerprint(8)).
#: ``None``: re-keyed by PR 12 on purpose (the HS 1-processor baseline
#: dropped the fault plan, as AS and TreadMarks always had); pinned to
#: the plain ``hs`` baseline below instead.
PINS = {
    "treadmarks": (
        ("treadmarks", {}),
        "a3751576500c74644aa131efd509913d04eb9737d04b94b53951a3a19679d77f",
        "a61c163e59025eb71c6acaf90337fcc265834be22ad07cf653557d2544b10e8a"),
    "sgi": (
        ("sgi", {}),
        "9aff2ea13844f699177c2088e8bf9c753ad4e24ab600872e6d2d5f12256b6b7b",
        "9aff2ea13844f699177c2088e8bf9c753ad4e24ab600872e6d2d5f12256b6b7b"),
    "as": (
        ("as", {}),
        "993581c83df9ff304b70294970ef40cb2e6f4ffbf2516c16a7e23aed269255e1",
        "53a65219c06f9c4aeea0805226f8fdb14a7a72df88214bd6cac56f57fe28e40f"),
    "ah": (
        ("ah", {}),
        "65efaaabe55e3ad551c11d3228d40471a9352d3c7afd9fff658640be219a5e5f",
        "65efaaabe55e3ad551c11d3228d40471a9352d3c7afd9fff658640be219a5e5f"),
    "hs": (
        ("hs", {}),
        "9de2a9730549b2cab489b491e139cfa25ead1da8f65f2ddc9d43120474f60371",
        "9de2a9730549b2cab489b491e139cfa25ead1da8f65f2ddc9d43120474f60371"),
    "as-mcs+tree": (
        ("as", dict(sync="mcs+tree")),
        "993581c83df9ff304b70294970ef40cb2e6f4ffbf2516c16a7e23aed269255e1",
        "212e965d5538fd7bb689b49dd76cc397aac9ac802708d281f7af64bd76c7fc59"),
    "ah-mcs+tree": (
        ("ah", dict(sync="mcs+tree")),
        "61cf6da8a5f291b0cef2dfa1f8026c09c2db722a663f98540596f6c8ae84cad3",
        "61cf6da8a5f291b0cef2dfa1f8026c09c2db722a663f98540596f6c8ae84cad3"),
    "hs8-no-twins": (
        ("hs", dict(ablate="no-twins")),
        "9de2a9730549b2cab489b491e139cfa25ead1da8f65f2ddc9d43120474f60371",
        "c8901b88502576f65715ceb6b78d2bf880731668ed66b47bf2e9bcc53920ca84"),
    "treadmarks-loss0.02": (
        ("treadmarks", dict(faults=FaultPlan(loss_rate=0.02, seed=7))),
        "a3751576500c74644aa131efd509913d04eb9737d04b94b53951a3a19679d77f",
        "f512fbda108e479e5f81dd7566d72f9ecc0762b113798f5707dde2bd9b07e2cb"),
    "treadmarks-eager": (
        ("treadmarks", dict(eager_locks="all")),
        "a3751576500c74644aa131efd509913d04eb9737d04b94b53951a3a19679d77f",
        "e853259d3cd304071357c119bc9e4506d8b913d97ed3c239542624b15768b389"),
    "treadmarks-kernel": (
        ("treadmarks", dict(kernel_level=True)),
        "a3751576500c74644aa131efd509913d04eb9737d04b94b53951a3a19679d77f",
        "5875124cefe171abb37f65f43587d2d04a0300738cdced413524b17fd43f3f1a"),
    "as-shrimp": (
        ("as", dict(overhead_preset=OverheadPreset.SHRIMP)),
        "993581c83df9ff304b70294970ef40cb2e6f4ffbf2516c16a7e23aed269255e1",
        "3a174e4a8b8170bef2a4db6a5877a88d518b13e1f739811705941f9b9a7cf87d"),
    "as-crash3t500000": (
        ("as", dict(faults=FaultPlan(crashes=(CrashEvent(3, 500_000),)))),
        "993581c83df9ff304b70294970ef40cb2e6f4ffbf2516c16a7e23aed269255e1",
        "1bf0600278ce5bbb9de1953feca52437d6ad7ce2007d73dfb7a3876703581d4d"),
    "as-mcs+tree-no-diffs-loss0.01": (
        ("as", dict(sync="mcs+tree", ablate="no-diffs",
                    faults=FaultPlan(loss_rate=0.01, seed=42))),
        "993581c83df9ff304b70294970ef40cb2e6f4ffbf2516c16a7e23aed269255e1",
        "c595676426a1c12c3a848359b55a179051214dc3c3af8fcb748e04b32f3e3dd0"),
    "hs8-ticket+central-no-piggyback-loss0.01": (
        ("hs", dict(sync="ticket", ablate="no-piggyback",
                    faults=FaultPlan(loss_rate=0.01, seed=42))),
        None,
        "fd7f31d95471ed15edb64c931dd9c4e540bcc1359b9f2ca83918c9cb37738640"),
}


@pytest.fixture(autouse=True)
def unchecked(monkeypatch):
    """The pins are unchecked keys; one CI leg runs the suite with
    ``REPRO_CHECK=1``, which forks every fingerprint on purpose."""
    monkeypatch.delenv("REPRO_CHECK", raising=False)


@pytest.mark.parametrize("name", PINS)
def test_fingerprint_pinned(name):
    (machine_name, kwargs), at_one, at_eight = PINS[name]
    machine = make_machine(machine_name, **kwargs)
    assert machine.name == ("hs8" if name == "hs" else name)
    assert machine.fingerprint(8) == at_eight
    assert machine.fingerprint(1) == (at_one or PINS["hs"][1])
