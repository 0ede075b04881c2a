"""Hawkeye replies: size and wire come from one ``serialize()`` per ad."""

import numpy as np
import pytest

from repro.classad.ads import ClassAd
from repro.core.kernels.hawkeye import AgentKernel, ManagerDirectoryKernel
from repro.core.kernels.ops import OP_CLOCK, OP_QUEUE_DEPTH
from repro.core.params import default_params
from repro.hawkeye import Agent, Manager, make_default_modules, synthesize_startd_ad


def drive(gen):
    """Play runtime: an idle lock, a fixed clock, every other op a no-op."""
    replies = {OP_CLOCK: 100.0, OP_QUEUE_DEPTH: 0}
    try:
        op = gen.send(None)
        while True:
            op = gen.send(replies.get(op.tag))
    except StopIteration as stop:
        return stop.value


@pytest.fixture
def serializations(monkeypatch):
    """Counts calls of ``ClassAd.serialize``."""
    calls = []
    original = ClassAd.serialize

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ClassAd, "serialize", counting)
    return calls


def pool_manager(n):
    manager = Manager("lucky3")
    rng = np.random.default_rng(7)
    for i in range(n):
        manager.receive_ad(synthesize_startd_ad(f"lucky{i}.mcs.anl.gov", rng), now=0.0)
    return manager


def test_sized_text_is_serialize_plus_the_old_size():
    ad = synthesize_startd_ad("lucky4.mcs.anl.gov", np.random.default_rng(3))
    text, size = ad.sized_text()
    assert text == ad.serialize()
    assert size == ad.estimated_size() == len(ad.serialize()) + 2


@pytest.mark.parametrize("wire", [False, True])
def test_agent_reply_serializes_its_ad_once(serializations, wire):
    agent = Agent("lucky4.mcs.anl.gov", make_default_modules(), seed=1)
    kernel = AgentKernel(agent, default_params().agent, startd_lock=object(), wire=wire)
    response = drive(kernel.handle(None))
    assert serializations == []  # the Agent assembled the text while building the ad
    ad = Agent("lucky4.mcs.anl.gov", make_default_modules(), seed=1).query(now=100.0).ad
    assert response.size == len(ad.serialize()) + 2  # what estimated_size() always was
    assert response.value["attrs"] == len(ad)
    assert response.wire == (ad.serialize().encode() if wire else None)


@pytest.mark.parametrize("machine, ads", [("lucky4.mcs.anl.gov", 1), ("nowhere.example.org", 0)])
def test_directory_manager_reply_serializes_each_ad_once(serializations, machine, ads):
    manager = pool_manager(6)
    kernel = ManagerDirectoryKernel(manager, default_params().manager, wire=True)
    response = drive(kernel.handle({"machine": machine}))
    assert len(serializations) == ads
    answer = manager.query_machine(machine)
    assert response.value == {"ads": ads}
    assert response.wire == "\n\n".join(ad.serialize() for ad in answer.ads).encode()
    old_size = sum(len(ad.serialize()) + 2 for ad in answer.ads) if answer.ads else 64
    assert answer.estimated_size() == old_size
    assert response.size == max(old_size, 512)


def test_manager_answer_of_many_ads_joins_their_texts():
    answer = pool_manager(5).query("TARGET.CpuLoad >= 0")
    assert len(answer.ads) > 1
    text, size = answer.sized_text()
    assert text == "\n\n".join(ad.serialize() for ad in answer.ads)
    assert size == answer.estimated_size() == sum(len(ad.serialize()) + 2 for ad in answer.ads)
