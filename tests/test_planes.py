"""The one plane list: the install path, and a fourth plane that only
the plane table knows about.

The fourth plane is a stub registered in ``repro.scenario.PLANES`` for
the test's duration.  Nothing in the fabric, the world engine, the
checkpoint serde or the shard merge names it, yet the fabric consults
it, the engine drives it, a barrier snapshot carries it and the merge
compares it.
"""

import pytest

from repro import scenario as scenario_module
from repro.attacks import ATTACK_PROFILES
from repro.checkpoint.serde import restore_runtime, serialize_runtime
from repro.core.study import SixWeekStudy, StudyConfig
from repro.dns.message import DnsQuery
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.errors import ConfigurationError, ShardError
from repro.faults import PROFILES
from repro.net.ipaddr import IPv4Address
from repro.scenario import PlaneKind
from repro.shard.merge import merge_payloads, worker_payload
from repro.traffic import TRAFFIC_PROFILES
from repro.world import SimulatedInternet, WorldConfig

BLOCKED = IPv4Address("203.0.113.9")


def tiny_world():
    return SimulatedInternet(WorldConfig(population_size=40, seed=3))


class TestInstallRefusesTheWrongKind:
    @pytest.mark.parametrize(
        "installer, wrong",
        [
            ("install_faults", lambda world: TRAFFIC_PROFILES["surge"]),
            ("install_traffic", lambda world: ATTACK_PROFILES["campaign"]),
            ("install_attacks", lambda world: PROFILES["lossy-default"]),
            ("install_faults", lambda world: world.install_traffic("surge")),
            ("install_traffic", lambda world: world.install_faults("heavy-loss")),
            ("install_attacks", lambda world: world.install_traffic("steady")),
        ],
        ids=[
            "fault<-traffic-profile",
            "traffic<-attack-profile",
            "attacks<-fault-profile",
            "fault<-traffic-plane",
            "traffic<-fault-plane",
            "attacks<-traffic-plane",
        ],
    )
    def test_wrong_kind_is_a_configuration_error(self, installer, wrong):
        world = tiny_world()
        candidate = wrong(tiny_world())
        with pytest.raises(ConfigurationError, match="cannot install"):
            getattr(world, installer)(candidate)
        assert dict(world.fabric.planes) == {}

    def test_unknown_plane_refused(self):
        with pytest.raises(ConfigurationError, match="unknown plane"):
            tiny_world().install_plane("weather", "storm")


class _StubVerdict:
    outcome = "stub-drop"
    response = None
    latency_ms = 7


class StubPlane:
    """A fourth plane: drops deliveries to one address, counts days."""

    traffic_surge = 1.0

    def __init__(self):
        self.days = 0
        self.surges = []

    def admit_dns(self, address, query, region, attempt=1):
        return _StubVerdict() if address == BLOCKED else None

    def admit_http(self, address, host, region, attempt=1):
        return _StubVerdict() if address == BLOCKED else None

    def drive_day(self, surge):
        self.days += 1
        self.surges.append(surge)
        return ()

    def drive_state(self):
        return {"days": self.days}

    def state_dict(self):
        return {"days": self.days, "surges": list(self.surges)}

    def restore_state(self, state):
        self.days = state["days"]
        self.surges = list(state["surges"])


class StubProfile:
    name = "on"

    def build(self, world, metrics=None):
        return StubPlane()


@pytest.fixture
def stub_kind(monkeypatch):
    monkeypatch.setattr(
        scenario_module,
        "PLANES",
        scenario_module.PLANES
        + (
            PlaneKind(
                "stub",
                "stub_profile",
                "--stub",
                "install the stub plane",
                {"on": StubProfile()},
                StubProfile,
                StubPlane,
            ),
        ),
    )


def _begun(shard_index=0, shard_count=1):
    world = tiny_world()
    study = SixWeekStudy(world, StudyConfig(warmup_days=2, study_days=2))
    runtime = study.begin(shard_index, shard_count)
    return study, runtime


@pytest.mark.usefixtures("stub_kind")
class TestFourthPlane:
    def test_installs_through_the_one_path(self):
        world = tiny_world()
        plane = world.install_plane("stub", "on")
        assert isinstance(plane, StubPlane)
        assert world.fabric.planes["stub"] is plane
        with pytest.raises(ConfigurationError, match="unknown stub profile"):
            world.install_plane("stub", "off")

    def test_the_fabric_consults_it_last(self):
        world = tiny_world()
        world.install_plane("stub", "on")
        world.install_faults("heavy-loss")
        assert list(world.fabric.planes) == ["fault", "stub"]
        query = DnsQuery(DomainName("www.example.com"), RecordType.A)
        outcomes = {
            world.fabric.deliver_dns(BLOCKED, query, attempt=attempt).outcome
            for attempt in range(1, 41)
        }
        # heavy-loss drops some deliveries first; the rest reach the stub.
        assert "stub-drop" in outcomes
        assert outcomes <= {"stub-drop", "loss", "servfail"}

    def test_the_engine_drives_it_after_the_attack_surge(self):
        world = tiny_world()
        attacks = world.install_attacks("campaign")
        stub = world.install_plane("stub", "on")
        seen = []
        for _ in range(6):
            world.engine.run_day()
            seen.append(attacks.traffic_surge)
        assert stub.days == 6
        assert stub.surges == seen
        assert max(seen) > 1.0

    def test_a_barrier_snapshot_carries_and_restores_it(self):
        study, runtime = _begun()
        study.world.install_plane("stub", "on")
        study.world.engine.run_days(3)
        state = serialize_runtime(study, runtime)
        assert state["planes"]["stub"] == {"days": 3, "surges": [1.0] * 3}

        rebuilt, rebuilt_runtime = _begun()
        stub = rebuilt.world.install_plane("stub", "on")
        restore_runtime(rebuilt, rebuilt_runtime, state)
        assert stub.days == 3

    def test_merge_refuses_workers_whose_stub_disagrees(self):
        payloads = []
        for index in range(2):
            study, runtime = _begun(index, 2)
            stub = study.world.install_plane("stub", "on")
            stub.drive_day(1.0)
            if index == 1:
                stub.drive_day(1.0)
            payloads.append(worker_payload(study, runtime, since=None))
        with pytest.raises(ShardError, match="disagree on the stub plane's state"):
            merge_payloads(payloads)
