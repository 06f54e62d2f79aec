"""Cluster assembly: nodes + fabrics + shared simulation services.

:func:`build_agc_cluster` reproduces the paper's testbed: 16 AGC blades in
one enclosure, 8 forming the **InfiniBand cluster** (HCA cabled to the
Mellanox M3601Q) and 8 forming the **Ethernet cluster** (HCA present but
uncabled — the destination of a fallback migration has no usable IB).
All 16 share the 10 GbE Dell M8024 network used for TCP MPI traffic *and*
for the migration stream itself.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Optional

from repro.errors import HardwareError
from repro.hardware.calibration import Calibration, PAPER_CALIBRATION
from repro.hardware.node import PhysicalNode
from repro.hardware.specs import (
    AGC_ETH_SWITCH,
    AGC_IB_SWITCH,
    AGC_NODE_SPEC,
    NodeSpec,
)
from repro.network.ethernet import EthernetFabric
from repro.network.infiniband import InfiniBandFabric
from repro.network.myrinet import MyrinetFabric
from repro.network.topology import Topology
from repro.core.faults import FaultInjector
from repro.symvirt.fencing import EpochRegistry
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class Cluster:
    """A heterogeneous data center: nodes plus IB and Ethernet fabrics."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        calibration: Calibration = PAPER_CALIBRATION,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        self.calibration = calibration
        self.rng = RngRegistry(seed)
        self.tracer = tracer if tracer is not None else Tracer()
        #: Deterministic fault injection shared by every instrumented layer.
        self.faults = FaultInjector(self.env)
        #: Controller-generation counter (crash-recovery fencing tokens).
        self.fencing = EpochRegistry()
        #: Fleet request and incident ids.  Per cluster, not per
        #: interpreter, so a run's ids do not depend on what ran before it;
        #: a dead controller and its successor share them, so ids stay
        #: unique across a succession (the journal folds requests by id).
        self.request_ids = count(1)
        self.incident_ids = count(1)
        self.nodes: Dict[str, PhysicalNode] = {}
        #: IB-cabled node names.
        self.ib_cabled: set[str] = set()
        #: Myrinet-cabled node names.
        self.myrinet_cabled: set[str] = set()
        self.ib_fabric: Optional[InfiniBandFabric] = None
        self.myrinet_fabric: Optional[MyrinetFabric] = None
        self.eth_fabric: Optional[EthernetFabric] = None
        self._serial = 0

    # -- construction ------------------------------------------------------------

    def add_node(self, name: str, spec: NodeSpec = AGC_NODE_SPEC) -> PhysicalNode:
        if name in self.nodes:
            raise HardwareError(f"duplicate node {name!r}")
        node = PhysicalNode(self.env, name, spec, serial=self._serial)
        self._serial += 1
        self.nodes[name] = node
        return node

    def node(self, name: str) -> PhysicalNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise HardwareError(f"unknown node {name!r}") from None

    def wire_ethernet(
        self,
        switch_name: str = AGC_ETH_SWITCH.model,
        sites: Optional[Dict[str, list[str]]] = None,
        wan_bandwidth_Bps: Optional[float] = None,
        wan_latency_s: float = 0.0,
    ) -> None:
        """Cable every node's 10 GbE NIC into the Ethernet fabric.

        Default: one blade switch for all nodes (the paper's single
        enclosure).  Passing ``sites`` (site name → node names) builds
        one switch per site joined pairwise-in-a-chain by WAN links of
        ``wan_bandwidth_Bps`` / ``wan_latency_s`` — the wide-area
        disaster-recovery topology of Section VII's future work.

        Host NIC ports come up immediately (hosts are booted).
        """
        from repro.network.links import Link

        topo = Topology("ethernet")
        if sites is None:
            topo.star(
                switch_name,
                list(self.nodes),
                capacity_Bps=self.calibration.eth_link_Bps,
                latency_s=AGC_ETH_SWITCH.port_latency_s,
            )
        else:
            if wan_bandwidth_Bps is None:
                raise HardwareError("multi-site wiring needs wan_bandwidth_Bps")
            covered = [n for names in sites.values() for n in names]
            if sorted(covered) != sorted(self.nodes):
                raise HardwareError("sites must partition the cluster's nodes")
            switch_names = []
            for site, names in sites.items():
                sw = f"{switch_name}.{site}"
                topo.star(
                    sw, names,
                    capacity_Bps=self.calibration.eth_link_Bps,
                    latency_s=AGC_ETH_SWITCH.port_latency_s,
                )
                switch_names.append(sw)
            for a, b in zip(switch_names, switch_names[1:]):
                topo.add_link(
                    a, b,
                    Link(name=f"wan:{a}--{b}", capacity_Bps=wan_bandwidth_Bps,
                         latency_s=wan_latency_s),
                )
        self.eth_fabric = EthernetFabric(
            self.env, "ethernet", self.calibration, topology=topo, tracer=self.tracer
        )
        for name, node in self.nodes.items():
            port = self.eth_fabric.create_port(name)
            node.ethernet_nic().connect_port(port)
            self.eth_fabric.force_active(port)

    def wire_infiniband(
        self,
        node_names: list[str],
        switch_name: str = AGC_IB_SWITCH.model,
        linkup_jitter: float = 0.0,
    ) -> None:
        """Cable the listed nodes' HCAs to one IB switch.

        Ports stay DOWN until a guest driver probes the (hot-attached)
        device; use :meth:`warm_start_infiniband` for experiments beginning
        in normal operation.
        """
        topo = Topology("infiniband")
        topo.star(
            switch_name,
            node_names,
            capacity_Bps=self.calibration.ib_link_Bps,
            latency_s=AGC_IB_SWITCH.port_latency_s,
        )
        self.ib_fabric = InfiniBandFabric(
            self.env,
            "infiniband",
            self.calibration,
            topology=topo,
            tracer=self.tracer,
            rng=self.rng,
            linkup_jitter=linkup_jitter,
        )
        for name in node_names:
            node = self.node(name)
            hca = node.infiniband_hca()
            if hca is None:
                raise HardwareError(f"{name}: spec has no IB HCA to cable")
            port = self.ib_fabric.create_port(name)
            hca.connect_port(port)
            self.ib_cabled.add(name)

    def wire_myrinet(
        self,
        node_names: list[str],
        switch_name: str = "Myricom 10G-CLOS-ENCL",
    ) -> None:
        """Cable the listed nodes' Myri-10G NICs to one Myrinet switch."""
        from repro.hardware.specs import MYRINET_SWITCH

        topo = Topology("myrinet")
        topo.star(
            switch_name,
            node_names,
            capacity_Bps=self.calibration.myrinet_link_Bps,
            latency_s=MYRINET_SWITCH.port_latency_s,
        )
        self.myrinet_fabric = MyrinetFabric(
            self.env, "myrinet", self.calibration, topology=topo, tracer=self.tracer
        )
        for name in node_names:
            node = self.node(name)
            nics = node.pci.devices("myrinet-nic")
            if not nics:
                raise HardwareError(f"{name}: spec has no Myrinet NIC to cable")
            port = self.myrinet_fabric.create_port(name)
            nics[0].connect_port(port)  # type: ignore[attr-defined]
            self.myrinet_cabled.add(name)

    # -- queries --------------------------------------------------------------------

    def ib_nodes(self) -> list[PhysicalNode]:
        """Nodes whose HCA is cabled (the 'InfiniBand cluster')."""
        return [self.nodes[n] for n in sorted(self.ib_cabled)]

    def myrinet_nodes(self) -> list[PhysicalNode]:
        """Nodes whose Myri-10G NIC is cabled (the 'Myrinet cluster')."""
        return [self.nodes[n] for n in sorted(self.myrinet_cabled)]

    def eth_only_nodes(self) -> list[PhysicalNode]:
        """Nodes without a usable bypass fabric (the 'Ethernet cluster')."""
        return [
            node
            for name, node in sorted(self.nodes.items())
            if name not in self.ib_cabled and name not in self.myrinet_cabled
        ]

    def node_names(self) -> list[str]:
        return sorted(self.nodes)

    # -- failure injection -------------------------------------------------------------

    def fail_host(self, name: str) -> list[str]:
        """Kill a host without warning (power loss / kernel panic).

        The node stops accepting reservations, its heartbeat loop dies on
        the next beat, and every resident QEMU process is destroyed — the
        guests' RAM is gone, so only a checkpoint restore elsewhere can
        bring their jobs back.  Returns the names of the VMs lost.
        """
        from repro.vmm.vm import RunState

        node = self.node(name)
        node.failed = True
        lost = []
        for qemu in list(node.vms):
            if qemu.vm.state is not RunState.SHUTOFF:
                qemu.shutdown()
            lost.append(qemu.vm.name)
        self.trace("hardware", "host_failed", node=name, lost_vms=sorted(lost))
        return lost

    # -- convenience ------------------------------------------------------------------

    def trace(self, category: str, event: str, **fields: object) -> None:
        self.tracer.emit(self.env.now, category, event, **fields)


def build_agc_cluster(
    ib_nodes: int = 8,
    eth_nodes: int = 8,
    calibration: Calibration = PAPER_CALIBRATION,
    seed: int = 0,
    env: Optional[Environment] = None,
    tracer: Optional[Tracer] = None,
    linkup_jitter: float = 0.0,
) -> Cluster:
    """Build the paper's 16-blade AGC testbed (Table I).

    Parameters
    ----------
    ib_nodes, eth_nodes:
        Sizes of the IB-cabled and Ethernet-only sub-clusters.  The paper
        uses 8 + 8 for the micro benchmarks and NPB, and 4 + 4 hosts in
        the fallback/recovery demonstration.
    """
    cluster = Cluster(env=env, calibration=calibration, seed=seed, tracer=tracer)
    ib_names = [f"ib{i + 1:02d}" for i in range(ib_nodes)]
    eth_names = [f"eth{i + 1:02d}" for i in range(eth_nodes)]
    for name in ib_names + eth_names:
        cluster.add_node(name)
    cluster.wire_ethernet()
    if ib_names:
        cluster.wire_infiniband(ib_names, linkup_jitter=linkup_jitter)
    return cluster


def build_heterogeneous_cluster(
    ib_nodes: int = 4,
    myrinet_nodes: int = 4,
    eth_nodes: int = 4,
    calibration: Calibration = PAPER_CALIBRATION,
    seed: int = 0,
    env: Optional[Environment] = None,
    tracer: Optional[Tracer] = None,
) -> Cluster:
    """A three-fabric data center: IB, Myrinet, and Ethernet sub-clusters.

    Exercises Section VI's generality claim: the same Ninja sequence
    moves a job between any pair of sub-clusters because the mechanism
    only depends on PCI hotplug + BTL reconstruction, not on the device
    type.  Myrinet nodes are named ``myri01``… and use the Myri-10G spec.
    """
    from repro.hardware.specs import MYRINET_NODE_SPEC

    cluster = Cluster(env=env, calibration=calibration, seed=seed, tracer=tracer)
    ib_names = [f"ib{i + 1:02d}" for i in range(ib_nodes)]
    myri_names = [f"myri{i + 1:02d}" for i in range(myrinet_nodes)]
    eth_names = [f"eth{i + 1:02d}" for i in range(eth_nodes)]
    for name in ib_names + eth_names:
        cluster.add_node(name)
    for name in myri_names:
        cluster.add_node(name, MYRINET_NODE_SPEC)
    cluster.wire_ethernet()
    if ib_names:
        cluster.wire_infiniband(ib_names)
    if myri_names:
        cluster.wire_myrinet(myri_names)
    return cluster


def build_two_site_cluster(
    primary_nodes: int = 4,
    backup_nodes: int = 4,
    wan_bandwidth_Bps: Optional[float] = None,
    wan_latency_s: float = 5e-3,
    calibration: Calibration = PAPER_CALIBRATION,
    seed: int = 0,
    env: Optional[Environment] = None,
    tracer: Optional[Tracer] = None,
) -> Cluster:
    """Two geographically separated sites joined by a WAN link.

    Section VII's wide-area disaster-recovery scenario: the *primary*
    site is IB-cabled (``ib01``…), the *backup* site is Ethernet-only
    (``eth01``…), and migration traffic between them shares one WAN pipe
    (default 1 Gbit/s, 5 ms one-way — a metro dark-fibre link).
    """
    from repro.units import gbps

    if wan_bandwidth_Bps is None:
        wan_bandwidth_Bps = gbps(1.0)
    cluster = Cluster(env=env, calibration=calibration, seed=seed, tracer=tracer)
    ib_names = [f"ib{i + 1:02d}" for i in range(primary_nodes)]
    eth_names = [f"eth{i + 1:02d}" for i in range(backup_nodes)]
    for name in ib_names + eth_names:
        cluster.add_node(name)
    cluster.wire_ethernet(
        sites={"primary": ib_names, "backup": eth_names},
        wan_bandwidth_Bps=wan_bandwidth_Bps,
        wan_latency_s=wan_latency_s,
    )
    if ib_names:
        cluster.wire_infiniband(ib_names)
    return cluster
