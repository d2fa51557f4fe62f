"""Network builders shared by the tests."""

from opprelay.channel import ChannelSpec, NetworkSpec


def rayleigh(num_relays: int) -> NetworkSpec:
    """All links Rayleigh (m = 1) with unit spread."""
    ch = ChannelSpec(m=1.0)
    return NetworkSpec(direct=ch, relays=((ch, ch),) * num_relays)


def from_shapes(m_direct: float, m_first, m_second) -> NetworkSpec:
    """A unit-spread network from shape lists, one entry per relay."""
    assert len(m_first) == len(m_second)
    return NetworkSpec(
        direct=ChannelSpec(m=m_direct),
        relays=tuple((ChannelSpec(m=a), ChannelSpec(m=b)) for a, b in zip(m_first, m_second)),
    )
