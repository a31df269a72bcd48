"""Exception types shared across the package.

Every error raised on a documented contract boundary derives from
:class:`SubnetmineError` so the CLI can distinguish usage/runtime failures
from bugs.
"""


class SubnetmineError(Exception):
    """Base class for all package-level errors."""


class MissingFile(SubnetmineError):
    def __init__(self, path):
        super().__init__(f"required file not found: {path}")
        self.path = path


class ParseError(SubnetmineError):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class UnknownNode(SubnetmineError):
    def __init__(self, node_id):
        super().__init__(f"unknown node id: {node_id!r}")
        self.node_id = node_id


class EdgeOnNullNode(SubnetmineError):
    def __init__(self, instance_id, node_u, node_v):
        super().__init__(
            f"instance {instance_id!r}: edge ({node_u!r}, {node_v!r}) touches a null node"
        )
        self.instance_id = instance_id
        self.node_u = node_u
        self.node_v = node_v


class DuplicateEdge(SubnetmineError):
    def __init__(self, instance_id, node_u, node_v):
        super().__init__(
            f"instance {instance_id!r}: duplicate edge ({node_u!r}, {node_v!r})"
        )
        self.instance_id = instance_id


class SingleClassDatabase(SubnetmineError):
    def __init__(self):
        super().__init__("database must contain at least two distinct global states")


class KTooLarge(SubnetmineError):
    pass


class DimensionMismatch(SubnetmineError):
    pass


class ZeroMatrix(SubnetmineError):
    """All singular values vanish; the affinity graph is degenerate."""


class NegativeDegree(SubnetmineError, ValueError):
    """A same-state affinity row sum is negative, so D+ is not PSD."""


class RankDeficient(SubnetmineError):
    pass


class CTooLarge(SubnetmineError):
    pass


class ConfigInvalid(SubnetmineError, ValueError):
    """An invalid setting; the CLI reports it as a usage error (exit 2)."""


class TooFewPerClass(SubnetmineError):
    pass


class SingleClassFold(SubnetmineError):
    pass


class DegenerateGroundTruth(SubnetmineError):
    pass
