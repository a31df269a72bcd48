"""Exception types shared across the package, one per way a run can fail.

:class:`ConfigInvalid` is a bad setting, which the CLI reports as a usage
error (exit 2); every other :class:`SubnetmineError` is bad or degenerate
input (exit 1).  :class:`ParseError` is the one for a bad line of an input
file, and names the file and the 1-based line.
"""


class SubnetmineError(Exception):
    """Bad or degenerate input; base class of every package-level error."""


class ConfigInvalid(SubnetmineError, ValueError):
    """An invalid setting; the CLI reports it as a usage error (exit 2)."""


class ParseError(SubnetmineError):
    """A bad line of an input file, read as ``path:line: message``."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
