"""Exception types shared across the simulator."""


class BnnSimError(Exception):
    """Base class for all simulator errors."""


class ShapeError(BnnSimError):
    """Tensor or layer dimensions are inconsistent."""


class AccumulatorOverflow(BnnSimError):
    """A checked partial-sum accumulation left the configured integer range."""


class DegenerateChannel(BnnSimError):
    """Threshold folding hit a zero combined scale."""


class FitError(BnnSimError):
    """A network cannot be placed on the configured memory geometry."""


class FormatError(BnnSimError):
    """A network, weight, config file or run report, or a command-line value, failed to parse."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(loc + message)
        self.path = path
        self.line = line
