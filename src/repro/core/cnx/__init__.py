"""CNX: the CN compositional language (paper Fig. 2) -- model, parser,
emitter.  Validation is the static analyzer's job
(:func:`repro.analysis.validate_cnx`)."""

from .emitter import emit, to_element
from .parser import CnxParseError, parse, parse_element
from .schema import (
    DEFAULT_MEMORY,
    DEFAULT_PORT,
    DEFAULT_RUNMODEL,
    CnxClient,
    CnxDocument,
    CnxJob,
    CnxParam,
    CnxTask,
    CnxTaskReq,
)

__all__ = [
    "CnxDocument",
    "CnxClient",
    "CnxJob",
    "CnxTask",
    "CnxTaskReq",
    "CnxParam",
    "DEFAULT_MEMORY",
    "DEFAULT_PORT",
    "DEFAULT_RUNMODEL",
    "emit",
    "to_element",
    "parse",
    "parse_element",
    "CnxParseError",
]
