"""sizedcheck: a batch type checker, totality checker and evaluator for a
dependently typed core language with sized inductive and coinductive types."""

from .checker import Checker
from .cli import CheckResult, RunConfig, check_source, run_check, run_golden
from .diagnostics import CODES, Diagnostic
from .parser import parse_source, tokenize
from .scope import scope_check
from .signature import Signature

__version__ = "0.1.0"

__all__ = [
    "Checker",
    "CheckResult",
    "CODES",
    "Diagnostic",
    "RunConfig",
    "Signature",
    "check_source",
    "parse_source",
    "run_check",
    "run_golden",
    "scope_check",
    "tokenize",
    "__version__",
]
