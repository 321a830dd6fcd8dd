"""Override-assignment merge conflict detection over a small class-based IR."""

__version__ = "0.1.0"
