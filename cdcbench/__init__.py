"""CDC apply benchmark (see README.md)."""
