"""Shared by the overlay tests."""


def ignore(message):
    """Handler of a node no assertion listens on (a pure sender, mostly)."""
