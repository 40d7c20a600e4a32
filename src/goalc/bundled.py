"""Access to data files shipped inside the package."""

from importlib import resources


def data_text(name: str) -> str:
    """Read a bundled data file (e.g. ``bsn.json``) as UTF-8 text."""
    return (resources.files("goalc") / "data" / name).read_text("utf-8")
