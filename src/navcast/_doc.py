"""The saved-model text format that `arima` and `lstm` share.

A document is a `format <kind> v1` line, then one `key v1 v2 ...` line per
row.  Strings and ints are written as they are and floats as `.17g`, which
reads back bitwise.
"""


def _token(v) -> str:
    return str(v) if isinstance(v, (str, int)) else f"{v:.17g}"


def dump(kind: str, rows) -> str:
    """Write (key, values) rows; a row with no values keeps its `key ` line."""
    lines = [f"format {kind} v1"]
    lines += [key + " " + " ".join(_token(v) for v in values) for key, values in rows]
    return "\n".join(lines) + "\n"


def load(kind: str, text: str) -> list:
    """Check the header and return the rows as (key, value tokens) pairs."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != f"format {kind} v1":
        raise ValueError(f"document does not start with 'format {kind} v1'")
    return [(key, rest.split()) for key, _, rest in (line.partition(" ") for line in lines[1:])]
